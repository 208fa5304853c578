//! The fuzz campaign driver behind `filament fuzz`.
//!
//! Each case derives its own seed from the campaign seed, generates a
//! program, and runs the full [`super::oracle`] pipeline over it. The
//! heavyweight stages (artifact cache, serve daemon) run on a configurable
//! stride instead of every case. On a violation the driver shrinks the
//! program to a minimal repro that still fails at the same stage and
//! (optionally) writes it to disk as a replayable `.fil` file.

use super::gen::{generate, TOP};
use super::oracle::{check_source, OracleFailure, OracleOptions, Stage};
use super::shrink::shrink;
use crate::interp::ExternFn;
use std::fmt;
use std::path::PathBuf;

/// Campaign configuration.
#[derive(Clone)]
pub struct FuzzConfig {
    /// Campaign seed; case `i` fuzzes with `mix(seed, i)`.
    pub seed: u64,
    /// Programs to generate and check.
    pub cases: usize,
    /// Random transactions driven through each program.
    pub txns: usize,
    /// Run the artifact-cache stage every Nth case (0 = never).
    pub cache_every: usize,
    /// `filament serve` socket for the daemon stage.
    pub daemon: Option<PathBuf>,
    /// Run the daemon stage every Nth case (0 = never; needs `daemon`).
    pub daemon_every: usize,
    /// Predicate-evaluation budget for shrinking a failure.
    pub shrink_budget: usize,
    /// Interpreter extern override (mutation testing).
    pub tweak: Option<(String, ExternFn)>,
    /// Enable the optimizer's deliberately unsound fold (mutation
    /// testing; see [`OracleOptions::inject_bad_fold`]).
    pub inject_bad_fold: bool,
    /// Where to write shrunk `.fil` repros (created on demand).
    pub out_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF11_FA22,
            cases: 100,
            txns: 5,
            cache_every: 0,
            daemon: None,
            daemon_every: 0,
            shrink_budget: 150,
            tweak: None,
            inject_bad_fold: false,
            out_dir: None,
        }
    }
}

/// Counters from a clean campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Programs generated and checked.
    pub cases: usize,
    /// Cases that additionally ran the artifact-cache stage.
    pub cache_checks: usize,
    /// Cases that additionally ran the daemon stage.
    pub daemon_checks: usize,
}

/// A fuzzing counterexample, shrunk and ready to replay.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the campaign.
    pub case: usize,
    /// The case seed (`filament fuzz --seed <seed> --cases 1` reproduces).
    pub seed: u64,
    /// The oracle violation.
    pub failure: OracleFailure,
    /// The program as generated.
    pub source: String,
    /// The minimal program still failing at the same stage.
    pub shrunk: String,
    /// Where the repro was written, when an output directory was set.
    pub repro: Option<PathBuf>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} (seed {}): {} — shrunk to {} bytes",
            self.case,
            self.seed,
            self.failure,
            self.shrunk.len()
        )?;
        if let Some(p) = &self.repro {
            write!(f, ", repro at {}", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for FuzzFailure {}

/// splitmix64: the per-case seed derivation.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a fuzzing campaign.
///
/// # Errors
///
/// The first [`FuzzFailure`], already shrunk (boxed: it carries two full
/// program texts).
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzStats, Box<FuzzFailure>> {
    let mut stats = FuzzStats::default();
    for case in 0..cfg.cases {
        let case_seed = mix(cfg.seed, case as u64);
        let gen_case = generate(case_seed);

        let mut opts = OracleOptions {
            txns: cfg.txns,
            tweak: cfg.tweak.clone(),
            inject_bad_fold: cfg.inject_bad_fold,
            ..OracleOptions::default()
        };
        let cache_case = cfg.cache_every > 0 && case % cfg.cache_every == 0;
        let mut cache_dir = None;
        if cache_case {
            let dir = std::env::temp_dir().join(format!(
                "fil-fuzz-cache-{}-{}-{case}",
                std::process::id(),
                cfg.seed
            ));
            opts.cache_dir = Some(dir.clone());
            cache_dir = Some(dir);
            stats.cache_checks += 1;
        }
        if cfg.daemon_every > 0 && case % cfg.daemon_every == 0 {
            if let Some(sock) = &cfg.daemon {
                opts.daemon = Some(sock.clone());
                stats.daemon_checks += 1;
            }
        }

        let result = check_source(&gen_case.source, case_seed, &opts);
        if let Some(dir) = cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        stats.cases += 1;

        if let Err(failure) = result {
            return Err(Box::new(handle_failure(
                cfg,
                case,
                case_seed,
                gen_case.source,
                failure,
                &opts,
            )));
        }
    }
    Ok(stats)
}

/// Re-checks a single program (the `--replay` path): same oracle, no
/// generation, no shrinking.
///
/// # Errors
///
/// The [`OracleFailure`], if the program still violates the oracle.
pub fn replay(source: &str, seed: u64, txns: usize) -> Result<(), OracleFailure> {
    let opts = OracleOptions {
        txns,
        ..OracleOptions::default()
    };
    check_source(source, seed, &opts)
}

fn handle_failure(
    cfg: &FuzzConfig,
    case: usize,
    case_seed: u64,
    source: String,
    failure: OracleFailure,
    opts: &OracleOptions,
) -> FuzzFailure {
    // Shrink against a trimmed oracle: the expensive optional stages only
    // stay on when the failure lives in one of them.
    let mut pred_opts = opts.clone();
    if failure.stage != Stage::Cache {
        pred_opts.cache_dir = None;
    }
    if failure.stage != Stage::Daemon {
        pred_opts.daemon = None;
    }
    let stage = failure.stage;
    let mut pred =
        |src: &str| check_source(src, case_seed, &pred_opts).is_err_and(|e| e.stage == stage);
    let shrunk = shrink(&source, TOP, &mut pred, cfg.shrink_budget);

    let repro = cfg.out_dir.as_ref().and_then(|dir| {
        let path = dir.join(format!("fuzz-seed-{case_seed:#018x}.fil"));
        let text = format!(
            "// filament fuzz counterexample\n// campaign seed {} case {case} (case seed \
             {case_seed})\n// stage: {}\n// replay: filament fuzz --replay <this file> --seed \
             {case_seed}\n{shrunk}\n",
            cfg.seed, failure.stage
        );
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, text).ok()?;
        Some(path)
    });

    FuzzFailure {
        case,
        seed: case_seed,
        failure,
        source,
        shrunk,
        repro,
    }
}

/// The canonical injected bug for mutation testing: `Add` off by one.
fn off_by_one_add(params: &[u64], args: &[u64]) -> u64 {
    let w = params.first().copied().unwrap_or(64).min(63);
    args[0].wrapping_add(args[1]).wrapping_add(1) & ((1u64 << w) - 1)
}

/// The result of a successful [`mutation_selftest`].
#[derive(Debug, Clone)]
pub struct Selftest {
    /// The case that tripped on the injected bug.
    pub case: usize,
    /// Its seed.
    pub seed: u64,
    /// Bytes of the generated program.
    pub original_bytes: usize,
    /// Bytes of the shrunk repro.
    pub shrunk_bytes: usize,
    /// The shrunk repro itself.
    pub shrunk: String,
}

/// Proves the oracle catches and shrinks an injected violation: runs a
/// campaign with a deliberately wrong interpreter `Add`, demands a
/// lockstep failure within `cfg.cases` cases, shrinks it, and verifies
/// the shrunk repro (a) still fails under the broken oracle and (b)
/// passes the healthy oracle — the bug was in the injected semantics, not
/// the toolchain.
///
/// # Errors
///
/// A description of whichever guarantee did not hold.
pub fn mutation_selftest(cfg: &FuzzConfig) -> Result<Selftest, String> {
    let cfg = FuzzConfig {
        tweak: Some(("Add".to_string(), off_by_one_add as ExternFn)),
        ..cfg.clone()
    };
    let failure = match run_fuzz(&cfg) {
        Ok(stats) => {
            return Err(format!(
                "no generated program exposed the injected Add bug in {} cases",
                stats.cases
            ))
        }
        Err(f) => f,
    };
    if failure.failure.stage != Stage::Interp {
        return Err(format!(
            "injected interpreter bug surfaced at stage {} instead of {}",
            failure.failure.stage,
            Stage::Interp
        ));
    }
    if failure.shrunk.len() > failure.source.len() {
        return Err("shrinking grew the program".to_string());
    }
    // The shrunk repro must reproduce under the broken oracle...
    let broken = OracleOptions {
        txns: cfg.txns,
        tweak: cfg.tweak.clone(),
        ..OracleOptions::default()
    };
    match check_source(&failure.shrunk, failure.seed, &broken) {
        Err(e) if e.stage == Stage::Interp => {}
        other => {
            return Err(format!(
                "shrunk repro does not replay the injected bug: {other:?}"
            ))
        }
    }
    // ...and pass the healthy one.
    let healthy = OracleOptions {
        txns: cfg.txns,
        ..OracleOptions::default()
    };
    if let Err(e) = check_source(&failure.shrunk, failure.seed, &healthy) {
        return Err(format!("shrunk repro fails the healthy oracle too: {e}"));
    }
    Ok(Selftest {
        case: failure.case,
        seed: failure.seed,
        original_bytes: failure.source.len(),
        shrunk_bytes: failure.shrunk.len(),
        shrunk: failure.shrunk.clone(),
    })
}

/// The optimizer-side mutation test: runs a campaign with the
/// deliberately unsound constant fold enabled
/// ([`FuzzConfig::inject_bad_fold`]), demands a [`Stage::Opt`] lockstep
/// failure, shrinks it, and verifies the shrunk repro still trips the
/// injected fold while passing the healthy oracle — proving the
/// `-O2`-vs-`-O0` stage would catch a real miscompiling pass.
///
/// # Errors
///
/// A description of whichever guarantee did not hold.
pub fn opt_fold_selftest(cfg: &FuzzConfig) -> Result<Selftest, String> {
    let cfg = FuzzConfig {
        inject_bad_fold: true,
        ..cfg.clone()
    };
    let failure = match run_fuzz(&cfg) {
        Ok(stats) => {
            return Err(format!(
                "no generated program exposed the injected bad fold in {} cases \
                 (the generator must emit literal operands for it to fire)",
                stats.cases
            ))
        }
        Err(f) => f,
    };
    if failure.failure.stage != Stage::Opt {
        return Err(format!(
            "injected optimizer bug surfaced at stage {} instead of {}",
            failure.failure.stage,
            Stage::Opt
        ));
    }
    if failure.shrunk.len() > failure.source.len() {
        return Err("shrinking grew the program".to_string());
    }
    // The shrunk repro must reproduce under the injecting oracle...
    let broken = OracleOptions {
        txns: cfg.txns,
        inject_bad_fold: true,
        ..OracleOptions::default()
    };
    match check_source(&failure.shrunk, failure.seed, &broken) {
        Err(e) if e.stage == Stage::Opt => {}
        other => {
            return Err(format!(
                "shrunk repro does not replay the injected fold: {other:?}"
            ))
        }
    }
    // ...and pass the healthy one.
    let healthy = OracleOptions {
        txns: cfg.txns,
        ..OracleOptions::default()
    };
    if let Err(e) = check_source(&failure.shrunk, failure.seed, &healthy) {
        return Err(format!("shrunk repro fails the healthy oracle too: {e}"));
    }
    Ok(Selftest {
        case: failure.case,
        seed: failure.seed,
        original_bytes: failure.source.len(),
        shrunk_bytes: failure.shrunk.len(),
        shrunk: failure.shrunk.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..16).map(|i| mix(1, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| mix(1, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "colliding case seeds");
        assert_ne!(mix(1, 0), mix(2, 0), "campaign seed has no effect");
    }
}
