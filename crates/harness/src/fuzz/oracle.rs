//! The multi-stage differential oracle run over each generated program.
//!
//! Every subsystem that can produce or consume a compiled design is a
//! cross-check target; a generated program must survive all of them:
//!
//! 1. **parse / fixpoint** — the source parses, and `print ∘ parse` is
//!    idempotent over it (the `filament fmt` contract),
//! 2. **build** — expand → check → lower → elaborate succeeds,
//! 3. **determinism** — a `-j1` build and a `-j2` build emit identical
//!    expanded text and Verilog,
//! 4. **cache** — a cold artifact-cache build and the warm rebuild agree
//!    with the uncached build (when a cache dir is configured),
//! 5. **daemon** — a `filament serve` build over the wire agrees (when a
//!    socket is configured),
//! 6. **interp** — the reference interpreter and interval-exact `Sim`
//!    transactions agree on random inputs,
//! 7. **batch** — `BatchSim` lanes reproduce the scalar results,
//! 8. **opt** — the `-O2`-optimized netlist reproduces the `-O0` lockstep
//!    results through `Sim` and `BatchSim`, and a full driver `-O2` build
//!    is `-j1`/`-j2` byte-identical and agrees with them too.
//!
//! Failures carry the [`Stage`] they occurred at; the shrinker accepts a
//! reduction only if it still fails at the *same* stage, so a candidate
//! that merely breaks the build can never masquerade as a simpler repro
//! of a lockstep mismatch.

use super::{random_inputs, Mismatch};
use crate::interp::{ExternFn, Interp};
use crate::spec::InterfaceSpec;
use crate::txn::{build_plan, poison, run_transactions};
use fil_bits::Value;
use fil_build::BuildRequest;
use filament_core::parse_program;
use filament_core::pretty::print_program;
use rtl_sim::{BatchSim, Netlist};
use std::fmt;
use std::path::PathBuf;

/// The oracle stage a program failed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The generated source did not parse.
    Parse,
    /// `print ∘ parse` is not idempotent over the source.
    Fixpoint,
    /// expand → check → lower → elaborate failed.
    Build,
    /// `-j1` and `-j2` builds disagree.
    Determinism,
    /// Cold/warm artifact-cache builds disagree with the uncached build.
    Cache,
    /// The `filament serve` daemon's build disagrees.
    Daemon,
    /// Reference interpreter vs `Sim` transaction lockstep.
    Interp,
    /// `BatchSim` lanes vs scalar results.
    Batch,
    /// `-O2`-optimized netlist vs the `-O0` lockstep results.
    Opt,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Parse => "parse",
            Stage::Fixpoint => "fmt-fixpoint",
            Stage::Build => "build",
            Stage::Determinism => "build-determinism",
            Stage::Cache => "artifact-cache",
            Stage::Daemon => "serve-daemon",
            Stage::Interp => "interp-lockstep",
            Stage::Batch => "batch-sim",
            Stage::Opt => "opt-lockstep",
        })
    }
}

/// An oracle violation: the stage plus a human-readable account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Where in the pipeline the disagreement surfaced.
    pub stage: Stage,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

impl std::error::Error for OracleFailure {}

fn fail(stage: Stage, detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        stage,
        detail: detail.into(),
    }
}

/// Oracle configuration. [`Default`] runs the always-on stages (fixpoint,
/// build, determinism, interp, batch, opt); the cache and daemon
/// stages activate when their locations are set.
#[derive(Clone)]
pub struct OracleOptions {
    /// The top component (the generator always emits [`super::gen::TOP`]).
    pub top: String,
    /// Random transactions driven through each program.
    pub txns: usize,
    /// Run the cold/warm artifact-cache stage rooted here. The caller owns
    /// the directory's lifecycle; pass a per-case subdirectory for a true
    /// cold start.
    pub cache_dir: Option<PathBuf>,
    /// Cross-check against a running `filament serve` daemon at this
    /// socket (Unix only; ignored elsewhere).
    pub daemon: Option<PathBuf>,
    /// Maximum `BatchSim` lanes per batched run.
    pub lanes: u32,
    /// Replace one extern's interpreter semantics (mutation testing: an
    /// injected bug here must surface as an [`Stage::Interp`] failure).
    pub tweak: Option<(String, ExternFn)>,
    /// Run the local `-O2` pass with [`fil_build::fil_opt`]'s deliberately
    /// unsound fold enabled (mutation testing: the injected bug must
    /// surface as a [`Stage::Opt`] failure). The driver-build half of the
    /// opt stage is skipped while injecting — the injection is a local
    /// config knob the driver never sees.
    pub inject_bad_fold: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            top: super::gen::TOP.to_string(),
            txns: 6,
            cache_dir: None,
            daemon: None,
            lanes: 4,
            tweak: None,
            inject_bad_fold: false,
        }
    }
}

/// Runs the whole oracle pipeline over one program.
///
/// `seed` only steers the random transaction inputs; the program itself is
/// fixed by `source`.
///
/// # Errors
///
/// The first [`OracleFailure`], tagged with its [`Stage`].
pub fn check_source(source: &str, seed: u64, opts: &OracleOptions) -> Result<(), OracleFailure> {
    // Stage 1: parse + pretty-print fixpoint.
    let p1 = parse_program(source).map_err(|e| fail(Stage::Parse, e.to_string()))?;
    let s1 = print_program(&p1);
    let p2 = parse_program(&s1).map_err(|e| {
        fail(
            Stage::Fixpoint,
            format!("printed program fails to reparse: {e}"),
        )
    })?;
    let s2 = print_program(&p2);
    if s1 != s2 {
        let diff = first_diff(&s1, &s2);
        return Err(fail(
            Stage::Fixpoint,
            format!("print∘parse not idempotent: {diff}"),
        ));
    }

    // Stage 2: the reference build (-j1, everything on; the lowered
    // program feeds the opt stage).
    let req = BuildRequest::new(source)
        .netlist(&opts.top)
        .expanded(true)
        .lowered()
        .verilog();
    let out =
        fil_stdlib::build(&req.clone().jobs(1)).map_err(|e| fail(Stage::Build, e.to_string()))?;

    // Stage 3: parallel-build determinism.
    let out2 = fil_stdlib::build(&req.clone().jobs(2)).map_err(|e| {
        fail(
            Stage::Determinism,
            format!("-j2 build failed where -j1 passed: {e}"),
        )
    })?;
    if out2.expanded_text != out.expanded_text {
        return Err(fail(Stage::Determinism, "-j1 and -j2 expanded text differ"));
    }
    if out2.verilog != out.verilog {
        return Err(fail(Stage::Determinism, "-j1 and -j2 Verilog differ"));
    }

    // Stage 4: cold + warm artifact cache.
    if let Some(dir) = &opts.cache_dir {
        let cached = req.clone().jobs(1).cache_dir(dir);
        let cold = fil_stdlib::build(&cached)
            .map_err(|e| fail(Stage::Cache, format!("cold cached build failed: {e}")))?;
        let warm = fil_stdlib::build(&cached)
            .map_err(|e| fail(Stage::Cache, format!("warm cached build failed: {e}")))?;
        for (tag, other) in [("cold", &cold), ("warm", &warm)] {
            if other.expanded_text != out.expanded_text || other.verilog != out.verilog {
                return Err(fail(
                    Stage::Cache,
                    format!("{tag} cached build disagrees with the uncached build"),
                ));
            }
        }
    }

    // Stage 5: the serve daemon.
    #[cfg(unix)]
    if let Some(socket) = &opts.daemon {
        let remote = fil_stdlib::serve::request_build(socket, &req.clone().jobs(1))
            .map_err(|e| fail(Stage::Daemon, format!("daemon build failed: {e}")))?;
        let served = remote.output;
        if served.expanded_text != out.expanded_text || served.verilog != out.verilog {
            return Err(fail(
                Stage::Daemon,
                "daemon build disagrees with the local build",
            ));
        }
    }

    // Stage 6: interpreter vs Sim lockstep.
    let expanded = out.expanded.expect("expanded was requested");
    let netlist = out.netlist.expect("netlist was requested");
    let sig = expanded.sig(&opts.top).ok_or_else(|| {
        fail(
            Stage::Build,
            format!("expansion lost component {}", opts.top),
        )
    })?;
    let spec = InterfaceSpec::from_signature(sig).map_err(|e| {
        fail(
            Stage::Build,
            format!("top signature is not harness-drivable: {e}"),
        )
    })?;
    let inputs = random_inputs(&spec, opts.txns, seed);

    let mut interp = Interp::new(&expanded);
    if let Some((name, f)) = &opts.tweak {
        interp.override_extern(name, *f);
    }
    let mut want = Vec::with_capacity(inputs.len());
    for (case, txn) in inputs.iter().enumerate() {
        let outs = interp.eval(&opts.top, txn).map_err(|e| {
            fail(
                Stage::Interp,
                format!("interpreter failed on case {case}: {e}"),
            )
        })?;
        want.push(outs);
    }
    let got = run_transactions(&netlist, &spec, &inputs, spec.delay)
        .map_err(|e| fail(Stage::Interp, format!("transaction driving failed: {e}")))?;
    for (case, ((input, got), want)) in inputs.iter().zip(&got).zip(&want).enumerate() {
        if got != want {
            let m = Mismatch {
                component: spec.name.clone(),
                seed,
                case,
                inputs: input.clone(),
                got: got.clone(),
                want: want.clone(),
            };
            return Err(fail(Stage::Interp, m.to_string()));
        }
    }

    // Stage 7: BatchSim lanes vs the scalar results.
    batch_check(&netlist, &spec, &inputs, &got, opts.lanes, Stage::Batch)?;

    // Stage 8: -O2 vs -O0 lockstep. The -O0 netlist already produced
    // `got`; a level-2 optimized netlist of the same lowered program must
    // reproduce it exactly, scalar and batched.
    let lowered = out.lowered.as_ref().expect("lowered was requested");
    let mut optimized = lowered.clone();
    let cfg = fil_build::fil_opt::OptConfig {
        inject_bad_fold: opts.inject_bad_fold,
        ..fil_build::fil_opt::OptConfig::level(2)
    };
    let report = fil_build::fil_opt::optimize_program(&mut optimized, &cfg);
    let opt_netlist = optimized.elaborate(&opts.top).map_err(|e| {
        fail(
            Stage::Opt,
            format!(
                "optimized program fails to elaborate after {} rewrites: {e}",
                report.rewrites()
            ),
        )
    })?;
    let opted = run_transactions(&opt_netlist, &spec, &inputs, spec.delay)
        .map_err(|e| fail(Stage::Opt, format!("-O2 transaction driving failed: {e}")))?;
    for (case, ((input, o), g)) in inputs.iter().zip(&opted).zip(&got).enumerate() {
        if o != g {
            let m = Mismatch {
                component: spec.name.clone(),
                seed,
                case,
                inputs: input.clone(),
                got: o.clone(),
                want: g.clone(),
            };
            return Err(fail(
                Stage::Opt,
                format!(
                    "-O2 diverges from -O0 ({} rewrites): {m}",
                    report.rewrites()
                ),
            ));
        }
    }
    batch_check(&opt_netlist, &spec, &inputs, &got, opts.lanes, Stage::Opt)?;

    // The driver half: a full -O2 build (per-unit optimize, artifact
    // encode/decode, merge renames, netlist cache) must be -j1/-j2
    // byte-identical and agree with the -O0 lockstep results. Skipped
    // while injecting: the unsound fold is a local config knob the
    // driver never exposes.
    if !opts.inject_bad_fold {
        let oreq = req.opt_level(2);
        let o1 = fil_stdlib::build(&oreq.clone().jobs(1))
            .map_err(|e| fail(Stage::Opt, format!("-O2 -j1 build failed: {e}")))?;
        let o2 = fil_stdlib::build(&oreq.jobs(2))
            .map_err(|e| fail(Stage::Opt, format!("-O2 -j2 build failed: {e}")))?;
        if o1.verilog != o2.verilog {
            return Err(fail(Stage::Opt, "-O2 -j1 and -j2 Verilog differ"));
        }
        let driver_netlist = o1.netlist.expect("netlist was requested");
        let driven = run_transactions(&driver_netlist, &spec, &inputs, spec.delay)
            .map_err(|e| fail(Stage::Opt, format!("driver -O2 driving failed: {e}")))?;
        if driven != got {
            let case = got.iter().zip(&driven).position(|(a, b)| a != b);
            return Err(fail(
                Stage::Opt,
                format!("driver -O2 netlist diverges from -O0 at case {case:?}"),
            ));
        }
    }

    Ok(())
}

/// Drives every transaction through `BatchSim`, one transaction per lane
/// (unpipelined — each lane starts its transaction at cycle 0), and
/// demands bit-identical outputs to the scalar pipelined run. Failures
/// are tagged `stage` — [`Stage::Batch`] for the -O0 netlist,
/// [`Stage::Opt`] when re-checking the optimized one.
fn batch_check(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    scalar: &[Vec<Value>],
    max_lanes: u32,
    stage: Stage,
) -> Result<(), OracleFailure> {
    let berr = |d: String| fail(stage, d);
    let input_ids: Vec<_> = spec
        .inputs
        .iter()
        .map(|p| {
            netlist
                .signal_by_name(&p.name)
                .ok_or_else(|| berr(format!("netlist lost input {}", p.name)))
        })
        .collect::<Result<_, _>>()?;
    let output_ids: Vec<_> = spec
        .outputs
        .iter()
        .map(|p| {
            netlist
                .signal_by_name(&p.name)
                .ok_or_else(|| berr(format!("netlist lost output {}", p.name)))
        })
        .collect::<Result<_, _>>()?;
    let go_id = match &spec.go {
        Some(name) => Some(
            netlist
                .signal_by_name(name)
                .ok_or_else(|| berr(format!("netlist lost interface port {name}")))?,
        ),
        None => None,
    };

    for (chunk_idx, chunk) in inputs.chunks(max_lanes.max(1) as usize).enumerate() {
        let lanes = chunk.len() as u32;
        let mut sim = BatchSim::new(netlist, lanes)
            .map_err(|e| berr(format!("BatchSim rejected the netlist: {e}")))?;
        // Single-transaction plans share their timing; only values differ
        // per lane.
        let plans: Vec<_> = chunk
            .iter()
            .map(|txn| build_plan(spec, std::slice::from_ref(txn), 1, 0))
            .collect::<Result<_, _>>()
            .map_err(|e| berr(format!("plan construction failed: {e}")))?;
        let total = plans[0].total_cycles;
        for t in 0..total {
            for (lane, plan) in plans.iter().enumerate() {
                for (i, port) in spec.inputs.iter().enumerate() {
                    let v = match &plan.plan[t as usize][i] {
                        Some(v) => v.clone(),
                        None => poison(port.width, i, t),
                    };
                    sim.poke(input_ids[i], lane as u32, v);
                }
                if let Some(go) = go_id {
                    sim.poke(go, lane as u32, Value::from_bool(t == 0));
                }
            }
            sim.settle()
                .map_err(|e| berr(format!("batch settle failed: {e}")))?;
            for (lane, _) in plans.iter().enumerate() {
                let case = chunk_idx * max_lanes.max(1) as usize + lane;
                for (j, port) in spec.outputs.iter().enumerate() {
                    if t >= port.start && t < port.end {
                        let got = sim.peek(output_ids[j], lane as u32);
                        if got != scalar[case][j] {
                            return Err(berr(format!(
                                "lane {lane} case {case} port {}: batch {:?} vs scalar {:?}",
                                port.name, got, scalar[case][j]
                            )));
                        }
                    }
                }
            }
            sim.tick()
                .map_err(|e| berr(format!("batch tick failed: {e}")))?;
        }
    }
    Ok(())
}

/// The first line where two renderings differ, for fixpoint diagnostics.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("lengths differ ({} vs {} bytes)", a.len(), b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "comp FzTop<G: 1>(@interface[G] go: 1, @[G, G+1] x0: 8, @[G, G+1] x1: 8)
    -> (@[G, G+1] o0: 8) {
  n1 := new Add[8]<G>(x0, x1);
  o0 = n1.out;
}";

    #[test]
    fn clean_program_passes_every_stage() {
        check_source(GOOD, 7, &OracleOptions::default()).unwrap();
    }

    #[test]
    fn unparseable_program_fails_at_parse() {
        let err = check_source("comp {", 0, &OracleOptions::default()).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
    }

    #[test]
    fn unbuildable_program_fails_at_build() {
        // Parses, but references an unknown extern.
        let src = "comp FzTop<G: 1>(@interface[G] go: 1, @[G, G+1] x0: 8)
    -> (@[G, G+1] o0: 8) {
  n1 := new Bogus[8]<G>(x0, x0);
  o0 = n1.out;
}";
        let err = check_source(src, 0, &OracleOptions::default()).unwrap_err();
        assert_eq!(err.stage, Stage::Build);
    }

    #[test]
    fn injected_bad_fold_is_caught_at_opt_lockstep() {
        // The unsound fold only fires on cells with a constant pin; a
        // literal operand guarantees one.
        let src = "comp FzTop<G: 1>(@interface[G] go: 1, @[G, G+1] x0: 8)
    -> (@[G, G+1] o0: 8) {
  n1 := new Add[8]<G>(x0, 9);
  o0 = n1.out;
}";
        check_source(src, 3, &OracleOptions::default()).expect("healthy oracle passes");
        let opts = OracleOptions {
            inject_bad_fold: true,
            ..OracleOptions::default()
        };
        let err = check_source(src, 3, &opts).unwrap_err();
        assert_eq!(err.stage, Stage::Opt, "{err}");
        assert!(err.detail.contains("-O2 diverges from -O0"), "{err}");
    }

    #[test]
    fn injected_interp_bug_is_caught_at_lockstep() {
        fn off_by_one(params: &[u64], args: &[u64]) -> u64 {
            let w = params.first().copied().unwrap_or(64).min(63);
            args[0].wrapping_add(args[1]).wrapping_add(1) & ((1u64 << w) - 1)
        }
        let opts = OracleOptions {
            tweak: Some(("Add".to_string(), off_by_one)),
            ..OracleOptions::default()
        };
        let err = check_source(GOOD, 7, &opts).unwrap_err();
        assert_eq!(err.stage, Stage::Interp, "{err}");
        // The failure line alone reproduces: component, seed, case.
        assert!(err.detail.contains("component FzTop"), "{err}");
        assert!(err.detail.contains("seed 7"), "{err}");
    }
}
