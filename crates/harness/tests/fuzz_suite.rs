//! The generative differential fuzzer's CI gates.
//!
//! * **Pinned-seed smoke** — a fixed campaign (the same seeds every run)
//!   must pass every oracle stage clean: interpreter vs scalar `Sim`,
//!   `BatchSim`, `-O2` vs `-O0`, `-j1` vs `-j2` builds, and periodic
//!   cold/warm artifact-cache builds.
//! * **Daemon cross-check** — a slice of the campaign builds through an
//!   in-process `filament serve` daemon and must agree byte-for-byte
//!   (Unix only).
//! * **Seed corpus** — every checked-in `tests/fuzz_corpus/*.fil`
//!   replays clean, and the generator still reproduces it byte-identically
//!   from the seed recorded in its header (generation is part of the
//!   repo's determinism surface).
//! * **Mutation tests** — an injected interpreter bug (off-by-one `Add`)
//!   must be *caught* at the lockstep stage and *shrunk* to a minimal
//!   `.fil` repro that replays the bug under the broken oracle and passes
//!   the healthy one; likewise an injected unsound constant fold must be
//!   caught at the `-O2`-vs-`-O0` opt-lockstep stage.

use fil_harness::fuzz::oracle::{check_source, OracleOptions, Stage};
use fil_harness::fuzz::run::{mutation_selftest, opt_fold_selftest};
use fil_harness::fuzz::{gen, run_fuzz, FuzzConfig};
use std::path::Path;

/// The campaign seed CI pins (also the `FuzzConfig::default` seed).
const CI_SEED: u64 = 0xF11_FA22;

#[test]
fn pinned_seed_campaign_is_clean() {
    let cfg = FuzzConfig {
        seed: CI_SEED,
        cases: 120,
        txns: 4,
        cache_every: 40,
        ..FuzzConfig::default()
    };
    let stats = run_fuzz(&cfg).unwrap_or_else(|f| panic!("{f}\n--- shrunk ---\n{}", f.shrunk));
    assert_eq!(stats.cases, 120);
    assert_eq!(stats.cache_checks, 3);
}

#[cfg(unix)]
#[test]
fn daemon_cross_check_agrees() {
    let socket = std::env::temp_dir().join(format!("fil-fz-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let server = fil_stdlib::serve::Server::bind(fil_stdlib::serve::ServeOptions {
        socket: socket.clone(),
        jobs: 1,
        ..Default::default()
    })
    .expect("bind daemon");
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..300 {
        if fil_stdlib::serve::ping(&socket).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let cfg = FuzzConfig {
        seed: CI_SEED ^ 0xDAE0,
        cases: 9,
        txns: 3,
        daemon: Some(socket.clone()),
        daemon_every: 3,
        ..FuzzConfig::default()
    };
    let stats = run_fuzz(&cfg).unwrap_or_else(|f| panic!("{f}\n--- shrunk ---\n{}", f.shrunk));
    assert_eq!(stats.daemon_checks, 3);
    fil_stdlib::serve::stop(&socket).expect("stop daemon");
    handle.join().unwrap().expect("daemon run");
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn corpus_replays_clean_and_regenerates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fuzz_corpus directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "fil"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "corpus shrank to {} files", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let seed: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("// case seed "))
            .unwrap_or_else(|| panic!("{}: no `// case seed` header", path.display()))
            .trim()
            .parse()
            .expect("seed parses");
        // The checked-in program still replays through the whole oracle.
        check_source(&text, seed, &OracleOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // And the generator still produces exactly this program: corpus
        // files pin generator determinism across releases — regenerate
        // them (see the header) when the generator intentionally changes.
        let body = text
            .lines()
            .skip_while(|l| l.starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        let regen = gen::generate(seed).source;
        assert_eq!(
            regen.trim(),
            body.trim(),
            "{}: generator drifted from the checked-in corpus",
            path.display()
        );
    }
}

#[test]
fn injected_bug_is_caught_and_shrunk() {
    let report = mutation_selftest(&FuzzConfig {
        seed: CI_SEED,
        cases: 50,
        txns: 4,
        ..FuzzConfig::default()
    })
    .expect("selftest");
    // The shrunk repro is small, self-contained, and still names the
    // mutated extern.
    assert!(
        report.shrunk_bytes < report.original_bytes,
        "no reduction: {} -> {} bytes",
        report.original_bytes,
        report.shrunk_bytes
    );
    assert!(report.shrunk.contains("Add"), "{}", report.shrunk);
    assert!(report.shrunk.contains("FzTop"), "{}", report.shrunk);
    // Replaying the repro against the *healthy* oracle passes — the
    // violation lived in the injected semantics, not the toolchain.
    check_source(&report.shrunk, report.seed, &OracleOptions::default())
        .expect("healthy oracle accepts the repro");
}

#[test]
fn injected_bad_fold_is_caught_and_shrunk() {
    let report = opt_fold_selftest(&FuzzConfig {
        seed: CI_SEED,
        cases: 50,
        txns: 4,
        ..FuzzConfig::default()
    })
    .expect("opt selftest");
    assert!(
        report.shrunk_bytes <= report.original_bytes,
        "shrinking grew: {} -> {} bytes",
        report.original_bytes,
        report.shrunk_bytes
    );
    assert!(report.shrunk.contains("FzTop"), "{}", report.shrunk);
    // Replaying the repro against the *healthy* oracle passes — the
    // violation lived in the injected fold, not the real optimizer.
    check_source(&report.shrunk, report.seed, &OracleOptions::default())
        .expect("healthy oracle accepts the repro");
}

#[test]
fn oracle_stages_are_ordered_and_reported() {
    // A parse error reports at the parse stage, not as a later panic.
    let err = check_source("comp ???", 0, &OracleOptions::default()).unwrap_err();
    assert_eq!(err.stage, Stage::Parse);
    // Stage names are stable (they appear in repro file headers and CI
    // logs).
    assert_eq!(Stage::Interp.to_string(), "interp-lockstep");
    assert_eq!(Stage::Opt.to_string(), "opt-lockstep");
}
