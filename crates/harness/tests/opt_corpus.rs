//! Corpus-wide optimizer gates.
//!
//! Two invariants over every design in [`fil_designs::corpus`]
//! (which includes the systolic array at N = 2/4/8):
//!
//! 1. **Soundness** — the `-O2` build elaborates and its netlist
//!    reproduces the `-O0` netlist's outputs in lockstep on random
//!    stimulus (same harness the differential fuzzer uses).
//! 2. **Effectiveness** — per-design `-O0`/`-O2` elaborated cell counts
//!    are pinned in `tests/golden/opt_counts.txt` (so a pass silently
//!    losing its wins — or suddenly deleting live logic — fails CI), and
//!    at least two designs shed ≥ 25% of their cells at `-O2`.
//! 3. **Byte identity** — the same file pins an FNV-64 digest of each
//!    design's `-O2` emitted Verilog, so a rewrite of a pass that keeps
//!    the cell count but changes its output (a different CSE
//!    representative, reordered assignments) fails CI too.
//!
//! Two more gates outside the corpus: the ten-round `AesFil10` never
//! grows at `-O2`, and `-O2` `Systolic[8,32]` evaluates no more cells
//! than `-O0` on one 128-lane stimulus.
//!
//! Regenerate the pin file after an intentional optimizer change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fil-harness --test opt_corpus
//! ```

use fil_harness::fuzz::fuzz_equivalent;
use fil_harness::InterfaceSpec;
use fil_stdlib::BuildRequest;
use std::path::PathBuf;

const SEED: u64 = 0xC0FFEE;

fn counts_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("opt_counts.txt")
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn corpus_optimizes_soundly_and_cell_counts_are_pinned() {
    let mut lines = vec![
        "# design  cells@-O0  cells@-O2  fnv64(verilog@-O2) — pinned by tests/opt_corpus.rs;"
            .to_string(),
        "# regenerate with UPDATE_GOLDEN=1 after intentional optimizer changes.".to_string(),
    ];
    let mut big_wins = Vec::new();
    for (name, src, top) in fil_designs::corpus() {
        let req = |level: u8| {
            BuildRequest::new(src.as_str())
                .netlist(top)
                .expanded(true)
                .opt_level(level)
        };
        // The Reticle registry is a superset of the standard one, so it
        // serves every corpus entry (only conv2d-reticle needs Tdot).
        let o0 = fil_stdlib::build_with_registry(&req(0), &reticle::ReticleRegistry)
            .unwrap_or_else(|e| panic!("{name} -O0: {e}"));
        let o2 = fil_stdlib::build_with_registry(&req(2).verilog(), &reticle::ReticleRegistry)
            .unwrap_or_else(|e| panic!("{name} -O2: {e}"));
        let n0 = o0.netlist.expect("netlist was requested");
        let n2 = o2.netlist.expect("netlist was requested");

        // Soundness: the optimized netlist is lockstep-equivalent on
        // random transactions.
        let expanded = o0.expanded.expect("expanded was requested");
        let sig = expanded
            .sig(top)
            .unwrap_or_else(|| panic!("{name}: expansion lost top {top}"));
        let spec = InterfaceSpec::from_signature(sig)
            .unwrap_or_else(|e| panic!("{name}: top not drivable: {e}"));
        fuzz_equivalent((&n0, &spec), (&n2, &spec), 6, SEED)
            .unwrap_or_else(|e| panic!("{name}: -O2 diverges from -O0: {e}"));

        // Effectiveness: -O2 never grows the design, and the counts are
        // pinned below.
        let (c0, c2) = (n0.cells().len(), n2.cells().len());
        assert!(c2 <= c0, "{name}: -O2 grew the netlist ({c0} -> {c2} cells)");
        if c2 * 4 <= c0 * 3 {
            big_wins.push(name.clone());
        }
        let verilog = o2.verilog.expect("verilog was requested");
        let digest = fil_build::key::fnv64(&[verilog.as_bytes()]);
        lines.push(format!("{name} {c0} {c2} {digest:016x}"));
    }
    assert!(
        big_wins.len() >= 2,
        "-O2 sheds >= 25% of cells on only {} designs (need 2): {big_wins:?}",
        big_wins.len()
    );

    let rendered = lines.join("\n") + "\n";
    let path = counts_path();
    if update_mode() {
        std::fs::write(&path, rendered).expect("write opt_counts.txt");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p fil-harness \
             --test opt_corpus to create it",
            path.display()
        )
    });
    assert_eq!(
        golden,
        rendered,
        "optimized cell counts or -O2 Verilog drifted from {}; run UPDATE_GOLDEN=1 if \
         intentional",
        path.display()
    );
}

/// The build driver runs the optimizer with the source map off; tools
/// that want the map turn it on. Both must produce the same program and
/// the same counters on every corpus design, at both levels.
#[test]
fn corpus_optimizes_identically_with_and_without_notes() {
    use fil_build::fil_opt::{optimize_program, OptConfig, OptReport};
    let counters = |r: &OptReport| {
        (
            r.iterations,
            r.cells_before,
            r.cells_after,
            r.assigns_before,
            r.assigns_after,
            r.passes.map(|p| p.rewrites),
        )
    };
    for (name, src, _) in fil_designs::corpus() {
        let req = BuildRequest::new(src.as_str())
            .lowered()
            .expanded(false)
            .opt_level(0);
        let lowered = fil_stdlib::build_with_registry(&req, &reticle::ReticleRegistry)
            .unwrap_or_else(|e| panic!("{name} -O0: {e}"))
            .lowered
            .expect("lowered was requested");
        for level in [1, 2] {
            let mut on = lowered.clone();
            let r_on = optimize_program(&mut on, &OptConfig::level(level));
            let mut off = lowered.clone();
            let quiet = OptConfig {
                record_notes: false,
                ..OptConfig::level(level)
            };
            let r_off = optimize_program(&mut off, &quiet);
            assert!(r_off.notes.is_empty());
            assert_eq!(
                r_on.notes.is_empty(),
                r_on.rewrites() == 0,
                "{name} -O{level}: notes are recorded iff something was rewritten"
            );
            assert_eq!(counters(&r_on), counters(&r_off), "{name} -O{level}");
            assert_eq!(
                calyx_lite::emit_program(&on),
                calyx_lite::emit_program(&off),
                "{name} -O{level}: notes changed the optimized program"
            );
        }
    }
}

fn netlist_at(src: &str, top: &str, level: u8) -> std::sync::Arc<rtl_sim::Netlist> {
    fil_stdlib::build(&BuildRequest::new(src).netlist(top).opt_level(level))
        .unwrap_or_else(|e| panic!("{top} -O{level}: {e}"))
        .netlist
        .expect("netlist was requested")
}

/// The ten-round AES core (the corpus holds it at two rounds): `-O2`
/// never grows it, and keeps it within the 2 640 cells it had when the
/// optimizer landed.
#[test]
fn aes_fil10_does_not_grow_at_o2() {
    let (src, top) = (
        fil_designs::aes_fil::source(10),
        fil_designs::aes_fil::top_name(10),
    );
    let c0 = netlist_at(&src, &top, 0).cells().len();
    let c2 = netlist_at(&src, &top, 2).cells().len();
    assert!(
        c2 <= c0,
        "AesFil10: -O2 grew the netlist ({c0} -> {c2} cells)"
    );
    assert!(
        c2 <= 2640,
        "AesFil10: -O2 leaves {c2} cells, more than 2640"
    );
}

/// `-O2` never makes the simulator do more work. On one 128-lane
/// `Systolic[8,32]` stimulus, the `-O2` netlist evaluates no more cells
/// than the `-O0` one. Eval counts are exact, so this compares the two
/// levels without a timer.
#[test]
fn o2_systolic8_evaluates_no_more_cells_than_o0() {
    const LANES: u32 = 128;
    let n = 8u64;
    let (src, top) = (
        fil_designs::systolic::source(n, 32),
        fil_designs::systolic::top_name(n),
    );
    let evals = |level: u8| {
        let netlist = netlist_at(&src, &top, level);
        let mut sim = rtl_sim::BatchSim::new(&netlist, LANES).expect("batchable");
        sim.enable_profile();
        for lane in 0..LANES {
            let salt = u64::from(lane);
            sim.poke_by_name("go", lane, fil_bits::Value::from_u64(1, 1));
            for i in 0..n {
                let left = fil_bits::Value::from_u64(32, 7 + i + salt);
                sim.poke_by_name(&format!("left_{i}"), lane, left);
                let top = fil_bits::Value::from_u64(32, 3 + i + salt);
                sim.poke_by_name(&format!("top_{i}"), lane, top);
            }
        }
        sim.run(200).expect("simulates");
        sim.profile().expect("profiling was enabled").total_evals
    };
    let (e0, e2) = (evals(0), evals(2));
    assert!(
        e2 <= e0,
        "Systolic[8,32]: -O2 evaluates {e2} cells, -O0 {e0}"
    );
}
