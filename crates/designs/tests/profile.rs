//! Acceptance tests for the simulator profiler (`Sim::enable_profile` /
//! `BatchSim::enable_profile`): under force-full settles the scalar and
//! batched engines count exactly the same evals, cell-kind by cell-kind,
//! and batch profiles report lane occupancy.

use fil_bits::Value;
use rtl_sim::{BatchSim, Netlist, ProfileReport, Sim};

fn build(source: &str, top: &str) -> std::sync::Arc<Netlist> {
    fil_designs::build(source, top).unwrap().0
}

/// Deterministic per-(cycle, input) stimulus (splitmix64 hash).
fn stim(t: u64, i: u64, width: u32) -> Value {
    let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Value::from_u64(64.min(width), x ^ (x >> 31)).resize(width)
}

fn run_profiled(
    netlist: &Netlist,
    mut sim: Sim<'_>,
    cycles: u64,
    force_full: bool,
) -> ProfileReport {
    sim.set_force_full_settle(force_full);
    sim.enable_profile();
    let inputs: Vec<_> = netlist.inputs().collect();
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            sim.poke(sig, stim(t, i as u64, netlist.signal(sig).width));
        }
        sim.settle().unwrap();
        sim.tick().unwrap();
    }
    sim.profile().expect("profiling was enabled")
}

/// Drives a batched sim with every lane carrying the same stimulus as
/// [`run_profiled`]'s scalar run.
fn run_profiled_batch(
    netlist: &Netlist,
    mut sim: BatchSim<'_>,
    cycles: u64,
    force_full: bool,
) -> ProfileReport {
    sim.set_force_full_settle(force_full);
    sim.enable_profile();
    let inputs: Vec<_> = netlist.inputs().collect();
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            sim.poke_all(sig, stim(t, i as u64, netlist.signal(sig).width));
        }
        sim.settle().unwrap();
        sim.tick().unwrap();
    }
    sim.profile().expect("profiling was enabled")
}

/// Systolic[8, 32]. Under force-full settles every engine evaluates every
/// cell once per settle — the batch `Reg` fast path skips the eval stamp
/// but is visit-counted once per settle — so `BatchSim`'s total and
/// per-CellKind counts equal `Sim`'s exactly.
#[test]
fn systolic8_batch_totals_match_scalar() {
    let n = build(&fil_designs::systolic::source(8, 32), "Sys8");
    let cycles = 24;
    let reference = run_profiled(&n, Sim::new(&n).unwrap(), cycles, false);
    assert_eq!(reference.settles, cycles);
    assert_eq!(reference.ticks, cycles);
    assert!(reference.total_evals > 0);
    let ff_reference = run_profiled(&n, Sim::new(&n).unwrap(), cycles, true);
    assert_eq!(
        ff_reference.total_evals,
        n.cells().len() as u64 * cycles,
        "force-full: every cell, every settle"
    );

    let ff = run_profiled_batch(&n, BatchSim::new(&n, 67).unwrap(), cycles, true);
    assert_eq!(
        ff.total_evals, ff_reference.total_evals,
        "force-full: batch eval total diverges from scalar"
    );
    assert_eq!(
        ff.kind_evals, ff_reference.kind_evals,
        "force-full: per-CellKind totals diverge from scalar"
    );
    assert_eq!(ff.settles, cycles);
    assert_eq!(ff.ticks, cycles);
    assert_eq!(ff.lanes_poked, 67);

    // Change-propagating: every lane carries the scalar run's stimulus, so
    // the batch engine dirties and re-evaluates exactly the same cells.
    let batch = run_profiled_batch(&n, BatchSim::new(&n, 67).unwrap(), cycles, false);
    assert_eq!(batch.total_evals, reference.total_evals);
    assert_eq!(batch.kind_evals, reference.kind_evals);
    assert_eq!(batch.settles, cycles);
    assert_eq!(batch.ticks, cycles);
}

/// Force-full settles evaluate every cell once per settle, so the totals
/// are exactly `cells × settles` — and still engine-independent.
#[test]
fn force_full_totals_are_exact() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let cycles = 8;
    let mut seq = Sim::new(&n).unwrap();
    seq.set_force_full_settle(true);
    seq.enable_profile();
    let mut batch = BatchSim::new(&n, 3).unwrap();
    batch.set_force_full_settle(true);
    batch.enable_profile();
    let inputs: Vec<_> = n.inputs().collect();
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            let v = stim(t, i as u64, n.signal(sig).width);
            seq.poke(sig, v.clone());
            batch.poke_all(sig, v);
        }
        seq.settle().unwrap();
        batch.settle().unwrap();
        seq.tick().unwrap();
        batch.tick().unwrap();
    }
    let rs = seq.profile().unwrap();
    let rb = batch.profile().unwrap();
    assert_eq!(rs.total_evals, n.cells().len() as u64 * cycles);
    assert_eq!(rb.total_evals, rs.total_evals);
    assert_eq!(rb.kind_evals, rs.kind_evals);
}

/// A never-profiled sim exposes no report; enabling mid-run starts
/// counting from that point.
#[test]
fn profile_is_opt_in() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let mut sim = Sim::new(&n).unwrap();
    assert!(sim.profile().is_none());
    sim.settle().unwrap();
    sim.tick().unwrap();
    sim.enable_profile();
    sim.settle().unwrap();
    sim.tick().unwrap();
    let report = sim.profile().unwrap();
    assert_eq!(report.ticks, 1, "counting starts at enable_profile()");
    assert_eq!(report.lanes, 1);
    assert_eq!(report.lanes_poked, 1);
}

/// Batch profiles report lane occupancy: only poked lanes count, and
/// `poke_all` marks every lane.
#[test]
fn batch_profile_reports_lane_occupancy() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let mut sim = BatchSim::new(&n, 67).unwrap();
    sim.enable_profile();
    let inputs: Vec<_> = n.inputs().collect();
    for t in 0..4u64 {
        for (i, &sig) in inputs.iter().enumerate() {
            let w = n.signal(sig).width;
            // Drive three scattered lanes, leaving the rest idle.
            for lane in [0u32, 13, 66] {
                sim.poke(sig, lane, stim(t, i as u64, w));
            }
        }
        sim.settle().unwrap();
        sim.tick().unwrap();
    }
    let report = sim.profile().unwrap();
    assert_eq!(report.lanes, 67);
    assert_eq!(report.lanes_poked, 3);
    assert_eq!(report.settles, 4);
    assert_eq!(report.ticks, 4);
    assert!(report.total_evals > 0);
    let json = report.to_json();
    assert!(json.contains("\"lanes\": 67"), "{json}");
    assert!(json.contains("\"lanes_poked\": 3"), "{json}");

    // poke_all floods the occupancy mask.
    let mut sim = BatchSim::new(&n, 67).unwrap();
    sim.enable_profile();
    let sig = n.inputs().next().unwrap();
    sim.poke_all(
        sig,
        Value::from_u64(n.signal(sig).width, 1).resize(n.signal(sig).width),
    );
    assert_eq!(sim.profile().unwrap().lanes_poked, 67);
}
