//! Determinism matrix for the simulator's throughput engine: batched lanes
//! must be observably identical to the scalar engine — values,
//! `was_driven` flags, and errors, cycle by cycle — over the paper's
//! divider and systolic designs.

use fil_bits::Value;
use rtl_sim::{BatchSim, Netlist, Sim, SimError};

/// Deterministic per-(seed, cycle, input) stimulus: a splitmix64 hash, so
/// every engine can regenerate the identical stream independently.
fn stim(seed: u64, t: u64, i: u64, width: u32) -> Value {
    let mut x =
        seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Hold most inputs near-constant between every fifth cycle so change
    // propagation actually skips work (stressing the dirty bookkeeping).
    let raw = if t.is_multiple_of(5) { x } else { x & 1 };
    Value::from_u64(64.min(width), raw).resize(width)
}

/// One cycle of observable state: every signal's value and driven flag.
type CycleObs = Vec<(Value, bool)>;
/// A full run: per-cycle observations, or the cycle and error that ended it.
type Trace = Result<Vec<CycleObs>, (u64, SimError)>;

fn scalar_trace(netlist: &Netlist, mut sim: Sim<'_>, cycles: u64, seed: u64) -> Trace {
    let inputs: Vec<_> = netlist.inputs().collect();
    let mut out = Vec::new();
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            sim.poke(sig, stim(seed, t, i as u64, netlist.signal(sig).width));
        }
        if let Err(e) = sim.settle() {
            return Err((t, e));
        }
        out.push(
            (0..netlist.signals().len())
                .map(|s| {
                    let id = netlist.signal_by_name(&netlist.signals()[s].name).unwrap();
                    (sim.peek(id).clone(), sim.was_driven(id))
                })
                .collect(),
        );
        sim.tick().unwrap();
    }
    Ok(out)
}

/// Runs a batched sim where lane `l` carries the stimulus of `seeds[l]`,
/// returning one trace per lane (all lanes share the error, if any).
fn batch_traces(
    netlist: &Netlist,
    mut sim: BatchSim<'_>,
    cycles: u64,
    seeds: &[u64],
) -> Vec<Trace> {
    let inputs: Vec<_> = netlist.inputs().collect();
    let lanes = seeds.len();
    let mut out: Vec<Vec<CycleObs>> = vec![Vec::new(); lanes];
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            let w = netlist.signal(sig).width;
            for (l, &seed) in seeds.iter().enumerate() {
                sim.poke(sig, l as u32, stim(seed, t, i as u64, w));
            }
        }
        if let Err(e) = sim.settle() {
            return (0..lanes).map(|_| Err((t, e.clone()))).collect();
        }
        for (l, trace) in out.iter_mut().enumerate() {
            trace.push(
                (0..netlist.signals().len())
                    .map(|s| {
                        let id = netlist.signal_by_name(&netlist.signals()[s].name).unwrap();
                        (sim.peek(id, l as u32), sim.was_driven(id, l as u32))
                    })
                    .collect(),
            );
        }
        sim.tick().unwrap();
    }
    out.into_iter().map(Ok).collect()
}

fn assert_traces_equal(netlist: &Netlist, a: &Trace, b: &Trace, what: &str) {
    match (a, b) {
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{what}: errors diverge"),
        (Ok(ta), Ok(tb)) => {
            assert_eq!(ta.len(), tb.len(), "{what}: trace lengths diverge");
            for (t, (ca, cb)) in ta.iter().zip(tb).enumerate() {
                for (s, (oa, ob)) in ca.iter().zip(cb).enumerate() {
                    assert_eq!(
                        oa,
                        ob,
                        "{what}: cycle {t}, signal {} diverges",
                        netlist.signals()[s].name
                    );
                }
            }
        }
        _ => panic!("{what}: one engine errored, the other did not: {a:?} vs {b:?}"),
    }
}

fn build(source: &str, top: &str) -> std::sync::Arc<Netlist> {
    fil_designs::build(source, top).unwrap().0
}

#[test]
fn batch_lanes_match_scalar_divider() {
    let n = build(&fil_designs::divider::pipelined_source(), "DivPipe");
    let seeds: Vec<u64> = (0..8).map(|l| 0x1234 + l).collect();
    let batched = batch_traces(&n, BatchSim::new(&n, 8).unwrap(), 48, &seeds);
    for (l, (seed, bt)) in seeds.iter().zip(&batched).enumerate() {
        let st = scalar_trace(&n, Sim::new(&n).unwrap(), 48, *seed);
        assert_traces_equal(&n, &st, bt, &format!("DivPipe lane {l}"));
    }
}

#[test]
fn batch_lanes_match_scalar_systolic() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let seeds: Vec<u64> = (0..4).map(|l| 0x9999 + l).collect();
    let batched = batch_traces(&n, BatchSim::new(&n, 4).unwrap(), 24, &seeds);
    for (l, (seed, bt)) in seeds.iter().zip(&batched).enumerate() {
        let st = scalar_trace(&n, Sim::new(&n).unwrap(), 24, *seed);
        assert_traces_equal(&n, &st, bt, &format!("Sys4 lane {l}"));
    }
}

#[test]
fn batch_lanes_match_scalar_ragged_tail() {
    // 67 lanes: two plane words plus a ragged tail, exercising the
    // tail-masking invariant of bit-sliced planes.
    let n = build(&fil_designs::divider::comb_source(), "DivComb");
    let seeds: Vec<u64> = (0..67).map(|l| 0x4242 + l).collect();
    let batched = batch_traces(&n, BatchSim::new(&n, 67).unwrap(), 24, &seeds);
    for (l, (seed, bt)) in seeds.iter().zip(&batched).enumerate() {
        let st = scalar_trace(&n, Sim::new(&n).unwrap(), 24, *seed);
        assert_traces_equal(&n, &st, bt, &format!("DivComb lane {l}"));
    }
}
