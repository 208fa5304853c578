//! Latency and initiation-interval discovery.
//!
//! Section 7.1's methodology for Table 1: "We give each design a type
//! signature and validate its outputs. For designs with mismatched outputs,
//! we change the latency till we get the right answer." Discovery automates
//! that loop: drive the design per its input spec, record the raw output
//! trace, and search for the latency (and minimum initiation interval) at
//! which every transaction's expected output appears.

use crate::spec::InterfaceSpec;
use crate::txn::{build_plan, run_transactions, simulate_plan, HarnessError};
use fil_bits::Value;
use rtl_sim::Netlist;

/// Finds the cycle offset `d` such that for every transaction `k` (launched
/// at `k * period`), every output port carries `expected[k]` at cycle
/// `k * period + d`. Returns the smallest such `d ≤ max_latency`.
///
/// Inputs are driven exactly per `spec` (with poison outside the declared
/// windows), so a design whose real interface needs inputs for longer than
/// the spec claims will produce garbage — which is how the paper exposes
/// Aetherling's under-reported latencies *and* its too-narrow input
/// intervals.
///
/// # Errors
///
/// Returns a [`HarnessError`] for driving problems; `Ok(None)` when no
/// latency matches.
pub fn discover_latency(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    expected: &[Vec<Value>],
    max_latency: u64,
    period: u64,
) -> Result<Option<u64>, HarnessError> {
    assert_eq!(
        inputs.len(),
        expected.len(),
        "one expected output row per transaction"
    );
    if inputs.is_empty() {
        return Ok(Some(0));
    }
    let period = period.max(1);
    let plan = build_plan(spec, inputs, period, max_latency)?;
    // Record the full trace of every output port.
    let mut traces: Vec<Vec<Value>> = vec![Vec::new(); spec.outputs.len()];
    {
        let traces = &mut traces;
        simulate_plan(netlist, spec, &plan, |_t, sim, output_ids| {
            for (trace, &id) in traces.iter_mut().zip(output_ids) {
                trace.push(sim.peek(id).clone());
            }
        })?;
    }
    let total = traces[0].len() as u64;
    'candidate: for d in 0..=max_latency {
        for (k, want) in expected.iter().enumerate() {
            let t = k as u64 * period + d;
            if t >= total {
                continue 'candidate;
            }
            for (j, port) in spec.outputs.iter().enumerate() {
                if traces[j][t as usize] != want[j].resize(port.width) {
                    continue 'candidate;
                }
            }
        }
        return Ok(Some(d));
    }
    Ok(None)
}

/// Finds the smallest initiation interval at which fully pipelined
/// transactions still all produce their expected outputs.
///
/// This measures the event delay of Section 3.1 empirically: e.g. the
/// underutilized 1/9-throughput Aetherling conv2d only works at intervals
/// of 9 cycles or more.
///
/// # Errors
///
/// Returns a [`HarnessError`] only for infrastructure problems (missing
/// ports); candidate intervals that fail simply advance the search.
/// `Ok(None)` when even `max_delay` does not work.
pub fn discover_min_delay(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    expected: &[Vec<Value>],
    max_delay: u64,
) -> Result<Option<u64>, HarnessError> {
    for period in 1..=max_delay {
        match run_transactions(netlist, spec, inputs, period) {
            Ok(outs) => {
                let all_match = outs.len() == expected.len()
                    && outs.iter().zip(expected).all(|(got, want)| {
                        got.iter().zip(want).all(|(g, w)| *g == w.resize(g.width()))
                    });
                if all_match {
                    return Ok(Some(period));
                }
            }
            // Overlapping windows or unstable outputs just mean this
            // interval is too small.
            Err(HarnessError::InterfaceOverlap { .. })
            | Err(HarnessError::UnstableOutput { .. })
            | Err(HarnessError::Sim(rtl_sim::SimError::WriteConflict { .. })) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}
