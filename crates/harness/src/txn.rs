//! Interval-exact transaction driving.

use crate::spec::{InterfaceSpec, PortSpec};
use fil_bits::Value;
use rtl_sim::{Netlist, SignalId, Sim, SimError};
use std::fmt;

/// Errors raised while driving a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The simulator failed (write conflict, combinational loop, …).
    Sim(SimError),
    /// Two pipelined transactions need different values on one physical
    /// port in the same cycle — the interface cannot be driven at this
    /// initiation interval (Section 2.4's `op` problem, observed
    /// dynamically).
    InterfaceOverlap {
        /// The port.
        port: String,
        /// The cycle of the clash.
        cycle: u64,
    },
    /// An output changed value inside its declared availability window.
    UnstableOutput {
        /// The port.
        port: String,
        /// Transaction index.
        txn: usize,
    },
    /// A transaction supplied the wrong number of input values.
    Arity {
        /// Transaction index.
        txn: usize,
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// The spec references a port missing from the netlist.
    MissingPort(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sim(e) => write!(f, "simulation failed: {e}"),
            HarnessError::InterfaceOverlap { port, cycle } => write!(
                f,
                "transactions overlap on port {port} in cycle {cycle}; the interface \
                 cannot be pipelined at this initiation interval"
            ),
            HarnessError::UnstableOutput { port, txn } => write!(
                f,
                "output {port} changed during its availability window in transaction {txn}"
            ),
            HarnessError::Arity { txn, expected, got } => write!(
                f,
                "transaction {txn}: expected {expected} input values, got {got}"
            ),
            HarnessError::MissingPort(p) => write!(f, "netlist has no port named {p}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}

/// The result of one pipelined transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The cycle the transaction was launched.
    pub start_cycle: u64,
    /// Captured output values, in [`InterfaceSpec::outputs`] order.
    pub outputs: Vec<Value>,
}

/// A poison value: deterministic per (port, cycle) garbage driven outside
/// declared availability windows. A design that reads its inputs outside
/// the advertised intervals computes visibly wrong results — this is how
/// the harness catches the Aetherling underutilized-design interface bug
/// (Section 7.1).
pub(crate) fn poison(width: u32, port_idx: usize, cycle: u64) -> Value {
    let x = (cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (port_idx as u64) ^ 0xa5a5_a5a5_a5a5_a5a5;
    Value::from_u64(64, x).resize(width)
}

/// The drive plan: per cycle, per input port index, the value on the wire.
pub(crate) struct DrivePlan {
    /// `plan[cycle][input_idx]`: `Some(value)` when a transaction owns the
    /// port that cycle; `None` means poison.
    pub plan: Vec<Vec<Option<Value>>>,
    /// Cycles at which `go` pulses.
    pub go_cycles: Vec<u64>,
    pub total_cycles: u64,
}

pub(crate) fn build_plan(
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    period: u64,
    extra_cycles: u64,
) -> Result<DrivePlan, HarnessError> {
    let period = period.max(1);
    let n = inputs.len() as u64;
    let last_start = n.saturating_sub(1) * period;
    let total_cycles = last_start + spec.horizon() + extra_cycles + 1;
    let mut plan: Vec<Vec<Option<Value>>> =
        vec![vec![None; spec.inputs.len()]; total_cycles as usize];
    let mut go_cycles = Vec::new();
    for (k, txn) in inputs.iter().enumerate() {
        if txn.len() != spec.inputs.len() {
            return Err(HarnessError::Arity {
                txn: k,
                expected: spec.inputs.len(),
                got: txn.len(),
            });
        }
        let t0 = k as u64 * period;
        go_cycles.push(t0);
        for (i, port) in spec.inputs.iter().enumerate() {
            let value = txn[i].resize(port.width);
            for t in (t0 + port.start)..(t0 + port.end) {
                let slot = &mut plan[t as usize][i];
                match slot {
                    None => *slot = Some(value.clone()),
                    Some(existing) if *existing == value => {}
                    Some(_) => {
                        return Err(HarnessError::InterfaceOverlap {
                            port: port.name.clone(),
                            cycle: t,
                        })
                    }
                }
            }
        }
    }
    Ok(DrivePlan {
        plan,
        go_cycles,
        total_cycles,
    })
}

/// Runs the plan, invoking `observe` after each cycle's combinational
/// settle with the cycle and the resolved ids of `spec.outputs`.
pub(crate) fn simulate_plan(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    plan: &DrivePlan,
    mut observe: impl FnMut(u64, &Sim<'_>, &[SignalId]),
) -> Result<(), HarnessError> {
    // Resolve ports up front.
    let resolve = |name: &str| {
        netlist
            .signal_by_name(name)
            .ok_or_else(|| HarnessError::MissingPort(name.to_string()))
    };
    let input_ids: Vec<_> = spec
        .inputs
        .iter()
        .map(|p| resolve(&p.name))
        .collect::<Result<_, _>>()?;
    let go_id = spec.go.as_deref().map(resolve).transpose()?;
    let output_ids: Vec<_> = spec
        .outputs
        .iter()
        .map(|p| resolve(&p.name))
        .collect::<Result<_, _>>()?;

    let mut sim = Sim::new(netlist)?;
    let mut next_go = plan.go_cycles.iter().peekable();
    for t in 0..plan.total_cycles {
        for (i, port) in spec.inputs.iter().enumerate() {
            let v = match &plan.plan[t as usize][i] {
                Some(v) => v.clone(),
                None => poison(port.width, i, t),
            };
            sim.poke(input_ids[i], v);
        }
        if let Some(go) = go_id {
            let pulse = next_go.peek().is_some_and(|&&g| g == t);
            if pulse {
                next_go.next();
            }
            sim.poke(go, Value::from_bool(pulse));
        }
        sim.settle()?;
        observe(t, &sim, &output_ids);
        sim.tick()?;
    }
    Ok(())
}

/// The transactions `k < n` whose window `[k * period + port.start,
/// k * period + port.end)` holds cycle `t`, as a half-open range.
fn txns_in_window(t: u64, port: &PortSpec, period: u64, n: usize) -> std::ops::Range<usize> {
    let lo = (t + 1).saturating_sub(port.end).div_ceil(period);
    let hi = t
        .checked_sub(port.start)
        .map_or(0, |d| (d / period + 1).min(n as u64));
    lo as usize..hi as usize
}

/// Drives `inputs` as transactions launched every `period` cycles and
/// captures each transaction's outputs during their declared windows.
///
/// Each cycle visits only the transactions whose window holds it. The
/// first sample of each (transaction, output) is kept, and later samples
/// are compared with it in place; a window that holds no simulated cycle
/// captures zero.
///
/// # Errors
///
/// Returns a [`HarnessError`] on interface overlap, simulator faults,
/// unstable outputs, or arity problems. A simulator fault anywhere in the
/// run wins over unstable outputs, and of those the lowest (transaction,
/// output) is reported.
pub fn run_transactions(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    period: u64,
) -> Result<Vec<Vec<Value>>, HarnessError> {
    let plan = build_plan(spec, inputs, period, 0)?;
    let period = period.max(1);
    let (n, n_out) = (inputs.len(), spec.outputs.len());

    // First sample and stability per (txn, output), at `txn * n_out + j`.
    let mut first: Vec<Option<Value>> = vec![None; n * n_out];
    let mut unstable = vec![false; n * n_out];
    simulate_plan(netlist, spec, &plan, |t, sim, output_ids| {
        for (j, (port, &id)) in spec.outputs.iter().zip(output_ids).enumerate() {
            let value = sim.peek(id);
            for k in txns_in_window(t, port, period, n) {
                let slot = k * n_out + j;
                match &first[slot] {
                    None => first[slot] = Some(value.clone()),
                    Some(seen) => unstable[slot] |= *seen != value,
                }
            }
        }
    })?;

    if let Some(slot) = unstable.iter().position(|&u| u) {
        return Err(HarnessError::UnstableOutput {
            port: spec.outputs[slot % n_out].name.clone(),
            txn: slot / n_out,
        });
    }
    let mut first = first.into_iter();
    Ok((0..n)
        .map(|_| {
            spec.outputs
                .iter()
                .zip(first.by_ref())
                .map(|(port, v)| v.unwrap_or_else(|| Value::zero(port.width)))
                .collect()
        })
        .collect())
}
