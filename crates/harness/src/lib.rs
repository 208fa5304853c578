//! The generic cycle-accurate test harness of Section 7.1.
//!
//! The paper's harness (built on cocotb) does three things, all driven by
//! the Filament signature alone:
//!
//! 1. provides the inputs for **exactly** the cycles specified in a
//!    component's interface — and *poison* otherwise, which is how the
//!    Aetherling interface bug is caught ("The Aetherling test harness does
//!    not catch this bug because it always asserts all inputs for 9
//!    cycles"),
//! 2. **pipelines** the execution: a new transaction is launched every
//!    `delay` cycles, and
//! 3. captures output port values in the intervals given by the signature.
//!
//! On top of transaction driving this crate provides *latency discovery*
//! ("we change the latency till we get the right answer", Section 7.1),
//! *delay discovery* (the minimum initiation interval at which pipelined
//! outputs stay correct), and a differential fuzzer (Appendix B.1's FP
//! adder methodology).

mod discover;
pub mod fuzz;
pub mod interp;
mod spec;
mod txn;

pub use discover::{discover_latency, discover_min_delay};
pub use fuzz::{fuzz_against_golden, fuzz_equivalent, Mismatch};
pub use spec::{InterfaceSpec, PortSpec, SpecError};
pub use txn::{HarnessError, Transaction};

use fil_bits::Value;
use rtl_sim::Netlist;
use std::sync::Arc;

/// Compiles a [`fil_build::BuildRequest`] against the standard library
/// down to a flat netlist plus the harness-facing interface spec of its
/// top component. The request must name a top via
/// [`fil_build::BuildRequest::netlist`]; repeated compiles of identical
/// sources share one elaborated netlist through the process-wide cache.
///
/// # Errors
///
/// Returns a human-readable message for parse, check, lowering,
/// elaboration, or spec-extraction failures.
///
/// # Examples
///
/// ```
/// use fil_build::BuildRequest;
/// use fil_harness::compile_request;
///
/// let (netlist, spec) = compile_request(&BuildRequest::new(
///     "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
///        a := new Add[8]<G>(x, x);
///        o = a.out;
///      }",
/// )
/// .netlist("Main"))?;
/// assert_eq!(spec.delay, 1);
/// assert_eq!(netlist.name(), "Main");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_request(
    req: &fil_build::BuildRequest,
) -> Result<(Arc<Netlist>, InterfaceSpec), String> {
    finish_request(req, None)
}

/// [`compile_request`] lowering through a custom primitive registry (used
/// by designs whose externs map onto generated cells, e.g. the Reticle
/// DSP cascade). Set a distinguishing [`fil_build::BuildRequest::salt`]
/// when combining a custom registry with an artifact cache.
///
/// # Errors
///
/// As [`compile_request`].
pub fn compile_request_with(
    req: &fil_build::BuildRequest,
    registry: &dyn filament_core::PrimitiveRegistry,
) -> Result<(Arc<Netlist>, InterfaceSpec), String> {
    finish_request(req, Some(registry))
}

fn finish_request(
    req: &fil_build::BuildRequest,
    registry: Option<&dyn filament_core::PrimitiveRegistry>,
) -> Result<(Arc<Netlist>, InterfaceSpec), String> {
    let top = req
        .want_netlist
        .clone()
        .ok_or_else(|| "compile_request needs BuildRequest::netlist(top)".to_string())?;
    // The signature comes from the expanded program, so force it on.
    let req = req.clone().expanded(true);
    let out = match registry {
        None => fil_stdlib::build(&req),
        Some(r) => fil_stdlib::build_with_registry(&req, r),
    }
    .map_err(|e| e.to_string())?;
    let netlist = out.netlist.expect("netlist was requested");
    let expanded = out.expanded.expect("expanded was requested");
    let sig = expanded
        .sig(&top)
        .ok_or_else(|| format!("unknown component {top}"))?;
    let spec = InterfaceSpec::from_signature(sig).map_err(|e| e.to_string())?;
    Ok((netlist, spec))
}

/// Runs `inputs` through the design as fully pipelined transactions (one
/// every `spec.delay` cycles) and returns the captured outputs per
/// transaction.
///
/// Convenience wrapper over [`Transaction`] driving; see that type for the
/// exact protocol.
///
/// # Errors
///
/// Propagates [`HarnessError`].
pub fn run_pipelined(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
) -> Result<Vec<Vec<Value>>, HarnessError> {
    txn::run_transactions(netlist, spec, inputs, spec.delay)
}
