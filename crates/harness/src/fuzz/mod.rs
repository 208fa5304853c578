//! Differential fuzzing (Appendix B.1).
//!
//! The paper validates its floating-point adder translation by
//! "differential testing of the combinational, pipelined, and Filament
//! implementations" with a fuzzer on top of the cycle-accurate harness.
//! This module holds that input-level fuzzer ([`fuzz_against_golden`],
//! [`fuzz_equivalent`]) plus the *generative* fuzzer built on it:
//!
//! * [`gen`] — seeded generation of well-formed-by-construction parametric
//!   Filament programs,
//! * [`oracle`] — the multi-stage cross-check pipeline run over each
//!   generated program (pretty→parse fixpoint, build determinism,
//!   interpreter-vs-simulator lockstep, scalar vs batch, `-O2`-optimized
//!   vs `-O0` netlist lockstep),
//! * [`shrink`] — AST-level reduction of failing programs to minimal
//!   `.fil` repros,
//! * [`run_fuzz`] — the driver behind `filament fuzz`.

pub mod gen;
pub mod oracle;
pub mod run;
pub mod shrink;

pub use run::{run_fuzz, FuzzConfig, FuzzFailure, FuzzStats};

use crate::spec::InterfaceSpec;
use crate::txn::run_transactions;
use fil_bits::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl_sim::Netlist;
use std::fmt;

/// A counterexample found by fuzzing. The display line alone is enough to
/// reproduce the failure: it names the component, the fuzz seed, and the
/// transaction index within the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The component under test.
    pub component: String,
    /// The seed of the fuzz batch that provoked the mismatch.
    pub seed: u64,
    /// Transaction index within the fuzz batch.
    pub case: usize,
    /// The inputs provoking the mismatch.
    pub inputs: Vec<Value>,
    /// What the design produced.
    pub got: Vec<Value>,
    /// What the reference produced.
    pub want: Vec<Value>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "component {} seed {} case {}: inputs {:?} produced {:?}, expected {:?}",
            self.component, self.seed, self.case, self.inputs, self.got, self.want
        )
    }
}

pub(crate) fn random_inputs(spec: &InterfaceSpec, cases: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cases)
        .map(|_| {
            spec.inputs
                .iter()
                .map(|p| {
                    let limbs: Vec<u64> = (0..p.width.div_ceil(64))
                        .map(|_| rng.random::<u64>())
                        .collect();
                    Value::from_limbs(p.width, &limbs)
                })
                .collect()
        })
        .collect()
}

/// Fuzzes a design against a software golden model, pipelined at the
/// spec's delay.
///
/// # Errors
///
/// Returns the driving error or the first [`Mismatch`].
pub fn fuzz_against_golden(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    golden: impl Fn(&[Value]) -> Vec<Value>,
    cases: usize,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let inputs = random_inputs(spec, cases, seed);
    let outs = run_transactions(netlist, spec, &inputs, spec.delay)?;
    for (case, (input, got)) in inputs.iter().zip(&outs).enumerate() {
        let want: Vec<Value> = golden(input)
            .into_iter()
            .zip(&spec.outputs)
            .map(|(v, p)| v.resize(p.width))
            .collect();
        if *got != want {
            return Err(Box::new(MismatchError(Mismatch {
                component: spec.name.clone(),
                seed,
                case,
                inputs: input.clone(),
                got: got.clone(),
                want,
            })));
        }
    }
    Ok(())
}

/// Fuzzes two designs against each other (same input ports, possibly
/// different latencies — each is driven per its own spec).
///
/// # Errors
///
/// Returns the driving error or the first [`Mismatch`].
pub fn fuzz_equivalent(
    a: (&Netlist, &InterfaceSpec),
    b: (&Netlist, &InterfaceSpec),
    cases: usize,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let inputs = random_inputs(a.1, cases, seed);
    let outs_a = run_transactions(a.0, a.1, &inputs, a.1.delay)?;
    let outs_b = run_transactions(b.0, b.1, &inputs, b.1.delay)?;
    for (case, (input, (ga, gb))) in inputs.iter().zip(outs_a.iter().zip(&outs_b)).enumerate() {
        if ga != gb {
            return Err(Box::new(MismatchError(Mismatch {
                component: a.1.name.clone(),
                seed,
                case,
                inputs: input.clone(),
                got: ga.clone(),
                want: gb.clone(),
            })));
        }
    }
    Ok(())
}

/// Wrapper making [`Mismatch`] an error type.
#[derive(Debug)]
pub(crate) struct MismatchError(pub(crate) Mismatch);

impl fmt::Display for MismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "differential mismatch: {}", self.0)
    }
}

impl std::error::Error for MismatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_display_names_component_seed_and_case() {
        let m = Mismatch {
            component: "FzTop".into(),
            seed: 3863,
            case: 3,
            inputs: vec![Value::from_u64(8, 5)],
            got: vec![Value::from_u64(8, 1)],
            want: vec![Value::from_u64(8, 2)],
        };
        let line = m.to_string();
        // The log line alone must identify the repro: component, seed, case.
        assert!(line.contains("component FzTop"), "{line}");
        assert!(line.contains("seed 3863"), "{line}");
        assert!(line.contains("case 3"), "{line}");
    }
}
