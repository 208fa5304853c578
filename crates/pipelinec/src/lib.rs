//! A miniature PipelineC (Kemmerer — reference `[30]`): an auto-pipelining
//! HLS flow whose generated designs the paper imports in Section 7.1 and
//! Appendix B.2.
//!
//! PipelineC "transforms a C-like language into Verilog", automatically
//! pipelining combinational dataflow to meet a frequency target and
//! printing the resulting latency on the command line. Giving its output a
//! Filament signature is easy precisely because "PipelineC always fully
//! pipelines designs": initiation interval 1, inputs for one cycle,
//! outputs `L` cycles later.
//!
//! This crate reproduces that flow:
//!
//! * [`auto_pipeline`] — the retimer: takes a *combinational* netlist and a
//!   stage count, levelizes it, and inserts pipeline registers so that
//!   every input-to-output path crosses exactly `n` registers,
//! * [`fp_add_netlist`] — the floating-point adder pipelined to the
//!   paper's latency 6 ([`FP_ADD_SIG`]),
//! * [`aes::aes_netlist`] — gate-level AES-128 (10 rounds over a 1280-bit
//!   pre-expanded key bus) pipelined to the paper's latency 18
//!   ([`AES_SIG`]).

pub mod aes;
pub use fil_designs::aes_fil;

use fil_bits::Value;
use fil_harness::{InterfaceSpec, PortSpec};
use rtl_sim::{CellKind, Netlist, SignalId};
use std::collections::HashMap;

/// The Filament signature the paper gives the PipelineC floating-point
/// adder (Appendix B.2).
pub const FP_ADD_SIG: &str = "
extern comp FpAdd<G: 1>(@[G, G+1] my_pipeline_x: 32, @[G, G+1] my_pipeline_y: 32)
    -> (@[G+6, G+7] my_pipeline_return_output: 32);
";

/// The Filament signature the paper gives the PipelineC AES module
/// (Appendix B.2).
pub const AES_SIG: &str = "
extern comp AES<G: 1>(@[G, G+1] state_words: 128, @[G, G+1] keys: 1280)
    -> (@[G+18, G+19] out_words: 128);
";

/// Auto-pipelines a purely combinational netlist into `stages` stages:
/// every input-to-output path crosses exactly `stages` registers, so the
/// result is fully pipelined (initiation interval 1) with latency
/// `stages`.
///
/// # Panics
///
/// Panics if the netlist contains sequential cells or guarded assignments
/// (PipelineC pipelines pure dataflow).
pub fn auto_pipeline(comb: &Netlist, stages: u32) -> Netlist {
    assert!(stages >= 1);
    for cell in comb.cells() {
        assert!(
            !cell.kind.is_sequential(),
            "auto_pipeline input must be combinational (found {})",
            cell.name
        );
    }
    for a in comb.assigns() {
        assert!(a.guard.is_none(), "auto_pipeline input must be unguarded");
    }

    // Levelize: logic depth per signal (cells count 1, assigns 0).
    let n_sigs = comb.signals().len();
    let mut depth = vec![0u32; n_sigs];
    // Bounded relaxation over the DAG.
    for _ in 0..n_sigs.max(1) {
        let mut changed = false;
        for cell in comb.cells() {
            let d = cell
                .inputs
                .iter()
                .map(|s| depth[s.index()])
                .max()
                .unwrap_or(0)
                + 1;
            for &o in &cell.outputs {
                if depth[o.index()] < d {
                    depth[o.index()] = d;
                    changed = true;
                }
            }
        }
        for a in comb.assigns() {
            if depth[a.dst.index()] < depth[a.src.index()] {
                depth[a.dst.index()] = depth[a.src.index()];
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    // Stage of a signal: monotone in depth, in 0 .. stages-1.
    let stage = |sig: SignalId| -> u32 { (depth[sig.index()] * stages) / (max_depth + 1) };

    let mut out = Netlist::new(format!("{}_pipe{stages}", comb.name()));
    // Mirror every signal, then materialize registered copies on demand.
    let mut base: Vec<SignalId> = Vec::with_capacity(n_sigs);
    for (i, sig) in comb.signals().iter().enumerate() {
        let id = if sig.dir == rtl_sim::PortDir::Input {
            out.add_input(sig.name.clone(), sig.width)
        } else {
            out.add_signal(sig.name.clone(), sig.width)
        };
        debug_assert_eq!(id.index(), i);
        base.push(id);
    }
    let mut staged: HashMap<(usize, u32), SignalId> = HashMap::new();
    let mut fresh = 0u32;
    // Registered copy of `sig` as seen at `want` (>= stage(sig)).
    let mut at_stage = |out: &mut Netlist, sig: SignalId, want: u32| -> SignalId {
        let s0 = stage(sig);
        let mut cur = base[sig.index()];
        let mut s = s0;
        while s < want {
            let key = (sig.index(), s + 1);
            cur = *staged.entry(key).or_insert_with(|| {
                fresh += 1;
                let w = comb.signal(sig).width;
                let q = out.add_signal(format!("pipe${fresh}"), w);
                out.add_cell(
                    format!("pipereg${fresh}"),
                    CellKind::Reg {
                        width: w,
                        init: 0,
                        has_en: false,
                    },
                    vec![cur],
                    vec![q],
                );
                q
            });
            s += 1;
        }
        cur
    };

    for cell in comb.cells() {
        let s = cell.outputs.iter().map(|&o| stage(o)).max().unwrap_or(0);
        let inputs = cell
            .inputs
            .iter()
            .map(|&i| at_stage(&mut out, i, s))
            .collect();
        let outputs = cell.outputs.iter().map(|&o| base[o.index()]).collect();
        out.add_cell(cell.name.clone(), cell.kind.clone(), inputs, outputs);
    }
    for a in comb.assigns() {
        let s = stage(a.dst);
        let src = at_stage(&mut out, a.src, s);
        out.connect(base[a.dst.index()], src);
    }
    // Outputs: bridge to the final boundary so latency is exactly `stages`.
    for o in comb.outputs() {
        let w = comb.signal(o).width;
        let inner = base[o.index()];
        // Rename: the inner signal keeps the name; add a registered port.
        let port = out.add_signal(format!("{}$out", comb.signal(o).name), w);
        let bridged = at_stage(&mut out, o, stages);
        let _ = inner;
        out.connect(port, bridged);
        out.mark_output(port);
    }
    out
}

/// The PipelineC floating-point adder: the combinational FP32 adder of
/// `fil-designs`, auto-pipelined to the paper's latency 6.
///
/// # Panics
///
/// Panics only if the embedded design fails to compile (ruled out by the
/// test suites).
pub fn fp_add_netlist() -> Netlist {
    let (comb, _) = fil_designs::build(
        &fil_designs::fp_add::source(fil_designs::fp_add::Style::Combinational),
        "FpAdd",
    )
    .expect("combinational FP adder compiles");
    auto_pipeline(&comb, 6)
}

/// Harness spec for [`fp_add_netlist`], matching [`FP_ADD_SIG`]'s timing.
pub fn fp_add_spec() -> InterfaceSpec {
    InterfaceSpec {
        name: "FpAdd".into(),
        go: None,
        delay: 1,
        inputs: vec![PortSpec::new("x", 32, 0, 1), PortSpec::new("y", 32, 0, 1)],
        outputs: vec![PortSpec::new("out$out", 32, 6, 7)],
    }
}

/// Drives one value through a pipelined netlist and returns the output
/// after `latency` cycles (a convenience for tests and examples).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_once(
    netlist: &Netlist,
    inputs: &[(&str, Value)],
    output: &str,
    latency: u64,
) -> Result<Value, rtl_sim::SimError> {
    let mut sim = rtl_sim::Sim::new(netlist)?;
    for (name, v) in inputs {
        sim.poke_by_name(name, v.clone());
    }
    for _ in 0..latency {
        sim.step()?;
    }
    sim.settle()?;
    Ok(sim.peek_by_name(output).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fil_harness::run_pipelined;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn signatures_parse_with_expected_timing() {
        let p = filament_core::parse_program(FP_ADD_SIG).unwrap();
        let spec = fil_harness::InterfaceSpec::from_signature(&p.externs[0]).unwrap();
        assert_eq!(spec.delay, 1);
        assert_eq!(spec.advertised_latency(), 6);
        let p = filament_core::parse_program(AES_SIG).unwrap();
        let spec = fil_harness::InterfaceSpec::from_signature(&p.externs[0]).unwrap();
        assert_eq!(spec.advertised_latency(), 18);
        assert_eq!(spec.inputs[1].width, 1280);
    }

    #[test]
    fn pipeliner_preserves_function_and_sets_latency() {
        // A toy dataflow: out = (a + b) * (a - b), 3 levels deep, cut into
        // 4 stages.
        let mut n = Netlist::new("toy");
        let a = n.add_input("a", 16);
        let b = n.add_input("b", 16);
        let s = n.add_signal("s", 16);
        let d = n.add_signal("d", 16);
        let p = n.add_signal("p", 16);
        n.add_cell("add", CellKind::Add { width: 16 }, vec![a, b], vec![s]);
        n.add_cell("sub", CellKind::Sub { width: 16 }, vec![a, b], vec![d]);
        n.add_cell("mul", CellKind::MulComb { width: 16 }, vec![s, d], vec![p]);
        n.mark_output(p);

        let piped = auto_pipeline(&n, 4);
        let out = run_once(
            &piped,
            &[
                ("a", Value::from_u64(16, 20)),
                ("b", Value::from_u64(16, 3)),
            ],
            "p$out",
            4,
        )
        .unwrap();
        assert_eq!(out.to_u64(), 23 * 17);
        // Fully pipelined: new inputs every cycle.
        let spec = InterfaceSpec {
            name: "toy".into(),
            go: None,
            delay: 1,
            inputs: vec![PortSpec::new("a", 16, 0, 1), PortSpec::new("b", 16, 0, 1)],
            outputs: vec![PortSpec::new("p$out", 16, 4, 5)],
        };
        let inputs: Vec<Vec<Value>> = (1..=6u64)
            .map(|k| vec![Value::from_u64(16, 10 * k), Value::from_u64(16, k)])
            .collect();
        let outs = run_pipelined(&piped, &spec, &inputs).unwrap();
        let got: Vec<u64> = outs.iter().map(|o| o[0].to_u64()).collect();
        let want: Vec<u64> = (1..=6u64).map(|k| (11 * k) * (9 * k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn pipeliner_rejects_sequential_cells() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a", 8);
        let q = n.add_signal("q", 8);
        n.add_cell(
            "r",
            CellKind::Reg {
                width: 8,
                init: 0,
                has_en: false,
            },
            vec![a],
            vec![q],
        );
        let _ = auto_pipeline(&n, 2);
    }

    #[test]
    fn fp_add_pipelined_to_latency_6_matches_golden() {
        let netlist = fp_add_netlist();
        let spec = fp_add_spec();
        let mut rng = StdRng::seed_from_u64(3);
        let cases: Vec<(u32, u32)> = (0..60)
            .map(|_| {
                let f = |rng: &mut StdRng| {
                    let sign = rng.random::<bool>() as u32;
                    let exp = rng.random_range(60u32..=190);
                    let mant = rng.random::<u32>() & 0x7f_ffff;
                    (sign << 31) | (exp << 23) | mant
                };
                (f(&mut rng), f(&mut rng))
            })
            .collect();
        let inputs: Vec<Vec<Value>> = cases
            .iter()
            .map(|&(a, b)| vec![Value::from_u64(32, a as u64), Value::from_u64(32, b as u64)])
            .collect();
        let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
        for (i, &(a, b)) in cases.iter().enumerate() {
            assert_eq!(
                outs[i][0].to_u64() as u32,
                fil_designs::fp_add::golden(a, b),
                "case {i}: {a:08x} + {b:08x}"
            );
        }
    }

    #[test]
    fn fp_add_latency_is_exactly_six() {
        // Registers on every path: the result appears at cycle 6, not
        // before and not after (for distinct consecutive inputs).
        let netlist = fp_add_netlist();
        let spec = fp_add_spec();
        let a = 1.5f32.to_bits();
        let b = 2.25f32.to_bits();
        let inputs = vec![vec![
            Value::from_u64(32, a as u64),
            Value::from_u64(32, b as u64),
        ]];
        let expected = vec![vec![Value::from_u64(
            32,
            fil_designs::fp_add::golden(a, b) as u64,
        )]];
        let found =
            fil_harness::discover_latency(&netlist, &spec, &inputs, &expected, 12, 1).unwrap();
        assert_eq!(found, Some(6));
    }
}
