//! The Filament designs of the paper's evaluation (Sections 2, 7.2 and
//! Appendix B.1), written against the standard library and compiled/tested
//! through the generic harness:
//!
//! * [`alu`] — the Section 2 walkthrough: the buggy ALU, the sequential
//!   fix, and the fully pipelined version with `FastMult`,
//! * [`divider`] — Figure 2's area–throughput trade-off: combinational,
//!   pipelined, and iterative 8-bit restoring dividers,
//! * [`conv2d`] — Section 7.2's convolution kernels: the base design with
//!   pipelined multipliers and the Reticle DSP-cascade design (Table 2),
//! * [`systolic`] — Appendix B.1's matrix-multiply systolic array, grown
//!   into the parametric generator family `Systolic[N, W]` (`for`-generate
//!   grid, packed lane buses, one monomorphized PE),
//! * [`shift`] — a parametric delay line `Chain[W, D]` whose stages are
//!   scheduled at `G+i` by the generate loop,
//! * [`encoder`] — a priority encoder `Enc[N, some W = log2(N)]` whose
//!   output width is a *derived* parameter the caller reads back (`e.W`),
//! * [`fp_add`] — Appendix B.1's IEEE-754 single-precision adder:
//!   combinational, 5-stage pipelined, and the stage-crossing bug that the
//!   type checker catches,
//! * [`wsum`] — naively-generated weighted-sum kernels (zero/unit/shift
//!   coefficients, duplicated neighbour products, padded boundaries): the
//!   corpus `fil-opt` is measured against.
//! * [`aes_fil`] — Appendix B.2's PipelineC AES import written as
//!   Filament source, `R` unrolled rounds at one cycle each.
//!
//! [`corpus`] lists every design above as (name, source, top): the corpus
//! the pinned suites iterate.

pub mod aes_fil;
pub mod alu;
pub mod conv2d;
pub mod divider;
pub mod encoder;
pub mod fp_add;
pub mod shift;
pub mod systolic;
pub mod wsum;

use fil_build::BuildRequest;
use fil_harness::InterfaceSpec;
use rtl_sim::Netlist;
use std::sync::Arc;

/// Compiles a design (standard library + the given source) to a netlist and
/// interface spec for its top component. Identical sources share one
/// elaborated netlist through the process-wide cache.
///
/// # Errors
///
/// Returns a human-readable message on parse/check/lowering failure.
pub fn build(source: &str, top: &str) -> Result<(Arc<Netlist>, InterfaceSpec), String> {
    fil_harness::compile_request(&BuildRequest::new(source).netlist(top))
}

/// Like [`build`] but with a custom registry (used by the Reticle design,
/// whose `Tdot` extern is a generated DSP cascade).
///
/// # Errors
///
/// Returns a human-readable message on parse/check/lowering failure.
pub fn build_with(
    source: &str,
    top: &str,
    registry: &dyn filament_core::PrimitiveRegistry,
) -> Result<(Arc<Netlist>, InterfaceSpec), String> {
    fil_harness::compile_request_with(&BuildRequest::new(source).netlist(top), registry)
}

/// Every Filament design in the repository, as (name, source, top): the
/// corpus that the golden, printer, back-end, checker and optimizer pins
/// and the compile-time claim iterate. Order, names and sources are part
/// of those pins.
pub fn corpus() -> Vec<(String, String, &'static str)> {
    use fp_add::{source as fp, Style};
    vec![
        (
            "alu-sequential".into(),
            alu::source(alu::ALU_SEQUENTIAL),
            "ALU",
        ),
        (
            "alu-pipelined".into(),
            alu::source(alu::ALU_PIPELINED),
            "ALU",
        ),
        ("div-comb".into(), divider::comb_source(), "DivComb"),
        ("div-pipe".into(), divider::pipelined_source(), "DivPipe"),
        ("div-iter".into(), divider::iterative_source(), "DivIter"),
        ("conv2d".into(), conv2d::base_source(), "Conv2d"),
        (
            "conv2d-reticle".into(),
            conv2d::reticle_source(),
            "Conv2dReticle",
        ),
        // Generator-produced designs at several sizes: one parametric
        // source each, monomorphized per entry.
        ("systolic-2".into(), systolic::source(2, 32), "Sys2"),
        ("systolic-4".into(), systolic::source(4, 32), "Sys4"),
        ("systolic-8".into(), systolic::source(8, 32), "Sys8"),
        ("chain-8x16".into(), shift::source(8, 16), "Chain8x16"),
        // Derived-parameter designs: the encoder's output width is
        // `some W = log2(N)` and the wrapper reads it back as `e.W`.
        ("encoder-8".into(), encoder::source(8), "EncTop8"),
        ("encoder-16".into(), encoder::source(16), "EncTop16"),
        // The tap-bundle wrapper: per-index availability windows survive
        // flattening into the spec.
        ("chain-taps-8x4".into(), shift::taps_source(8, 4), "Taps8x4"),
        ("alu-param-16".into(), alu::param_source(16), "Alu16"),
        ("fp-add-comb".into(), fp(Style::Combinational), "FpAdd"),
        ("fp-add-pipe".into(), fp(Style::Pipelined), "FpAdd"),
        // Naively-generated kernels: the redundancy-heavy style (zero/unit
        // coefficients, duplicated neighbour products, padded boundaries)
        // that `fil-opt` exists to clean up — `-O2` must shed well over a
        // quarter of their cells (pinned in the harness's opt_counts.txt).
        ("wsum-naive-8".into(), wsum::naive_source(16), "WSum8"),
        (
            "stencil-naive-8".into(),
            wsum::stencil_source(8, 16),
            "Stencil8",
        ),
        // The PipelineC AES import expressed as Filament source (two
        // rounds keeps the snapshot reviewable; the full ten-round core
        // is differential-tested in `pipelinec`).
        ("aes-fil-2".into(), aes_fil::source(2), "AesFil2"),
    ]
}
