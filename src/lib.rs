//! # filament-repro
//!
//! A from-scratch Rust reproduction of *Modular Hardware Design with
//! Timeline Types* (Nigam, Azevedo de Amorim, Sampson — PLDI 2023): the
//! Filament hardware description language, its timeline type system, its
//! compiler, and the paper's complete evaluation, including every substrate
//! the evaluation depends on (an RTL simulator standing in for Verilator, a
//! cycle-accurate harness standing in for cocotb, an analytical synthesis
//! model standing in for Vivado, and miniature Aetherling / Reticle /
//! PipelineC generators).
//!
//! This umbrella crate re-exports the workspace members under stable names
//! and hosts the runnable examples and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use filament_repro::build::BuildRequest;
//! use filament_repro::harness::{compile_request, run_pipelined};
//!
//! // A pipelined multiply-add written in Filament.
//! let (netlist, spec) = compile_request(
//!     &BuildRequest::new(
//!         "comp MulAdd<G: 1>(@interface[G] go: 1, @[G, G+1] a: 8, @[G, G+1] b: 8,
//!              @[G+2, G+3] c: 8) -> (@[G+2, G+3] o: 8) {
//!            m := new FastMult[8]<G>(a, b);
//!            s := new Add[8]<G+2>(m.out, c);
//!            o = s.out;
//!          }",
//!     )
//!     .netlist("MulAdd"),
//! )?;
//! let v = |w, x| filament_repro::bits::Value::from_u64(w, x);
//! let outs = run_pipelined(&netlist, &spec, &[vec![v(8, 6), v(8, 7), v(8, 8)]])?;
//! assert_eq!(outs[0][0].to_u64(), 50); // 6*7 + 8
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Map of the workspace
//!
//! * [`lang`] — the Filament language: AST, parser, type checker
//!   (Section 4), log semantics (Section 6), compiler (Section 5),
//! * [`build`] — the content-addressed build driver: per-component compile
//!   units scheduled in parallel over the monomorph DAG, with a
//!   cross-session artifact cache (`filament build`),
//! * [`stdlib`] — timeline-typed extern signatures + primitive registry,
//! * [`calyx`] — the Calyx-lite IR Filament compiles to,
//! * [`sim`] — the structural netlist and cycle-accurate simulator,
//! * [`bits`] — arbitrary-width two-state values,
//! * [`solver`] — difference-logic entailment for interval obligations,
//! * [`trace`] — structured spans, counters, and Chrome-trace timelines
//!   for the driver and simulator (`--trace` / `--profile`),
//! * [`harness`] — interval-exact driving, latency discovery, fuzzing
//!   (Section 7.1),
//! * [`area`] — the LUT/DSP/register and f_max model (Table 2),
//! * [`designs`] — the paper's Filament designs (ALU, dividers, conv2d,
//!   systolic array, FP adder),
//! * [`aetherling_import`], [`reticle_import`], [`pipelinec_import`] — the
//!   three generator substrates the evaluation imports designs from.

pub use calyx_lite as calyx;
pub use fil_area as area;
pub use fil_bits as bits;
pub use fil_build as build;
pub use fil_designs as designs;
pub use fil_harness as harness;
pub use fil_opt as opt;
pub use fil_solver as solver;
pub use fil_stdlib as stdlib;
pub use fil_trace as trace;
pub use filament_core as lang;
pub use rtl_sim as sim;

pub use aetherling as aetherling_import;
pub use pipelinec as pipelinec_import;
pub use reticle as reticle_import;
