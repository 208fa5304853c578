//! Cycle-accurate structural RTL simulation.
//!
//! The Filament paper evaluates compiled designs by simulating the generated
//! Verilog with Verilator/cocotb and synthesizing with Vivado. This crate is
//! the simulation substrate of our reproduction: a structural netlist IR of
//! *primitive cells* connected by *guarded assignments* (the same shape as
//! Calyx programs, Section 5.3 of the paper), plus a two-state cycle-accurate
//! simulator. The simulator is one engine over one lane storage (a `u64`
//! arena in the layout of [`fil_bits::lanes`]) and one kernel set, at any
//! signal width: [`Sim`] is the engine at one lane, [`BatchSim`] holds B
//! independent stimulus lanes settled in lockstep. Both run the same
//! settle loop, tick loop, guarded-assign resolver and conflict report, so
//! lane `l` of a batched run is bit-identical to a scalar run of lane `l`'s
//! stimulus. A design whose storage is over [`MAX_WORDS`] is refused before
//! anything is allocated.
//!
//! The primitive cell library ([`CellKind`]) plays the role of the paper's
//! "341 lines of Verilog for the standard library primitives": adders,
//! multiplexers, registers, the `Prev` stream register of Section 7.2, the
//! pipelined/sequential multipliers of Section 2, the `fsm` shift register of
//! Section 5.1, the DSP48E2 model used by the Reticle import, and the AES
//! S-box used by the PipelineC import.
//!
//! Simulation semantics per clock cycle:
//! 1. *Settle*: evaluate all combinational logic in topological order
//!    (combinational cycles are rejected at elaboration).
//! 2. *Observe*: testbench reads outputs, waveforms are recorded.
//! 3. *Tick*: every sequential cell updates its internal state from the
//!    settled signal values.
//!
//! Multiple simultaneously-active guarded assignments to one signal are a
//! *write conflict* — the dynamic counterpart of the type system's
//! conflict-freedom guarantee — and abort simulation with a diagnostic.
//!
//! # Driving protocol: poke, settle, peek, tick
//!
//! A testbench interacts with a [`Sim`] through four verbs whose ordering
//! matters:
//!
//! * **Combinational observation** — `poke → settle → peek`. After
//!   [`Sim::settle`] returns, every signal holds its settled value for the
//!   *current* cycle, so [`Sim::peek`] on a purely combinational path sees
//!   the effect of the poke in the same cycle.
//! * **Registered observation** — `poke → step → settle → peek`.
//!   [`Sim::step`] is settle-then-[`tick`](Sim::tick): the clock edge
//!   captures the settled inputs into sequential state, and the *next*
//!   settle makes that new state visible on register outputs. Peeking a
//!   register output immediately after `step` (without the second settle)
//!   reads a **stale** value: tick invalidates the settled state.
//!
//! The `settled` cache is invalidated by [`Sim::poke`] (even when the poked
//! value is unchanged) and by [`Sim::tick`] (sequential state changed).
//! [`Sim::settle`] on an already-settled simulation is a no-op, and settling
//! twice in a row without an intervening poke/tick is always safe:
//! re-settling never changes any value. [`Sim::run`]`(n)` is exactly `n`
//! repetitions of [`Sim::step`], so after `run` returns the simulation is
//! *not* settled — settle once more before peeking outputs.
//!
//! # Examples
//!
//! ```
//! use fil_bits::Value;
//! use rtl_sim::{CellKind, Netlist, Sim};
//!
//! let mut n = Netlist::new("adder");
//! let a = n.add_input("a", 8);
//! let b = n.add_input("b", 8);
//! let sum = n.add_signal("sum", 8);
//! n.add_cell("add0", CellKind::Add { width: 8 }, vec![a, b], vec![sum]);
//! n.mark_output(sum);
//!
//! let mut sim = Sim::new(&n)?;
//! sim.poke(a, Value::from_u64(8, 30));
//! sim.poke(b, Value::from_u64(8, 12));
//! sim.settle()?;
//! assert_eq!(sim.peek(sum).to_u64(), 42);
//! # Ok::<(), rtl_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

mod cell;
mod engine;
mod graph;
mod names;
mod netlist;
mod profile;
mod sim;
mod wave;

pub use cell::{CellKind, AES_SBOX};
pub use engine::MAX_WORDS;
pub use names::NameIndex;
pub use netlist::{Assign, CellId, CellInst, Netlist, NetlistError, PortDir, Signal, SignalId};
pub use profile::ProfileReport;
pub use sim::{BatchSim, Sim, SimError};
pub use wave::{AsciiWave, VcdWriter};

#[cfg(test)]
mod tests;
