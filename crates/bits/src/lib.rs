//! Arbitrary-width two-state bit-vector values for RTL simulation.
//!
//! The Filament evaluation simulates compiled hardware with a cycle-accurate
//! netlist simulator (our substitute for Verilator + cocotb). Signals in those
//! netlists range from 1-bit control wires to the 1280-bit AES round-key bus
//! of the PipelineC import (Appendix B.2 of the paper), so the simulator needs
//! a value representation that is correct at any width.
//!
//! [`Value`] is a two-state (0/1, no X/Z) bit vector with an explicit width.
//! All arithmetic is *wrapping* modulo `2^width`, exactly like synthesized
//! unsigned RTL arithmetic.
//!
//! # Examples
//!
//! ```
//! use fil_bits::Value;
//!
//! let a = Value::from_u64(8, 200);
//! let b = Value::from_u64(8, 100);
//! // 8-bit wrapping addition: 300 mod 256 = 44.
//! assert_eq!(a.add(&b).to_u64(), 44);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod lanes;
pub mod limbs;
mod ops;
mod value;

pub use ops::{assert_invariants, concat_fields};
pub use value::{ParseValueError, Value};

#[cfg(test)]
mod tests;
