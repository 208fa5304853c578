//! A lightweight reimplementation of the Calyx intermediate language.
//!
//! Filament compiles to Calyx (Nigam et al., ASPLOS 2021 — reference `[40]`
//! of the paper), whose programs are *components* containing *cells* and
//! *guarded assignments* (`A.left = Gf._0 ? a`). This crate reproduces the
//! structural subset of Calyx that Filament targets (the paper's Figure 6
//! output has an empty `control` section — statically scheduled designs need
//! no control program), plus:
//!
//! * well-formedness checking (port resolution, width agreement, the
//!   "only one guard active per destination" discipline left to runtime),
//! * hierarchical **elaboration** into a flat [`rtl_sim::Netlist`] for
//!   simulation, and
//! * structural Verilog emission for inspection.
//!
//! # Examples
//!
//! ```
//! use calyx_lite::{Component, Program};
//! use rtl_sim::CellKind;
//!
//! let mut c = Component::new("main");
//! c.add_input("a", 8);
//! c.add_input("b", 8);
//! c.add_output("out", 8);
//! c.add_primitive("add0", CellKind::Add { width: 8 });
//! c.assign(("add0", "left"), "a");
//! c.assign(("add0", "right"), "b");
//! c.assign("out", ("add0", "out"));
//! // Each name is stored once, in the component's symbol table; cells,
//! // ports and assignments refer to it by `Sym`.
//! assert_eq!(c.names.len(), 6);
//! let calyx_lite::Src::Port(read) = c.assigns[2].src else { unreachable!() };
//! assert_eq!(c.names.port(read), "add0.out");
//!
//! let mut p = Program::new();
//! p.add_component(c);
//! let netlist = p.elaborate("main")?;
//! assert_eq!(netlist.cells().len(), 1);
//! # Ok::<(), calyx_lite::CalyxError>(())
//! ```

// Widths, state counts and length prefixes come from user input: narrowing
// one must go through `u32::try_from` and fail with a diagnostic, or state
// the invariant that bounds it, never wrap.
#![deny(clippy::cast_possible_truncation)]

mod elaborate;
mod ir;
pub mod serial;
mod verilog;

pub use elaborate::elaborate;
pub use ir::{
    primitive_ports, Assign, CalyxError, Cell, CellProto, Component, Guard, IntoPort, IntoSrc,
    Names, PortRef, Program, Src, Sym, MAX_FSM_STATES,
};
pub use serial::{decode_component, decode_netlist, encode_component, encode_netlist, DecodeError};
pub use verilog::emit_program;

#[cfg(test)]
mod tests;
