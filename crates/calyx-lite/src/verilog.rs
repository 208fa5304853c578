//! Structural Verilog emission for Calyx-lite programs.
//!
//! The output mirrors the shape of real Calyx's Verilog backend: one module
//! per component, primitive instantiations, and ternary-muxed assignments.
//! It is meant for inspection and for hand-off to external toolchains; our
//! evaluation simulates the elaborated netlist directly.

use crate::ir::{CellProto, Component, Guard, PortRef, Program, Src};
use std::fmt::Write as _;

/// Appends the identifier `cell_name` (or `name` off any cell) with the
/// characters Verilog identifiers cannot hold replaced by `_`.
fn push_ident(out: &mut String, cell: Option<&str>, name: &str) {
    let chars = cell.into_iter().flat_map(|c| c.chars().chain(['_']));
    out.extend(chars.chain(name.chars()).map(|ch| match ch {
        '.' | '$' | '<' | '>' | '[' | ']' => '_',
        ch => ch,
    }));
}

fn push_port(out: &mut String, p: &PortRef) {
    push_ident(out, p.cell.as_deref(), &p.port);
}

/// Emits all components of a program as Verilog modules.
pub fn emit_program(program: &Program) -> String {
    let mut out = String::new();
    for comp in program.components() {
        emit_component(comp, &mut out);
        out.push('\n');
    }
    out
}

fn emit_component(comp: &Component, out: &mut String) {
    out.push_str("module ");
    push_ident(out, None, &comp.name);
    out.push_str("(\n  input wire clk");
    for (dir, ports) in [("input", &comp.inputs), ("output", &comp.outputs)] {
        for (n, w) in ports {
            write!(out, ",\n  {dir} wire [{}:0] ", w - 1).unwrap();
            push_ident(out, None, n);
        }
    }
    out.push_str("\n);\n");

    // Wires for every cell port.
    for cell in &comp.cells {
        match &cell.proto {
            CellProto::Primitive(kind) => {
                let (ins, outs) = crate::ir::primitive_ports(kind);
                for (p, w) in ins.iter().chain(&outs) {
                    write!(out, "  wire [{}:0] ", w - 1).unwrap();
                    push_ident(out, Some(&cell.name), p);
                    out.push_str(";\n");
                }
                write!(out, "  {} #() ", kind.verilog_module()).unwrap();
                push_ident(out, None, &cell.name);
                out.push_str(" (");
                for (i, (p, _)) in ins.iter().chain(&outs).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('.');
                    push_ident(out, None, p);
                    out.push('(');
                    push_ident(out, Some(&cell.name), p);
                    out.push(')');
                }
                out.push_str(");\n");
            }
            CellProto::Component(sub) => {
                out.push_str("  ");
                push_ident(out, None, sub);
                out.push(' ');
                push_ident(out, None, &cell.name);
                out.push_str(" (.clk(clk) /* subcomponent ports elided */);\n");
            }
        }
    }

    for assign in &comp.assigns {
        out.push_str("  assign ");
        push_port(out, &assign.dst);
        out.push_str(" = ");
        let guard: &[PortRef] = match &assign.guard {
            Guard::Any(ports) => ports,
            Guard::True => &[],
        };
        if !guard.is_empty() {
            out.push('(');
            for (i, p) in guard.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                push_port(out, p);
            }
            out.push_str(") ? ");
        }
        match &assign.src {
            Src::Port(p) => push_port(out, p),
            Src::Const(v) => write!(out, "{}'h{:x}", v.width(), v).unwrap(),
        }
        out.push_str(if guard.is_empty() { ";\n" } else { " : 'x;\n" });
    }
    out.push_str("endmodule\n");
}
