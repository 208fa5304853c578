//! Structural Verilog emission for Calyx-lite programs.
//!
//! The output mirrors the shape of real Calyx's Verilog backend: one module
//! per component, primitive instantiations, and ternary-muxed assignments.
//! It is meant for inspection and for hand-off to external toolchains; our
//! evaluation simulates the elaborated netlist directly.

use crate::ir::{CellProto, Component, Names, PortRef, Program, Src};
use std::fmt::Write as _;

/// Verilog-2005's reserved words, sorted.
#[rustfmt::skip]
const KEYWORDS: [&str; 124] = [
    "always", "and", "assign", "automatic", "begin", "buf", "bufif0", "bufif1", "case", "casex",
    "casez", "cell", "cmos", "config", "deassign", "default", "defparam", "design", "disable",
    "edge", "else", "end", "endcase", "endconfig", "endfunction", "endgenerate", "endmodule",
    "endprimitive", "endspecify", "endtable", "endtask", "event", "for", "force", "forever",
    "fork", "function", "generate", "genvar", "highz0", "highz1", "if", "ifnone", "incdir",
    "include", "initial", "inout", "input", "instance", "integer", "join", "large", "liblist",
    "library", "localparam", "macromodule", "medium", "module", "nand", "negedge", "nmos", "nor",
    "noshowcancelled", "not", "notif0", "notif1", "or", "output", "parameter", "pmos", "posedge",
    "primitive", "pull0", "pull1", "pulldown", "pullup", "pulsestyle_ondetect",
    "pulsestyle_onevent", "rcmos", "real", "realtime", "reg", "release", "repeat", "rnmos",
    "rpmos", "rtran", "rtranif0", "rtranif1", "scalared", "showcancelled", "signed", "small",
    "specify", "specparam", "strong0", "strong1", "supply0", "supply1", "table", "task", "time",
    "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand", "trior", "trireg", "unsigned",
    "use", "uwire", "vectored", "wait", "wand", "weak0", "weak1", "while", "wire", "wor", "xnor",
    "xor",
];

/// Appends the identifier `cell_name` (or `name` off any cell) with the
/// characters Verilog identifiers cannot hold replaced by `_`, and a `_`
/// after a reserved word (an instance named `small`).
fn push_ident(out: &mut String, cell: Option<&str>, name: &str) {
    let start = out.len();
    let chars = cell.into_iter().flat_map(|c| c.chars().chain(['_']));
    out.extend(chars.chain(name.chars()).map(|ch| match ch {
        '.' | '$' | '<' | '>' | '[' | ']' | '#' => '_',
        ch => ch,
    }));
    // `cell_port` spells a reserved word only as `pulsestyle_on…`.
    let lone = cell.is_none_or(|c| c == "pulsestyle");
    if lone && KEYWORDS.binary_search(&&out[start..]).is_ok() {
        out.push('_');
    }
}

/// A cell under the name the user wrote: the fused `x := new C<G>(..)`
/// lowers to cell `x#inst`, written `x`, a name the checker reserves for
/// the invocation (which emits nothing of its own).
fn written(cell: &str) -> &str {
    cell.strip_suffix("#inst").unwrap_or(cell)
}

fn push_port(out: &mut String, names: &Names, p: PortRef) {
    push_ident(out, p.cell.map(|c| written(&names[c])), &names[p.port]);
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
    let names = &comp.names;
    out.push_str("module ");
    push_ident(out, None, &comp.name);
    out.push_str("(\n  input wire clk");
    for (dir, ports) in [("input", &comp.inputs), ("output", &comp.outputs)] {
        for &(n, w) in ports {
            write!(out, ",\n  {dir} wire [{}:0] ", w - 1).unwrap();
            push_ident(out, None, &names[n]);
        }
    }
    out.push_str("\n);\n");

    // Wires for every cell port.
    for cell in &comp.cells {
        let cell_name = written(&names[cell.name]);
        match &cell.proto {
            CellProto::Primitive(kind) => {
                let (ins, outs) = crate::ir::primitive_ports(kind);
                for (p, w) in ins.iter().chain(&outs) {
                    write!(out, "  wire [{}:0] ", w - 1).unwrap();
                    push_ident(out, Some(cell_name), p);
                    out.push_str(";\n");
                }
                write!(out, "  {} #() ", kind.verilog_module()).unwrap();
                push_ident(out, None, cell_name);
                out.push_str(" (");
                for (i, (p, _)) in ins.iter().chain(&outs).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('.');
                    out.push_str(p); // A primitive's pin: never reserved.
                    out.push('(');
                    push_ident(out, Some(cell_name), p);
                    out.push(')');
                }
                out.push_str(");\n");
            }
            CellProto::Component(sub) => {
                out.push_str("  ");
                push_ident(out, None, sub);
                out.push(' ');
                push_ident(out, None, cell_name);
                out.push_str(" (.clk(clk) /* subcomponent ports elided */);\n");
            }
        }
    }

    for assign in &comp.assigns {
        out.push_str("  assign ");
        push_port(out, names, assign.dst);
        out.push_str(" = ");
        let guard = assign.guard.ports();
        if !guard.is_empty() {
            out.push('(');
            for (i, p) in guard.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                push_port(out, names, *p);
            }
            out.push_str(") ? ");
        }
        match &assign.src {
            Src::Port(p) => push_port(out, names, *p),
            Src::Const(v) => write!(out, "{}'h{:x}", v.width(), v).unwrap(),
        }
        out.push_str(if guard.is_empty() { ";\n" } else { " : 'x;\n" });
    }
    out.push_str("endmodule\n");
}
