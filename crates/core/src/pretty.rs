//! Pretty-printing Filament programs back to surface syntax.
//!
//! The printer emits exactly the grammar [`crate::parser`] accepts, so
//! `parse ∘ print` is the identity on ASTs — a property checked by the
//! round-trip tests in `tests/roundtrip.rs`. Every item is written straight
//! into one output buffer; the public `print_*` functions wrap it.

use crate::ast::{
    Command, Component, ConstExpr, ConstraintOp, Delay, IName, PortDef, Program, Signature,
};
use std::collections::HashMap;
use std::fmt::{Display, Write as _};

/// Renders a full program.
pub fn print_program(p: &Program) -> String {
    print_items(p.externs.iter(), &p.components)
}

/// Renders `extern` declarations followed by components, exactly as
/// [`print_program`] renders a program holding them — without the caller
/// having to assemble one.
pub fn print_items<'a>(
    externs: impl IntoIterator<Item = &'a Signature>,
    components: impl IntoIterator<Item = &'a Component>,
) -> String {
    let mut out = String::new();
    for sig in externs {
        out.push_str("extern ");
        write_signature(&mut out, sig);
        out.push_str(";\n");
    }
    for comp in components {
        write_component(&mut out, comp);
    }
    out
}

/// Renders a component with its body. Fused `x := new C<G>(…)` forms (the
/// parser desugars them into an instance named `x#inst` plus an invocation
/// `x`) are re-fused on printing, so output is always re-parseable;
/// `for`-generate bodies print nested with increasing indentation.
pub fn print_component(c: &Component) -> String {
    let mut out = String::new();
    write_component(&mut out, c);
    out
}

/// Renders a signature (without a trailing `;` or body).
pub fn print_signature(sig: &Signature) -> String {
    let mut out = String::new();
    write_signature(&mut out, sig);
    out
}

/// Renders a single command.
pub fn print_command(cmd: &Command) -> String {
    let mut out = String::new();
    write_command(&mut out, cmd, 0);
    out.pop(); // The line's newline.
    out
}

fn write_component(out: &mut String, c: &Component) {
    write_signature(out, &c.sig);
    out.push_str(" {\n");
    write_commands(out, &c.body, 1);
    out.push_str("}\n");
}

/// Writes `items` separated by `", "`.
fn write_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
}

fn write_display_list(out: &mut String, items: &[impl Display]) {
    write_list(out, items, |out, x| {
        let _ = write!(out, "{x}");
    });
}

/// `[p, q]`, or nothing for an empty parameter list.
fn write_params(out: &mut String, params: &[ConstExpr]) {
    if !params.is_empty() {
        out.push('[');
        write_display_list(out, params);
        out.push(']');
    }
}

/// True when `instance` is the parser-generated fused partner of the
/// invocation named `name`: same indices, base suffixed with `#inst`.
fn is_fused_pair(name: &IName, instance: &IName) -> bool {
    instance.base.strip_suffix("#inst") == Some(name.base.as_str()) && instance.idx == name.idx
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_commands(out: &mut String, cmds: &[Command], depth: usize) {
    // Fused instances at this nesting level, keyed by name.
    let mut fused: HashMap<&IName, (&str, &[ConstExpr])> = HashMap::new();
    for cmd in cmds {
        if let Command::Instance {
            name,
            component,
            params,
        } = cmd
        {
            if name.base.ends_with("#inst") {
                fused.insert(name, (component, params));
            }
        }
    }
    for cmd in cmds {
        match cmd {
            Command::Instance { name, .. } if name.base.ends_with("#inst") => continue,
            Command::Invoke {
                name,
                instance,
                events,
                args,
            } if is_fused_pair(name, instance) && fused.contains_key(instance) => {
                let (component, params) = fused[instance];
                indent(out, depth);
                let _ = write!(out, "{name} := new {component}");
                write_params(out, params);
                out.push('<');
                write_display_list(out, events);
                out.push_str(">(");
                write_display_list(out, args);
                out.push_str(");\n");
            }
            other => write_command(out, other, depth),
        }
    }
}

/// Writes one command as an indented line (a generate block as its
/// header, nested body and closing line).
fn write_command(out: &mut String, cmd: &Command, depth: usize) {
    indent(out, depth);
    match cmd {
        Command::Instance {
            name,
            component,
            params,
        } => {
            let _ = write!(out, "{name} := new {component}");
            write_params(out, params);
            out.push_str(";\n");
        }
        Command::Invoke {
            name,
            instance,
            events,
            args,
        } => {
            let _ = write!(out, "{name} := {instance}<");
            write_display_list(out, events);
            out.push_str(">(");
            write_display_list(out, args);
            out.push_str(");\n");
        }
        Command::Connect { dst, src } => {
            let _ = writeln!(out, "{dst} = {src};");
        }
        Command::ForGen { var, lo, hi, body } => {
            let _ = writeln!(out, "for {var} in {lo}..{hi} {{");
            write_commands(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Command::IfGen {
            lhs,
            op,
            rhs,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "if {lhs} {op} {rhs} {{");
            write_commands(out, then_body, depth + 1);
            indent(out, depth);
            if !else_body.is_empty() {
                out.push_str("} else {\n");
                write_commands(out, else_body, depth + 1);
                indent(out, depth);
            }
            out.push_str("}\n");
        }
    }
}

fn write_signature(out: &mut String, sig: &Signature) {
    let _ = write!(out, "comp {}", sig.name);
    if !sig.params.is_empty() {
        out.push('[');
        write_display_list(out, &sig.params);
        out.push(']');
    }
    out.push('<');
    write_list(out, &sig.events, |out, e| {
        let _ = match &e.delay {
            Delay::Const(n) => write!(out, "{}: {n}", e.name),
            Delay::Diff(a, b) if b.offset == ConstExpr::Lit(0) => {
                write!(out, "{}: {a}-{}", e.name, b.event)
            }
            Delay::Diff(a, b) => write!(out, "{}: {a}-({b})", e.name),
        };
    });
    out.push_str(">(");
    write_list(out, &sig.interfaces, |out, i| {
        let _ = write!(out, "@interface[{}] {}: 1", i.event, i.name);
    });
    if !sig.interfaces.is_empty() && !sig.inputs.is_empty() {
        out.push_str(", ");
    }
    write_list(out, &sig.inputs, write_port);
    out.push_str(") -> (");
    write_list(out, &sig.outputs, write_port);
    out.push(')');
    if !sig.constraints.is_empty() {
        out.push_str(" where ");
        write_list(out, &sig.constraints, |out, c| {
            let op = match c.op {
                ConstraintOp::Gt => ">",
                ConstraintOp::Ge => ">=",
                ConstraintOp::Eq => "==",
            };
            let _ = write!(out, "{} {op} {}", c.lhs, c.rhs);
        });
    }
}

fn write_port(out: &mut String, p: &PortDef) {
    let _ = write!(
        out,
        "@[{}, {}] {}",
        p.liveness.start, p.liveness.end, p.name
    );
    if let Some(b) = &p.bundle {
        let _ = write!(out, "{b}");
    }
    let _ = write!(out, ": {}", p.width);
}
