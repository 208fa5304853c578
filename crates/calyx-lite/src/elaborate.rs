//! Hierarchical elaboration: flattening a component tree into a netlist.

use crate::ir::{primitive_ports, CalyxError, CellProto, Component, Guard, PortRef, Program, Src};
use rtl_sim::{CellKind, Netlist, SignalId};
use std::collections::HashMap;
use std::ops::Range;

/// Flattens the hierarchy rooted at `top` into a simulatable
/// [`rtl_sim::Netlist`].
///
/// Top-level component ports become netlist inputs/outputs under their bare
/// names; nested signals are named hierarchically (`sub.add0.out`).
///
/// # Errors
///
/// Returns a [`CalyxError`] for unresolved references, width mismatches, or
/// recursive instantiation.
pub fn elaborate(program: &Program, top: &str) -> Result<Netlist, CalyxError> {
    let top_comp = program
        .component(top)
        .ok_or_else(|| CalyxError::UnknownComponent(top.to_owned()))?;
    let mut ctx = Ctx {
        program,
        netlist: Netlist::new(top),
        fresh: 0,
    };
    // Top-level ports.
    let mut ports = Vec::with_capacity(top_comp.inputs.len() + top_comp.outputs.len());
    for (name, width) in &top_comp.inputs {
        let id = ctx.netlist.add_input(name.as_str(), *width);
        ports.push((name.as_str(), id, *width));
    }
    for (name, width) in &top_comp.outputs {
        let id = ctx.netlist.add_signal(name.as_str(), *width);
        ctx.netlist.mark_output(id);
        ports.push((name.as_str(), id, *width));
    }
    ctx.instantiate(top_comp, "", &ports, &mut vec![top_comp.name.as_str()])?;
    Ok(ctx.netlist)
}

struct Ctx<'p> {
    program: &'p Program,
    netlist: Netlist,
    fresh: u64,
}

/// A port, `(name, signal, width)`; a cell has a handful, found by a scan.
type Pin<'p> = (&'p str, SignalId, u32);

/// `base.rest`, or `rest` alone at the top level, allocated once.
fn dotted(base: &str, rest: &str) -> String {
    let mut name = String::with_capacity(base.len() + 1 + rest.len());
    if !base.is_empty() {
        name.push_str(base);
        name.push('.');
    }
    name.push_str(rest);
    name
}

impl<'p> Ctx<'p> {
    /// Adds a fresh one-output cell (`prefix$N` under `path`) and returns
    /// its `width`-bit output.
    fn fresh_cell(
        &mut self,
        prefix: &str,
        path: &str,
        kind: CellKind,
        inputs: Vec<SignalId>,
        width: u32,
    ) -> SignalId {
        self.fresh += 1;
        let name = if path.is_empty() {
            format!("{prefix}${}", self.fresh)
        } else {
            format!("{path}.{prefix}${}", self.fresh)
        };
        let out = self.netlist.add_signal(dotted(&name, "out"), width);
        self.netlist.add_cell(name, kind, inputs, vec![out]);
        out
    }

    /// Instantiates `comp` at hierarchical prefix `path` whose own ports are
    /// pre-created in `own_ports`; `stack` holds the components being
    /// instantiated, outermost first.
    fn instantiate(
        &mut self,
        comp: &'p Component,
        path: &str,
        own_ports: &[Pin<'p>],
        stack: &mut Vec<&'p str>,
    ) -> Result<(), CalyxError> {
        // Every cell's ports in one table; each cell name maps to its range.
        let mut pins: Vec<Pin<'p>> = Vec::new();
        let mut cells: HashMap<&'p str, Range<usize>> = HashMap::with_capacity(comp.cells.len());

        // Create signals for every cell's ports; recurse into subcomponents.
        for cell in &comp.cells {
            let cell_path = dotted(path, &cell.name);
            let start = pins.len();
            match &cell.proto {
                CellProto::Primitive(kind) => {
                    let (ins, outs) = primitive_ports(kind);
                    for &(pname, w) in ins.iter().chain(&outs) {
                        let id = self.netlist.add_signal(dotted(&cell_path, pname), w);
                        pins.push((pname, id, w));
                    }
                    let ids = |r: Range<usize>| pins[r].iter().map(|p| p.1).collect();
                    let split = start + ins.len();
                    let (in_ids, out_ids) = (ids(start..split), ids(split..pins.len()));
                    self.netlist
                        .add_cell(cell_path, kind.clone(), in_ids, out_ids);
                }
                CellProto::Component(sub_name) => {
                    if stack.contains(&sub_name.as_str()) {
                        return Err(CalyxError::RecursiveComponent(sub_name.clone()));
                    }
                    let sub = self
                        .program
                        .component(sub_name)
                        .ok_or_else(|| CalyxError::UnknownComponent(sub_name.clone()))?;
                    for (pname, w) in sub.inputs.iter().chain(&sub.outputs) {
                        let id = self.netlist.add_signal(dotted(&cell_path, pname), *w);
                        pins.push((pname, id, *w));
                    }
                    stack.push(sub_name);
                    self.instantiate(sub, &cell_path, &pins[start..], stack)?;
                    stack.pop();
                }
            }
            cells.insert(&cell.name, start..pins.len());
        }

        let resolve = |r: &PortRef| -> Result<(SignalId, u32), CalyxError> {
            let ports = match &r.cell {
                None => own_ports,
                Some(c) => {
                    &pins[cells.get(c.as_str()).cloned().ok_or_else(|| {
                        CalyxError::UnknownCell {
                            component: comp.name.clone(),
                            cell: c.clone(),
                        }
                    })?]
                }
            };
            let pin = ports.iter().find(|(name, ..)| *name == r.port);
            pin.map(|&(_, id, w)| (id, w))
                .ok_or_else(|| CalyxError::UnknownPort {
                    component: comp.name.clone(),
                    port: r.to_string(),
                })
        };

        // Wire up the assignments.
        for assign in &comp.assigns {
            let (dst, dst_w) = resolve(&assign.dst)?;
            let (src, src_w) = match &assign.src {
                Src::Port(p) => resolve(p)?,
                Src::Const(v) => {
                    let kind = CellKind::Const { value: v.clone() };
                    (
                        self.fresh_cell("const", path, kind, vec![], v.width()),
                        v.width(),
                    )
                }
            };
            if dst_w != src_w {
                return Err(CalyxError::WidthMismatch {
                    component: comp.name.clone(),
                    site: format!("{} = {:?}", assign.dst, assign.src),
                    dst: dst_w,
                    src: src_w,
                });
            }
            match &assign.guard {
                Guard::True => self.netlist.connect(dst, src),
                Guard::Any(ports) if ports.is_empty() => self.netlist.connect(dst, src),
                Guard::Any(ports) => {
                    let mut acc: Option<SignalId> = None;
                    for p in ports {
                        let (sig, w) = resolve(p)?;
                        if w != 1 {
                            return Err(CalyxError::WidthMismatch {
                                component: comp.name.clone(),
                                site: format!("guard {p}"),
                                dst: 1,
                                src: w,
                            });
                        }
                        acc = Some(match acc {
                            None => sig,
                            Some(prev) => {
                                let or = CellKind::Or { width: 1 };
                                self.fresh_cell("or", path, or, vec![prev, sig], 1)
                            }
                        });
                    }
                    self.netlist
                        .connect_guarded(dst, src, acc.expect("nonempty guard"));
                }
            }
        }
        Ok(())
    }
}
