//! Hierarchical elaboration: flattening a component tree into a netlist.

use crate::ir::{primitive_ports, CalyxError, CellProto, Component, Names, PortRef, Program, Src};
use rtl_sim::{CellKind, Netlist, PortDir, SignalId};
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
    let names = &top_comp.names;
    let dirs = [
        (&top_comp.inputs, PortDir::Input),
        (&top_comp.outputs, PortDir::Output),
    ];
    for (list, dir) in dirs {
        for &(sym, width) in list {
            let id = ctx.signal(names[sym].to_owned(), width, dir)?;
            ports.push((&names[sym], id, width));
        }
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
    /// Adds a signal, or reports the name as a duplicate.
    fn signal(&mut self, name: String, width: u32, dir: PortDir) -> Result<SignalId, CalyxError> {
        self.netlist
            .try_add_signal(name, width, dir)
            .map_err(|old| {
                CalyxError::Duplicate(format!("signal {}", self.netlist.signal(old).name))
            })
    }

    /// Adds a fresh one-output cell (`prefix$N` under `path`) and returns
    /// its `width`-bit output.
    fn fresh_cell(
        &mut self,
        prefix: &str,
        path: &str,
        kind: CellKind,
        inputs: Vec<SignalId>,
        width: u32,
    ) -> Result<SignalId, CalyxError> {
        self.fresh += 1;
        let name = if path.is_empty() {
            format!("{prefix}${}", self.fresh)
        } else {
            format!("{path}.{prefix}${}", self.fresh)
        };
        let out = self.signal(dotted(&name, "out"), width, PortDir::Internal)?;
        self.netlist.add_cell(name, kind, inputs, vec![out]);
        Ok(out)
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
        let names = &comp.names;
        // Every cell's ports in one table; `cells[sym]` is the range of the
        // cell named `sym`.
        let mut pins: Vec<Pin<'p>> = Vec::new();
        let mut cells: Vec<Option<Range<usize>>> = vec![None; names.len()];

        // Create signals for every cell's ports; recurse into subcomponents.
        for cell in &comp.cells {
            let cell_path = dotted(path, &names[cell.name]);
            let start = pins.len();
            match &cell.proto {
                CellProto::Primitive(kind) => {
                    let (ins, outs) = primitive_ports(kind);
                    for &(pname, w) in ins.iter().chain(&outs) {
                        let id = self.signal(dotted(&cell_path, pname), w, PortDir::Internal)?;
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
                    for &(psym, w) in sub.inputs.iter().chain(&sub.outputs) {
                        let pname = &sub.names[psym];
                        let id = self.signal(dotted(&cell_path, pname), w, PortDir::Internal)?;
                        pins.push((pname, id, w));
                    }
                    stack.push(sub_name);
                    self.instantiate(sub, &cell_path, &pins[start..], stack)?;
                    stack.pop();
                }
            }
            cells[cell.name.index()] = Some(start..pins.len());
        }

        let resolve = |r: &PortRef| -> Result<(SignalId, u32), CalyxError> {
            let ports = match r.cell {
                None => own_ports,
                Some(c) => {
                    &pins[cells[c.index()]
                        .clone()
                        .ok_or_else(|| CalyxError::UnknownCell {
                            component: comp.name.clone(),
                            cell: names[c].to_owned(),
                        })?]
                }
            };
            let port = &names[r.port];
            let pin = ports.iter().find(|(name, ..)| *name == port);
            pin.map(|&(_, id, w)| (id, w))
                .ok_or_else(|| CalyxError::UnknownPort {
                    component: comp.name.clone(),
                    port: names.port(*r),
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
                        self.fresh_cell("const", path, kind, vec![], v.width())?,
                        v.width(),
                    )
                }
            };
            if dst_w != src_w {
                return Err(CalyxError::WidthMismatch {
                    component: comp.name.clone(),
                    site: format!(
                        "{} = {}",
                        names.port(assign.dst),
                        src_text(names, &assign.src)
                    ),
                    dst: dst_w,
                    src: src_w,
                });
            }
            match assign.guard.ports() {
                [] => self.netlist.connect(dst, src),
                ports => {
                    let mut acc: Option<SignalId> = None;
                    for p in ports {
                        let (sig, w) = resolve(p)?;
                        if w != 1 {
                            return Err(CalyxError::WidthMismatch {
                                component: comp.name.clone(),
                                site: format!("guard {}", names.port(*p)),
                                dst: 1,
                                src: w,
                            });
                        }
                        acc = Some(match acc {
                            None => sig,
                            Some(prev) => {
                                let or = CellKind::Or { width: 1 };
                                self.fresh_cell("or", path, or, vec![prev, sig], 1)?
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

/// `src` as width-mismatch diagnostics spell it: the derived `Debug` of a
/// reference by names, or of the constant.
fn src_text(names: &Names, src: &Src) -> String {
    match src {
        Src::Port(p) => format!(
            "Port(PortRef {{ cell: {:?}, port: {:?} }})",
            p.cell.map(|c| &names[c]),
            &names[p.port]
        ),
        Src::Const(v) => format!("Const({v:?})"),
    }
}
