//! Compilation (Section 5): Filament → Low Filament → Calyx.
//!
//! The compiler reifies each non-phantom event as a pipelined shift-register
//! FSM (`fsm F[n](go)`, Section 5.1), triggers invocation interface ports
//! from FSM states (`A.go = Gf._0 || Gf._2`), and synthesizes disjoint
//! guards for data-port assignments from the required availability intervals
//! (`A.left = Gf._s || … || Gf._{e-1} ? src`, Section 5.2). Phantom events
//! produce no FSM and unguarded wires (Section 5.4), so continuous pipelines
//! compile to exactly the circuit an expert would write.
//!
//! Well-typedness (run [`crate::check_program`] first) guarantees the
//! synthesized guards are disjoint, which the simulator additionally
//! re-checks dynamically ([`rtl_sim::SimError::WriteConflict`]).

use crate::ast::{
    written, Command, Component, ConstEvalError, Id, Port, Program, Range, Signature, Time,
};
use calyx_lite as cl;
use fil_bits::Value;
use rtl_sim::CellKind;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Maps extern component names (plus const parameters) to primitive cells.
///
/// The standard library implements this for its externs; the port names of
/// the returned [`CellKind`] (per [`calyx_lite::primitive_ports`]) must match
/// the extern signature's port names. Registries are shared by the build
/// driver's worker threads, hence `Sync`.
pub trait PrimitiveRegistry: Sync {
    /// The cell implementing extern `name` with the given parameter values,
    /// or `None` if the extern is unknown.
    ///
    /// # Errors
    ///
    /// [`ParamTooLarge`] when a parameter does not fit the cell field it
    /// sets (narrow with [`param_u32`]).
    fn primitive(&self, name: &str, params: &[u64]) -> Result<Option<CellKind>, ParamTooLarge>;

    /// A structural implementation for externs that are whole sub-circuits
    /// rather than single cells — e.g. the Reticle-generated DSP cascade of
    /// Section 7.2, imported as an `extern comp Tdot`. Consulted only when
    /// [`PrimitiveRegistry::primitive`] returns `None`. The component's port
    /// names must match the extern signature's.
    ///
    /// # Errors
    ///
    /// As [`PrimitiveRegistry::primitive`].
    fn structural(
        &self,
        name: &str,
        params: &[u64],
    ) -> Result<Option<cl::Component>, ParamTooLarge> {
        let _ = (name, params);
        Ok(None)
    }
}

/// An extern parameter too large for the cell field it sets; `lower`
/// reports it as [`LowerError::TooLarge`] against the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamTooLarge {
    /// The parameter's position in the extern's value list.
    pub index: usize,
}

/// Parameter `index` of `params` narrowed to `u32`, or `default` when the
/// list is shorter.
///
/// # Errors
///
/// [`ParamTooLarge`] when the value does not fit in 32 bits.
pub fn param_u32(params: &[u64], index: usize, default: u32) -> Result<u32, ParamTooLarge> {
    params.get(index).map_or(Ok(default), |&v| {
        u32::try_from(v).map_err(|_| ParamTooLarge { index })
    })
}

/// Errors raised during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The requested top component does not exist.
    UnknownComponent(String),
    /// An extern has no primitive implementation in the registry.
    NoPrimitive {
        /// The extern's name.
        name: String,
    },
    /// The extern signature's port names do not match the primitive's.
    PortMismatch {
        /// The extern's name.
        name: String,
        /// The offending port.
        port: String,
    },
    /// A width or parameter did not evaluate to a constant.
    NonConstant {
        /// The enclosing component.
        component: String,
        /// Where it happened.
        site: String,
        /// The unresolved parameter, when the failure is an unbound
        /// parameter (as opposed to an arithmetic error).
        param: Option<String>,
        /// The underlying evaluation failure.
        cause: String,
    },
    /// A width does not fit in 32 bits, or an FSM state count is over
    /// [`calyx_lite::MAX_FSM_STATES`].
    TooLarge {
        /// The enclosing component.
        component: String,
        /// Where it happened.
        site: String,
        /// The value that does not fit.
        value: u64,
        /// The largest value allowed there.
        limit: u64,
    },
    /// A cell pin or a literal would be zero bits wide.
    ZeroWidth {
        /// The enclosing component.
        component: String,
        /// Where it happened.
        site: String,
    },
    /// The component still contains generate constructs; run
    /// [`crate::mono::expand`] before lowering.
    Unelaborated {
        /// The enclosing component.
        component: String,
        /// The residual construct.
        construct: String,
    },
    /// The program is not well-typed in a way lowering relies on; run the
    /// checker first.
    IllTyped {
        /// Description.
        detail: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            LowerError::NoPrimitive { name } => {
                write!(
                    f,
                    "no primitive implementation registered for extern {name}"
                )
            }
            LowerError::PortMismatch { name, port } => write!(
                f,
                "extern {name}: port {port} does not exist on the registered primitive"
            ),
            LowerError::NonConstant {
                component,
                site,
                param,
                cause,
            } => {
                write!(
                    f,
                    "in component {component}: {site} does not evaluate to a constant ({cause})"
                )?;
                if let Some(p) = param {
                    write!(
                        f,
                        " — parameter {p} is unresolved; monomorphize the program first \
                         (mono::expand / `filament expand`)"
                    )?;
                }
                Ok(())
            }
            LowerError::TooLarge {
                component,
                site,
                value,
                limit,
            } => write!(
                f,
                "in component {component}: {site} is {value}, more than the largest \
                 supported value {limit}"
            ),
            LowerError::ZeroWidth { component, site } => {
                write!(f, "in component {component}: {site} has width 0")
            }
            LowerError::Unelaborated {
                component,
                construct,
            } => write!(
                f,
                "in component {component}: {construct} was not elaborated; run mono::expand \
                 (`filament expand`) before lowering"
            ),
            LowerError::IllTyped { detail } => {
                write!(
                    f,
                    "program is not well-typed: {detail} (run the checker first)"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers `top` and every user component it transitively instantiates into
/// a Calyx-lite program (Figure 6's full flow minus the final Verilog step,
/// which [`calyx_lite::emit_program`] provides).
///
/// Each component is lowered once, as a unit ([`lower_component_unit`]).
/// Its subcomponent cells are then visited in body order: a structural
/// extern implementation is added where first referenced, and a user
/// callee is emitted, with its own callees, before the component.
///
/// # Errors
///
/// Returns a [`LowerError`]; programs should be type-checked first.
pub fn lower_program(
    program: &Program,
    top: &str,
    registry: &dyn PrimitiveRegistry,
) -> Result<cl::Program, LowerError> {
    let lower = |name: &str| {
        let comp = program
            .component(name)
            .ok_or_else(|| LowerError::UnknownComponent(name.to_owned()))?;
        lower_component_unit(program, comp, registry)
    };
    let mut out = cl::Program::new();
    let mut reached = HashSet::from([top.to_owned()]);
    // Each unit being walked, with the index of its next cell.
    let mut stack = vec![(lower(top)?, 0)];
    while let Some((unit, next)) = stack.last_mut() {
        let Some(cell) = unit.component.cells.get(*next) else {
            let (unit, _) = stack.pop().expect("the loop saw a unit");
            out.add_component(unit.component);
            continue;
        };
        *next += 1;
        let cl::CellProto::Component(sub) = &cell.proto else {
            continue;
        };
        if let Some(s) = unit.structural.iter().find(|s| s.name == *sub) {
            if out.component(sub).is_none() {
                out.add_component(s.clone());
            }
        } else if reached.insert(sub.clone()) {
            let sub = lower(sub)?;
            stack.push((sub, 0));
        }
    }
    Ok(out)
}

/// A single component lowered in isolation: the Calyx-lite component plus
/// any structural extern implementations its instances pulled in (deduped
/// by name; sub-*component* dependencies are referenced by name only and
/// must be lowered as their own units).
#[derive(Debug, Clone)]
pub struct LoweredUnit {
    /// The lowered component itself.
    pub component: cl::Component,
    /// Structural implementations of externs it instantiates (e.g. a
    /// Reticle-generated DSP cascade), in first-reference order.
    pub structural: Vec<cl::Component>,
}

/// A constant's value, or the diagnostic for why it has none. Like every
/// diagnostic site in lowering, `site` is rendered only on failure.
fn constant(
    value: Result<u64, ConstEvalError>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u64, LowerError> {
    value.map_err(|cause| LowerError::NonConstant {
        component: component.into(),
        site: site(),
        param: match &cause {
            ConstEvalError::Unbound(p) => Some(p.clone()),
            ConstEvalError::Arith(_) => None,
        },
        cause: cause.to_string(),
    })
}

/// Narrows a width or state count to the netlist's `u32`.
fn to_u32(value: u64, component: &str, site: &dyn Fn() -> String) -> Result<u32, LowerError> {
    u32::try_from(value).map_err(|_| LowerError::TooLarge {
        component: component.into(),
        site: site(),
        value,
        limit: u32::MAX.into(),
    })
}

/// A width ([`constant`]) narrowed to `u32`.
fn width(
    value: Result<u64, ConstEvalError>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u32, LowerError> {
    to_u32(constant(value, component, site)?, component, site)
}

/// The concrete offset of a time, or a [`LowerError::Unelaborated`] naming
/// the residual construct.
fn time_off(t: &Time, component: &str, site: &dyn Fn() -> String) -> Result<u64, LowerError> {
    t.offset_val().ok_or_else(|| LowerError::Unelaborated {
        component: component.into(),
        construct: format!("symbolic time offset {t} in {}", site()),
    })
}

/// The flat identifier of a name, or an error if it still carries indices.
fn flat_name<'n>(n: &'n crate::ast::IName, component: &str) -> Result<&'n Id, LowerError> {
    n.flat().ok_or_else(|| LowerError::Unelaborated {
        component: component.into(),
        construct: format!("indexed name {}", written(n)),
    })
}

/// Rejects residual generate constructs — `for`/`if` commands, bundle ports
/// in the signature, and bundle-element references in the body — with an
/// [`LowerError::Unelaborated`] naming the construct.
fn reject_generate_constructs(comp: &Component) -> Result<(), LowerError> {
    let unelab = |construct: String| {
        Err(LowerError::Unelaborated {
            component: comp.sig.name.clone(),
            construct,
        })
    };
    if let Some(p) = comp.sig.params.iter().find(|p| p.is_derived()) {
        return unelab(format!("derived parameter `some {}`", p.name));
    }
    let mut sig_ports = comp.sig.inputs.iter().chain(&comp.sig.outputs);
    if let Some(p) = sig_ports.find(|p| p.bundle.is_some()) {
        return unelab(format!("bundle port {}", p.name));
    }
    let bundle = |p: &&Port| matches!(p, Port::Bundle { .. } | Port::InvBundle { .. });
    for cmd in &comp.body {
        let element = match cmd {
            Command::ForGen { var, .. } => {
                return unelab(format!("for-generate loop over {var}"));
            }
            Command::IfGen { lhs, op, rhs, .. } => {
                return unelab(format!("if-generate conditional `{lhs} {op} {rhs}`"));
            }
            Command::Invoke { args, .. } => args.iter().find(bundle),
            Command::Connect { dst, src } => [dst, src].into_iter().find(bundle),
            Command::Instance { .. } => None,
        };
        if let Some(p) = element {
            return unelab(format!("bundle element {p}"));
        }
    }
    Ok(())
}

/// Lowers exactly one component — without recursing into the user
/// components it instantiates, which are lowered as units of their own and
/// merged by name. [`lower_program`] and the `fil-build` driver both lower
/// every component through here.
///
/// `program` must hold the signature of everything `comp` instantiates
/// (externs and user components); only signatures are read from it.
///
/// # Errors
///
/// As [`lower_program`], for failures inside this component.
pub fn lower_component_unit(
    program: &Program,
    comp: &Component,
    registry: &dyn PrimitiveRegistry,
) -> Result<LoweredUnit, LowerError> {
    let mut structural: Vec<cl::Component> = Vec::new();
    let sig = &comp.sig;
    let name = sig.name.as_str();
    let zero_width = |site: String| LowerError::ZeroWidth {
        component: name.into(),
        site,
    };
    // Generate constructs (loops, conditionals, bundle ports/elements) must
    // have been discharged by mono::expand.
    reject_generate_constructs(comp)?;
    let mut c = cl::Component::new(name);

    for iface in &sig.interfaces {
        c.add_input(iface.name.clone(), 1);
    }
    let port_width = |p: &crate::ast::PortDef| {
        width(p.width.eval_closed(), name, &|| {
            format!("width of port {}", p.name)
        })
    };
    for p in &sig.inputs {
        c.add_input(p.name.clone(), port_width(p)?);
    }
    for p in &sig.outputs {
        c.add_output(p.name.clone(), port_width(p)?);
    }

    // ----------------------------------------------------------- instances
    struct Inst<'p> {
        name: &'p Id,
        /// The cell's symbol.
        cell: cl::Sym,
        sig: &'p Signature,
        /// One value per callee parameter, derived parameters included.
        values: Vec<u64>,
    }
    let mut insts: Vec<Inst<'_>> = Vec::new();
    let mut inst_at: HashMap<&str, usize> = HashMap::new();
    for cmd in &comp.body {
        if let Command::Instance {
            name: iname,
            component,
            params,
        } = cmd
        {
            let iname = flat_name(iname, name)?;
            let callee = program
                .sig(component)
                .ok_or_else(|| LowerError::UnknownComponent(component.clone()))?;
            let given: Vec<u64> = params
                .iter()
                .map(|p| {
                    constant(p.eval_closed(), name, &|| {
                        format!("parameter of instance {}", written(iname))
                    })
                })
                .collect::<Result<_, _>>()?;
            // One value per callee parameter: derivations evaluated when the
            // site carries free values only, verified when it carries the
            // full (already-elaborated) list.
            let values = callee.resolve_param_values(&given).map_err(|e| match e {
                crate::ast::ParamResolveError::Arity { .. } => LowerError::IllTyped {
                    detail: format!("instance {}: {} {e}", written(iname), callee.name),
                },
                _ => LowerError::NonConstant {
                    component: name.into(),
                    site: format!("parameters of instance {}", written(iname)),
                    param: match &e {
                        crate::ast::ParamResolveError::Eval {
                            cause: ConstEvalError::Unbound(p),
                            ..
                        } => Some(p.clone()),
                        _ => None,
                    },
                    cause: format!("{} of {}", e, callee.name),
                },
            })?;
            // The signature's port names must exist on the implementation.
            let mismatch = |have: &dyn Fn(&str) -> bool| {
                let port = sig_port_names(callee).find(|p| !have(p))?;
                Some(LowerError::PortMismatch {
                    name: component.clone(),
                    port: port.to_owned(),
                })
            };
            let cell = if program.is_extern(component) {
                let too_large = |e: ParamTooLarge| {
                    let param = callee.params.get(e.index).map_or("?", |p| p.name.as_str());
                    LowerError::TooLarge {
                        component: name.into(),
                        site: format!(
                            "parameter {param} of instance {} ({component})",
                            written(iname)
                        ),
                        value: values.get(e.index).copied().unwrap_or_default(),
                        limit: u32::MAX.into(),
                    }
                };
                if let Some(kind) = registry.primitive(component, &values).map_err(too_large)? {
                    let (pins, pouts) = cl::primitive_ports(&kind);
                    if let Some(e) = mismatch(&|p| pins.iter().chain(&pouts).any(|&(n, _)| n == p))
                    {
                        return Err(e);
                    }
                    if let Some((pin, _)) = pins.iter().chain(&pouts).find(|p| p.1 == 0) {
                        return Err(zero_width(format!(
                            "pin {pin} of instance {} ({component})",
                            written(iname)
                        )));
                    }
                    c.add_primitive(iname, kind)
                } else if let Some(sub) =
                    registry.structural(component, &values).map_err(too_large)?
                {
                    let ports = sub.inputs.iter().chain(&sub.outputs);
                    if let Some(e) = mismatch(&|p| ports.clone().any(|&(n, _)| &sub.names[n] == p))
                    {
                        return Err(e);
                    }
                    let cell = c.add_subcomponent(iname, sub.name.clone());
                    if !structural.iter().any(|s| s.name == sub.name) {
                        structural.push(sub);
                    }
                    cell
                } else {
                    return Err(LowerError::NoPrimitive {
                        name: component.clone(),
                    });
                }
            } else {
                c.add_subcomponent(iname, component.clone())
            };
            inst_at.insert(iname, insts.len());
            insts.push(Inst {
                name: iname,
                cell,
                sig: callee,
                values,
            });
        }
    }

    // ------------------------------------------------------ FSM sizing pass
    // Per non-phantom own event: the highest state index any trigger or
    // guard needs (Section 5.2 walks all `G + i` mentions).
    let own_event = |event: &str| sig.events.iter().position(|e| e.name == event);
    let phantom: Vec<bool> = sig.events.iter().map(|e| sig.is_phantom(&e.name)).collect();
    let is_phantom = |event: &str| own_event(event).is_some_and(|k| phantom[k]);
    let mut max_state: Vec<Option<u64>> = vec![None; sig.events.len()];
    let mut note_state = |event: &str, state: u64| {
        if let Some(k) = own_event(event).filter(|&k| !phantom[k]) {
            let max = max_state[k].get_or_insert(0);
            *max = (*max).max(state);
        }
    };

    // Invocations in body order: the instance and the schedule (one time
    // per callee event); `reqs` holds the required interval of each data
    // argument of each, in the same order.
    struct Inv<'p> {
        name: &'p Id,
        inst: usize,
        events: &'p [Time],
        args: &'p [Port],
    }
    let mut invs: Vec<Inv<'_>> = Vec::new();
    let mut inv_at: HashMap<&str, usize> = HashMap::new();
    let mut reqs: Vec<Range> = Vec::new();
    for cmd in &comp.body {
        let Command::Invoke {
            name: iname,
            instance,
            events,
            args,
        } = cmd
        else {
            continue;
        };
        let iname = flat_name(iname, name)?;
        let instance = flat_name(instance, name)?;
        let inst = *inst_at
            .get(instance.as_str())
            .ok_or_else(|| LowerError::IllTyped {
                detail: format!("unknown instance {}", written(instance)),
            })?;
        let callee = insts[inst].sig;
        if events.len() != callee.events.len() || args.len() != callee.inputs.len() {
            return Err(LowerError::IllTyped {
                detail: format!("arity mismatch in invocation {iname}"),
            });
        }
        // Triggers: callee events with interface ports.
        for (ev, t) in callee.events.iter().zip(events) {
            if callee.interface_of(&ev.name).is_some() {
                let off = time_off(t, name, &|| format!("schedule of invocation {iname}"))?;
                note_state(&t.event, off);
            }
        }
        // Data-arg guards: states start..end-1 of the required interval.
        for pdef in &callee.inputs {
            let req = pdef.liveness.bind(&callee.events, events);
            if req.start.event != req.end.event {
                return Err(LowerError::IllTyped {
                    detail: format!(
                        "requirement {req} of invocation {iname} spans multiple events"
                    ),
                });
            }
            let end = time_off(&req.end, name, &|| {
                format!("requirement of invocation {iname}")
            })?;
            if end > 0 {
                note_state(&req.start.event, end - 1);
            }
            reqs.push(req);
        }
        inv_at.insert(iname, invs.len());
        invs.push(Inv {
            name: iname,
            inst,
            events,
            args,
        });
    }

    // Instantiate one FSM per used non-phantom event and hook its trigger to
    // the interface port. State pins `_0`, `_1`, … are interned once.
    let mut fsm: Vec<Option<cl::Sym>> = vec![None; sig.events.len()];
    let mut pins: Vec<cl::Sym> = Vec::new();
    for (k, (ev, max)) in sig.events.iter().zip(max_state).enumerate() {
        let Some(max) = max else {
            continue;
        };
        let iface = sig
            .interface_of(&ev.name)
            .expect("non-phantom events have interface ports");
        let site = || format!("the state count of event {}'s FSM", ev.name);
        let states = max.saturating_add(1);
        let n = to_u32(states, name, &site)?;
        // Checked before the cell exists: its output pins, wires and
        // Verilog all grow with the state count.
        if n > cl::MAX_FSM_STATES {
            return Err(LowerError::TooLarge {
                component: name.into(),
                site: site(),
                value: states,
                limit: cl::MAX_FSM_STATES.into(),
            });
        }
        let cell = c.add_primitive(format!("{}_fsm", ev.name), CellKind::ShiftFsm { n });
        while pins.len() < n as usize {
            pins.push(c.names.intern(&format!("_{}", pins.len())));
        }
        let go = c.names.intern("go");
        c.assign(cl::PortRef::cell(cell, go), iface.name.as_str());
        fsm[k] = Some(cell);
    }
    // `event._i`, a state of the event's FSM. An event without one (the
    // checker rules that out) gets a name no cell has, for elaboration to
    // report.
    let state = |names: &mut cl::Names, event: &str, i: u64| {
        let cell = own_event(event).and_then(|k| fsm[k]);
        let cell = cell.unwrap_or_else(|| names.intern(&format!("{event}_fsm")));
        let pin = usize::try_from(i).ok().and_then(|i| pins.get(i).copied());
        cl::PortRef::cell(cell, pin.unwrap_or_else(|| names.intern(&format!("_{i}"))))
    };

    // -------------------------------------------------------- assignments
    let src_of = |names: &mut cl::Names, p: &Port, width: u32, site: &dyn Fn() -> String| {
        Ok(match p {
            Port::This(port) => cl::Src::Port(cl::PortRef::this(names.intern(port))),
            Port::Inv { invocation, port } => {
                let inst = &insts[invs[inv_at[invocation.base.as_str()]].inst];
                cl::Src::Port(cl::PortRef::cell(inst.cell, names.intern(port)))
            }
            Port::Lit(_) if width == 0 => return Err(zero_width(site())),
            Port::Lit(n) => cl::Src::Const(Value::from_u64(width, *n)),
            Port::Bundle { .. } | Port::InvBundle { .. } => {
                unreachable!("bundle elements rejected by reject_generate_constructs")
            }
        })
    };

    // Interface triggers, merged per (instance, interface port) so pipelined
    // uses OR together (Figure 6: `A.go = Gf._0 || Gf._2`). Invocations are
    // walked in body order and the merged map is ordered, so the emitted
    // assignments (and the state order inside each guard) are deterministic
    // — a requirement for byte-identical `-j1`/`-jN` driver builds.
    let mut triggers = BTreeMap::<(&Id, &Id), (cl::Sym, Vec<cl::PortRef>)>::new();
    for inv in &invs {
        let inst = &insts[inv.inst];
        for (ev, t) in inst.sig.events.iter().zip(inv.events) {
            let Some(iface) = inst.sig.interface_of(&ev.name) else {
                continue;
            };
            if is_phantom(&t.event) {
                return Err(LowerError::IllTyped {
                    detail: format!(
                        "phantom event {} triggers interface port of invocation {}",
                        t.event, inv.name
                    ),
                });
            }
            let off = time_off(t, name, &|| format!("trigger of invocation {}", inv.name))?;
            let state = state(&mut c.names, &t.event, off);
            let entry = triggers.entry((inst.name, &iface.name));
            entry.or_insert((inst.cell, Vec::new())).1.push(state);
        }
    }
    for ((_, port), (cell, states)) in triggers {
        let dst = cl::PortRef::cell(cell, c.names.intern(port));
        c.assign_guarded(dst, Value::from_u64(1, 1), states);
    }

    // Data arguments with synthesized guards (Section 5.2).
    let mut reqs = reqs.iter();
    for inv in &invs {
        let inst = &insts[inv.inst];
        let iname = inv.name;
        for ((arg, pdef), req) in inv.args.iter().zip(&inst.sig.inputs).zip(&mut reqs) {
            let width = width(inst.sig.eval_at(&pdef.width, &inst.values), name, &|| {
                format!("width of argument {} of invocation {iname}", pdef.name)
            })?;
            if let Port::Inv { invocation, .. } = arg {
                flat_name(invocation, name)?;
            }
            let dst = cl::PortRef::cell(inst.cell, c.names.intern(&pdef.name));
            let src = src_of(&mut c.names, arg, width, &|| {
                format!("literal argument {} of invocation {iname}", pdef.name)
            })?;
            if is_phantom(&req.start.event) {
                c.assign(dst, src);
            } else {
                let site = || format!("requirement of invocation {iname}");
                let start = time_off(&req.start, name, &site)?;
                let end = time_off(&req.end, name, &site)?;
                let states: Vec<cl::PortRef> = (start..end)
                    .map(|i| state(&mut c.names, &req.start.event, i))
                    .collect();
                c.assign_guarded(dst, src, states);
            }
        }
    }

    // Connections: plain wires.
    for cmd in &comp.body {
        let Command::Connect { dst, src } = cmd else {
            continue;
        };
        let Port::This(dname) = dst else {
            return Err(LowerError::IllTyped {
                detail: format!("connection target {dst} is not a component output"),
            });
        };
        if let Port::Inv { invocation, .. } = src {
            flat_name(invocation, name)?;
        }
        let width = match sig.output(dname) {
            Some(p) => width(p.width.eval_closed(), name, &|| {
                format!("width of output {dname}")
            })?,
            None => 32,
        };
        let src = src_of(&mut c.names, src, width, &|| {
            format!("literal for output {dname}")
        })?;
        c.assign(dname.as_str(), src);
    }

    Ok(LoweredUnit {
        component: c,
        structural,
    })
}

fn sig_port_names(sig: &Signature) -> impl Iterator<Item = &str> {
    sig.interfaces
        .iter()
        .map(|i| i.name.as_str())
        .chain(sig.inputs.iter().map(|p| p.name.as_str()))
        .chain(sig.outputs.iter().map(|p| p.name.as_str()))
}
