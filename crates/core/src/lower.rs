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

// Widths and state counts come from user constants: narrowing them must go
// through `u32::try_from` and fail with a diagnostic, never wrap.
#![deny(clippy::cast_possible_truncation)]

use crate::ast::{Command, Component, ConstExpr, Id, Port, Program, Signature, Time};
use calyx_lite as cl;
use fil_bits::Value;
use rtl_sim::CellKind;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Maps extern component names (plus const parameters) to primitive cells.
///
/// The standard library implements this for its externs; the port names of
/// the returned [`CellKind`] (per [`calyx_lite::primitive_ports`]) must match
/// the extern signature's port names.
pub trait PrimitiveRegistry {
    /// The cell implementing extern `name` with the given parameter values,
    /// or `None` if the extern is unknown.
    fn primitive(&self, name: &str, params: &[u64]) -> Option<CellKind>;

    /// A structural implementation for externs that are whole sub-circuits
    /// rather than single cells — e.g. the Reticle-generated DSP cascade of
    /// Section 7.2, imported as an `extern comp Tdot`. Consulted only when
    /// [`PrimitiveRegistry::primitive`] returns `None`. The component's port
    /// names must match the extern signature's.
    fn structural(&self, name: &str, params: &[u64]) -> Option<cl::Component> {
        let _ = (name, params);
        None
    }
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
    /// [`MAX_FSM_STATES`].
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
/// # Errors
///
/// Returns a [`LowerError`]; programs should be type-checked first.
pub fn lower_program(
    program: &Program,
    top: &str,
    registry: &dyn PrimitiveRegistry,
) -> Result<cl::Program, LowerError> {
    let mut out = cl::Program::new();
    let mut done = HashSet::new();
    lower_component(program, top, registry, &mut out, &mut done)?;
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

/// Lowers exactly one component — without recursing into the user
/// components it instantiates, which are expected to be lowered separately
/// and merged by name. This is the per-unit lowering API the `fil-build`
/// driver schedules over the monomorph dependency DAG; [`lower_program`]
/// remains the whole-program entry point and produces identical components.
///
/// `scope` must hold the signature of everything `comp` instantiates
/// (externs and user components); only signatures are read from it.
///
/// # Errors
///
/// As [`lower_program`], for failures inside this component.
pub fn lower_component_unit(
    scope: &Program,
    comp: &Component,
    registry: &dyn PrimitiveRegistry,
) -> Result<LoweredUnit, LowerError> {
    struct Collect {
        structural: Vec<cl::Component>,
    }
    impl LowerSink for Collect {
        fn structural(&mut self, c: cl::Component) {
            if !self.structural.iter().any(|s| s.name == c.name) {
                self.structural.push(c);
            }
        }
        fn user_dep(&mut self, _name: &str) -> Result<(), LowerError> {
            Ok(())
        }
    }
    let mut sink = Collect {
        structural: Vec::new(),
    };
    let component = lower_one(scope, comp, registry, &mut sink)?;
    Ok(LoweredUnit {
        component,
        structural: sink.structural,
    })
}

/// What a single-component lowering reports upward: structural extern
/// implementations to include in the output program, and user subcomponent
/// dependencies (which the whole-program path lowers recursively and the
/// unit path leaves to the driver).
trait LowerSink {
    fn structural(&mut self, c: cl::Component);
    fn user_dep(&mut self, name: &str) -> Result<(), LowerError>;
}

/// Evaluates a closed constant. Like every diagnostic site in lowering,
/// `site` is rendered only on failure.
fn const_eval(
    e: &ConstExpr,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u64, LowerError> {
    const_eval_env(e, &HashMap::new(), component, site)
}

fn const_eval_env(
    e: &ConstExpr,
    env: &HashMap<Id, u64>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u64, LowerError> {
    e.eval(env).map_err(|cause| LowerError::NonConstant {
        component: component.into(),
        site: site(),
        param: match &cause {
            crate::ast::ConstEvalError::Unbound(p) => Some(p.clone()),
            crate::ast::ConstEvalError::Arith(_) => None,
        },
        cause: cause.to_string(),
    })
}

/// The most states one event's FSM may have: 2^16. The largest corpus
/// FSM (DivIter's) has 8 states, so this leaves 8 192x headroom. An FSM
/// is a shift register with one output pin, wire and Verilog net per
/// state, so a longer one is refused rather than built.
pub const MAX_FSM_STATES: u64 = 1 << 16;

/// Narrows a width or state count to the netlist's `u32`.
fn to_u32(value: u64, component: &str, site: &dyn Fn() -> String) -> Result<u32, LowerError> {
    u32::try_from(value).map_err(|_| LowerError::TooLarge {
        component: component.into(),
        site: site(),
        value,
        limit: u32::MAX.into(),
    })
}

/// Evaluates a closed width under `env` and narrows it to `u32`.
fn width_eval(
    e: &ConstExpr,
    env: &HashMap<Id, u64>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u32, LowerError> {
    to_u32(const_eval_env(e, env, component, site)?, component, site)
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
        construct: format!("indexed name {n}"),
    })
}

/// Rejects residual generate constructs — `for`/`if` commands, bundle ports
/// in the signature, and bundle-element references in the body — with an
/// [`LowerError::Unelaborated`] naming the construct.
fn reject_generate_constructs(comp: &Component) -> Result<(), LowerError> {
    let name = &comp.sig.name;
    let unelab = |construct: String| LowerError::Unelaborated {
        component: name.clone(),
        construct,
    };
    if let Some(p) = comp.sig.params.iter().find(|p| p.is_derived()) {
        return Err(unelab(format!("derived parameter `some {}`", p.name)));
    }
    if let Some(p) = comp
        .sig
        .inputs
        .iter()
        .chain(&comp.sig.outputs)
        .find(|p| p.bundle.is_some())
    {
        return Err(unelab(format!("bundle port {}", p.name)));
    }
    fn walk(cmds: &[Command], unelab: &dyn Fn(String) -> LowerError) -> Result<(), LowerError> {
        let port_ok = |p: &Port| -> Result<(), LowerError> {
            match p {
                Port::Bundle { .. } | Port::InvBundle { .. } => {
                    Err(unelab(format!("bundle element {p}")))
                }
                _ => Ok(()),
            }
        };
        for cmd in cmds {
            match cmd {
                Command::ForGen { var, .. } => {
                    return Err(unelab(format!("for-generate loop over {var}")));
                }
                Command::IfGen { lhs, op, rhs, .. } => {
                    return Err(unelab(format!(
                        "if-generate conditional `{lhs} {op} {rhs}`"
                    )));
                }
                Command::Invoke { args, .. } => {
                    for a in args {
                        port_ok(a)?;
                    }
                }
                Command::Connect { dst, src } => {
                    port_ok(dst)?;
                    port_ok(src)?;
                }
                Command::Instance { .. } => {}
            }
        }
        Ok(())
    }
    walk(&comp.body, &unelab)
}

fn lower_component(
    program: &Program,
    name: &str,
    registry: &dyn PrimitiveRegistry,
    out: &mut cl::Program,
    done: &mut HashSet<Id>,
) -> Result<(), LowerError> {
    if done.contains(name) {
        return Ok(());
    }
    done.insert(name.to_owned());
    struct Recurse<'a> {
        program: &'a Program,
        registry: &'a dyn PrimitiveRegistry,
        out: &'a mut cl::Program,
        done: &'a mut HashSet<Id>,
    }
    impl LowerSink for Recurse<'_> {
        fn structural(&mut self, c: cl::Component) {
            if self.out.component(&c.name).is_none() {
                self.out.add_component(c);
            }
        }
        fn user_dep(&mut self, dep: &str) -> Result<(), LowerError> {
            lower_component(self.program, dep, self.registry, self.out, self.done)
        }
    }
    let comp = program
        .component(name)
        .ok_or_else(|| LowerError::UnknownComponent(name.to_owned()))?;
    let mut sink = Recurse {
        program,
        registry,
        out: &mut *out,
        done: &mut *done,
    };
    let c = lower_one(program, comp, registry, &mut sink)?;
    out.add_component(c);
    Ok(())
}

fn lower_one(
    program: &Program,
    comp: &Component,
    registry: &dyn PrimitiveRegistry,
    sink: &mut dyn LowerSink,
) -> Result<cl::Component, LowerError> {
    let sig = &comp.sig;
    let name = sig.name.as_str();
    // Generate constructs (loops, conditionals, bundle ports/elements) must
    // have been discharged by mono::expand.
    reject_generate_constructs(comp)?;
    let mut c = cl::Component::new(name);

    for iface in &sig.interfaces {
        c.add_input(iface.name.clone(), 1);
    }
    let no_params = HashMap::new();
    let port_width = |p: &crate::ast::PortDef| {
        width_eval(&p.width, &no_params, name, &|| {
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
        sig: &'p Signature,
        /// Calyx/primitive port names keyed by Filament port name (identity
        /// mapping, validated for primitives).
        params: HashMap<Id, u64>,
    }
    let mut insts: HashMap<Id, Inst<'_>> = HashMap::new();
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
                .map(|p| const_eval(p, name, &|| format!("parameter of instance {iname}")))
                .collect::<Result<_, _>>()?;
            // One value per callee parameter: derivations evaluated when the
            // site carries free values only, verified when it carries the
            // full (already-elaborated) list.
            let values = callee.resolve_param_values(&given).map_err(|e| match e {
                crate::ast::ParamResolveError::Arity { .. } => LowerError::IllTyped {
                    detail: format!("instance {iname}: {} {e}", callee.name),
                },
                _ => LowerError::NonConstant {
                    component: name.into(),
                    site: format!("parameters of instance {iname}"),
                    param: match &e {
                        crate::ast::ParamResolveError::Eval {
                            cause: crate::ast::ConstEvalError::Unbound(p),
                            ..
                        } => Some(p.clone()),
                        _ => None,
                    },
                    cause: format!("{} of {}", e, callee.name),
                },
            })?;
            if program.is_extern(component) {
                if let Some(kind) = registry.primitive(component, &values) {
                    // The signature's port names must exist on the primitive.
                    let (pins, pouts) = cl::primitive_ports(&kind);
                    let have = |p: &str| pins.iter().chain(&pouts).any(|&(n, _)| n == p);
                    if let Some(port) = sig_port_names(callee).find(|p| !have(p)) {
                        return Err(LowerError::PortMismatch {
                            name: component.clone(),
                            port: port.to_owned(),
                        });
                    }
                    c.add_primitive(iname.clone(), kind);
                } else if let Some(sub) = registry.structural(component, &values) {
                    let have: HashSet<&str> = sub
                        .inputs
                        .iter()
                        .chain(&sub.outputs)
                        .map(|(n, _)| n.as_str())
                        .collect();
                    if let Some(port) = sig_port_names(callee).find(|p| !have.contains(p)) {
                        return Err(LowerError::PortMismatch {
                            name: component.clone(),
                            port: port.to_owned(),
                        });
                    }
                    let mangled = sub.name.clone();
                    sink.structural(sub);
                    c.add_subcomponent(iname.clone(), mangled);
                } else {
                    return Err(LowerError::NoPrimitive {
                        name: component.clone(),
                    });
                }
            } else {
                sink.user_dep(component)?;
                c.add_subcomponent(iname.clone(), component.clone());
            }
            let env = callee.param_env(&values);
            insts.insert(
                iname.clone(),
                Inst {
                    sig: callee,
                    params: env,
                },
            );
        }
    }

    // ------------------------------------------------------ FSM sizing pass
    // Per non-phantom own event: the highest state index any trigger or
    // guard needs (Section 5.2 walks all `G + i` mentions).
    let phantom: HashSet<&str> = sig
        .events
        .iter()
        .filter(|e| sig.is_phantom(&e.name))
        .map(|e| e.name.as_str())
        .collect();
    let own_event_names: HashSet<&str> = sig.events.iter().map(|e| e.name.as_str()).collect();
    let mut max_state: HashMap<String, u64> = HashMap::new();
    let note_state = |max_state: &mut HashMap<String, u64>, event: &str, state: u64| {
        if !phantom.contains(event) && own_event_names.contains(event) {
            let entry = max_state.entry(event.to_owned()).or_insert(0);
            *entry = (*entry).max(state);
        }
    };

    // Gather invocation info: binding plus resolved trigger/guard states.
    struct Inv {
        instance: Id,
        binding: HashMap<Id, Time>,
    }
    let mut invs: HashMap<Id, Inv> = HashMap::new();
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
        let inst = insts.get(instance).ok_or_else(|| LowerError::IllTyped {
            detail: format!("unknown instance {instance}"),
        })?;
        if events.len() != inst.sig.events.len() || args.len() != inst.sig.inputs.len() {
            return Err(LowerError::IllTyped {
                detail: format!("arity mismatch in invocation {iname}"),
            });
        }
        let binding: HashMap<Id, Time> = inst
            .sig
            .events
            .iter()
            .map(|e| e.name.clone())
            .zip(events.iter().cloned())
            .collect();
        // Triggers: callee events with interface ports.
        for ev in &inst.sig.events {
            if inst.sig.interface_of(&ev.name).is_some() {
                let t = &binding[&ev.name];
                let off = time_off(t, name, &|| format!("schedule of invocation {iname}"))?;
                note_state(&mut max_state, &t.event, off);
            }
        }
        // Data-arg guards: states start..end-1 of the required interval.
        for pdef in &inst.sig.inputs {
            let req = pdef.liveness.subst(&binding);
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
                note_state(&mut max_state, &req.start.event, end - 1);
            }
        }
        invs.insert(
            iname.clone(),
            Inv {
                instance: instance.clone(),
                binding,
            },
        );
    }

    // Instantiate one FSM per used non-phantom event and hook its trigger to
    // the interface port.
    let fsm_name = |event: &str| format!("{event}_fsm");
    for ev in &sig.events {
        let Some(&max) = max_state.get(ev.name.as_str()) else {
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
        if states > MAX_FSM_STATES {
            return Err(LowerError::TooLarge {
                component: name.into(),
                site: site(),
                value: states,
                limit: MAX_FSM_STATES,
            });
        }
        c.add_primitive(fsm_name(&ev.name), CellKind::ShiftFsm { n });
        c.assign(
            cl::PortRef::cell(fsm_name(&ev.name), "go"),
            cl::Src::this(iface.name.clone()),
        );
    }

    // -------------------------------------------------------- assignments
    let src_of = |p: &Port, width: u32| -> cl::Src {
        match p {
            Port::This(name) => cl::Src::this(name.clone()),
            Port::Inv { invocation, port } => {
                let inst = &invs[&invocation.base].instance;
                cl::Src::port(cl::PortRef::cell(inst.clone(), port.clone()))
            }
            Port::Lit(n) => cl::Src::konst(Value::from_u64(width, *n)),
            Port::Bundle { .. } | Port::InvBundle { .. } => {
                unreachable!("bundle elements rejected by reject_generate_constructs")
            }
        }
    };

    // Interface triggers, merged per (instance, interface port) so pipelined
    // uses OR together (Figure 6: `A.go = Gf._0 || Gf._2`). Invocations are
    // walked in body order and the merged map is ordered, so the emitted
    // assignments (and the state order inside each guard) are deterministic
    // — a requirement for byte-identical `-j1`/`-jN` driver builds.
    let mut triggers: std::collections::BTreeMap<(Id, Id), Vec<cl::PortRef>> =
        std::collections::BTreeMap::new();
    for cmd in &comp.body {
        let Command::Invoke { name: iname, .. } = cmd else {
            continue;
        };
        let iname = flat_name(iname, name)?;
        let inv = &invs[iname];
        let inst = &insts[&inv.instance];
        for ev in &inst.sig.events {
            let Some(iface) = inst.sig.interface_of(&ev.name) else {
                continue;
            };
            let t = &inv.binding[&ev.name];
            if phantom.contains(t.event.as_str()) {
                return Err(LowerError::IllTyped {
                    detail: format!(
                        "phantom event {} triggers interface port of invocation {iname}",
                        t.event
                    ),
                });
            }
            let off = time_off(t, name, &|| format!("trigger of invocation {iname}"))?;
            triggers
                .entry((inv.instance.clone(), iface.name.clone()))
                .or_default()
                .push(cl::PortRef::cell(fsm_name(&t.event), format!("_{off}")));
        }
    }
    for ((inst, port), states) in triggers {
        c.assign_guarded(
            cl::PortRef::cell(inst, port),
            cl::Src::konst(Value::from_u64(1, 1)),
            cl::Guard::Any(states),
        );
    }

    // Data arguments with synthesized guards (Section 5.2).
    for cmd in &comp.body {
        let Command::Invoke {
            name: iname, args, ..
        } = cmd
        else {
            continue;
        };
        let iname = flat_name(iname, name)?;
        let inv = &invs[iname];
        let inst = &insts[&inv.instance];
        for (arg, pdef) in args.iter().zip(&inst.sig.inputs) {
            let req = pdef.liveness.subst(&inv.binding);
            let width = width_eval(&pdef.width, &inst.params, name, &|| {
                format!("width of argument {} of invocation {iname}", pdef.name)
            })?;
            if let Port::Inv { invocation, .. } = arg {
                flat_name(invocation, name)?;
            }
            let dst = cl::PortRef::cell(inv.instance.clone(), pdef.name.clone());
            let src = src_of(arg, width);
            if phantom.contains(req.start.event.as_str()) {
                c.assign(dst, src);
            } else {
                let site = || format!("requirement of invocation {iname}");
                let start = time_off(&req.start, name, &site)?;
                let end = time_off(&req.end, name, &site)?;
                let states: Vec<cl::PortRef> = (start..end)
                    .map(|i| cl::PortRef::cell(fsm_name(&req.start.event), format!("_{i}")))
                    .collect();
                c.assign_guarded(dst, src, cl::Guard::Any(states));
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
            Some(p) => width_eval(&p.width, &no_params, name, &|| {
                format!("width of output {dname}")
            })?,
            None => 32,
        };
        c.assign(cl::PortRef::this(dname.clone()), src_of(src, width));
    }

    Ok(c)
}

fn sig_port_names(sig: &Signature) -> impl Iterator<Item = &str> {
    sig.interfaces
        .iter()
        .map(|i| i.name.as_str())
        .chain(sig.inputs.iter().map(|p| p.name.as_str()))
        .chain(sig.outputs.iter().map(|p| p.name.as_str()))
}
