//! Body checking: valid reads, conflict-free instance reuse, safe
//! pipelining, and the phantom check (Sections 4.2–4.4, 5.4).

use super::sig::SigEnv;
use super::{CheckError, ErrorKind};
use crate::ast::{
    Command, Component, ConstExpr, ConstraintOp, Delay, Id, LinExpr, Port, Program, Range,
    Signature, Time,
};
use std::collections::{HashMap, HashSet};

/// Availability of a readable value.
#[derive(Debug, Clone)]
enum Avail {
    /// Control signals and constants: always semantically valid.
    Always,
    /// Valid during this interval.
    Range(Range),
}

struct InstanceInfo<'p> {
    sig: &'p Signature,
    /// Callee param name → bound value.
    params: HashMap<Id, ConstExpr>,
}

struct InvokeInfo {
    instance: Id,
    /// Callee event → caller time.
    binding: HashMap<Id, Time>,
}

pub(crate) fn check_body(program: &Program, comp: &Component, errors: &mut Vec<CheckError>) {
    // The temporal passes need concrete offsets and flat names; residual
    // generate constructs were already reported (for the signature) by
    // check_signature, so use a scratch buffer there to avoid duplicates.
    let sig_ok = super::signature_is_concrete(&comp.sig, &mut Vec::new());
    if !super::body_is_concrete(comp, errors) || !sig_ok {
        return;
    }
    let sig = &comp.sig;
    let cname = sig.name.clone();
    let env = SigEnv::new(sig);
    let own_events: HashSet<&str> = sig.events.iter().map(|e| e.name.as_str()).collect();

    let err = |errors: &mut Vec<CheckError>, kind, msg: String| {
        errors.push(CheckError::new(cname.clone(), kind, msg));
    };

    // ---------------------------------------------------------------- pass 1
    // Collect instances and invocations; bind invocation outputs.
    let mut instances: HashMap<Id, InstanceInfo<'_>> = HashMap::new();
    let mut invokes: HashMap<Id, InvokeInfo> = HashMap::new();
    // Invocation order per instance, for conflict checks.
    let mut uses: HashMap<Id, Vec<Id>> = HashMap::new();
    let mut defined: HashSet<Id> = HashSet::new();

    for port in sig
        .interfaces
        .iter()
        .map(|i| i.name.clone())
        .chain(sig.inputs.iter().map(|p| p.name.clone()))
        .chain(sig.outputs.iter().map(|p| p.name.clone()))
    {
        defined.insert(port);
    }

    for cmd in &comp.body {
        match cmd {
            Command::Instance {
                name,
                component,
                params,
            } => {
                let name = &name.base;
                if !defined.insert(name.clone()) {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("duplicate definition of {name}"),
                    );
                    continue;
                }
                let Some(callee) = program.sig(component) else {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("instance {name} references unknown component {component}"),
                    );
                    continue;
                };
                if callee.name == sig.name {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("component {} may not instantiate itself", sig.name),
                    );
                    continue;
                }
                if !super::signature_is_concrete(callee, &mut Vec::new()) {
                    // The callee reports its own diagnostics; here we only
                    // refuse to reason about symbolic intervals.
                    err(
                        errors,
                        ErrorKind::Unelaborated,
                        format!(
                            "instance {name} instantiates {component}, whose signature \
                             contains unelaborated parameter arithmetic"
                        ),
                    );
                    continue;
                }
                // An instantiation supplies one value per *free* parameter;
                // mono::expand's output for externs carries the full list
                // (derived values appended), which is equally valid.
                let free = callee.free_param_count();
                if params.len() != free && !callee.is_full_value_count(params.len()) {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!(
                            "instance {name}: component {component} takes {free} parameters, \
                             got {}",
                            params.len()
                        ),
                    );
                    continue;
                }
                for p in params {
                    for q in p.params() {
                        if sig.has_param(&q) {
                            continue;
                        }
                        if q.contains('.') {
                            err(
                                errors,
                                ErrorKind::Unelaborated,
                                format!(
                                    "instance {name}: instance parameter {q} not resolved; \
                                     run mono::expand first"
                                ),
                            );
                        } else {
                            err(
                                errors,
                                ErrorKind::Binding,
                                format!("instance {name}: unknown parameter {q}"),
                            );
                        }
                    }
                }
                // Free params bind to the caller's expressions; derived
                // params to their derivations with those substituted, so
                // callee widths propagate through the interface equation.
                let bound = callee.param_exprs(params);
                instances.insert(
                    name.clone(),
                    InstanceInfo {
                        sig: callee,
                        params: bound,
                    },
                );
                uses.entry(name.clone()).or_default();
            }
            Command::Invoke {
                name,
                instance,
                events,
                ..
            } => {
                let name = &name.base;
                let instance = &instance.base;
                if !defined.insert(name.clone()) {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("duplicate definition of {name}"),
                    );
                    continue;
                }
                let Some(info) = instances.get(instance) else {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("invocation {name} uses unknown instance {instance}"),
                    );
                    continue;
                };
                if events.len() != info.sig.events.len() {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!(
                            "invocation {name}: component {} binds {} events, got {}",
                            info.sig.name,
                            info.sig.events.len(),
                            events.len()
                        ),
                    );
                    continue;
                }
                let mut ok = true;
                for t in events {
                    if !own_events.contains(t.event.as_str()) {
                        err(
                            errors,
                            ErrorKind::Binding,
                            format!("invocation {name} scheduled with unknown event {}", t.event),
                        );
                        ok = false;
                    }
                }
                if !ok {
                    continue;
                }
                let binding: HashMap<Id, Time> = info
                    .sig
                    .events
                    .iter()
                    .map(|e| e.name.clone())
                    .zip(events.iter().cloned())
                    .collect();
                invokes.insert(
                    name.clone(),
                    InvokeInfo {
                        instance: instance.clone(),
                        binding,
                    },
                );
                uses.entry(instance.clone()).or_default().push(name.clone());
            }
            Command::Connect { .. } => {}
            // Ruled out by the concreteness pre-pass.
            Command::ForGen { .. } | Command::IfGen { .. } => {}
        }
    }

    // Readable values: own inputs, own interface ports, invocation outputs.
    let avail_of = |port: &Port| -> Result<(Avail, ConstExpr), String> {
        match port {
            Port::Lit(_) => Ok((Avail::Always, ConstExpr::Lit(0))),
            // Ruled out by the concreteness pre-pass; kept total for direct
            // callers that skip it.
            Port::Bundle { .. } | Port::InvBundle { .. } => Err(format!(
                "bundle element {port} not flattened; run mono::expand first"
            )),
            Port::This(p) => {
                if let Some(def) = sig.input(p) {
                    Ok((Avail::Range(def.liveness.clone()), def.width.clone()))
                } else if sig.interfaces.iter().any(|i| &i.name == p) {
                    Ok((Avail::Always, ConstExpr::Lit(1)))
                } else if sig.output(p).is_some() {
                    Err(format!("output port {p} cannot be read"))
                } else {
                    Err(format!("unknown port {p}"))
                }
            }
            Port::Inv { invocation, port } => {
                let inv = invokes
                    .get(&invocation.base)
                    .ok_or_else(|| format!("unknown invocation {invocation}"))?;
                let info = &instances[&inv.instance];
                let def = info.sig.output(port).ok_or_else(|| {
                    format!("component {} has no output port {port}", info.sig.name)
                })?;
                Ok((
                    Avail::Range(def.liveness.subst(&inv.binding)),
                    def.width.subst_exprs(&info.params),
                ))
            }
        }
    };

    // Availability ⊇ requirement (Section 4.2): avail.start <= req.start and
    // req.end <= avail.end. Sites are rendered only for a diagnostic.
    let check_avail =
        |avail: &Avail, req: &Range, site: &dyn Fn() -> String, errors: &mut Vec<CheckError>| {
            let Avail::Range(a) = avail else { return };
            let lower = env.time_le(&a.start, &req.start);
            let upper = env.time_le(&req.end, &a.end);
            match (lower, upper) {
                (Ok(true), Ok(true)) => {}
                (Err(()), _) | (_, Err(())) => errors.push(CheckError::new(
                    cname.clone(),
                    ErrorKind::Unsupported,
                    format!(
                        "cannot verify availability of {}: {a} vs required {req}",
                        site()
                    ),
                )),
                _ => errors.push(CheckError::new(
                    cname.clone(),
                    ErrorKind::Availability,
                    format!("{}: available for {a} but required during {req}", site()),
                )),
            }
        };

    let check_width = |have: &ConstExpr,
                       want: &ConstExpr,
                       port: &Port,
                       site: &dyn Fn() -> String,
                       errors: &mut Vec<CheckError>| {
        if let Port::Lit(n) = port {
            // A literal adapts to the required width if it fits.
            if let ConstExpr::Lit(w) = want.norm() {
                if w < 64 && *n >= (1u64 << w) {
                    errors.push(CheckError::new(
                        cname.clone(),
                        ErrorKind::Width,
                        format!("{}: literal {n} does not fit in {w} bits", site()),
                    ));
                }
            }
            return;
        }
        // Compare normalized forms so closed arithmetic (`2*16`) agrees
        // with its value (`32`); symbolic widths must match structurally.
        if have.norm() != want.norm() {
            errors.push(CheckError::new(
                cname.clone(),
                ErrorKind::Width,
                format!("{}: expected width {want}, found {have}", site()),
            ));
        }
    };

    // ---------------------------------------------------------------- pass 2
    // Valid reads: invocation arguments and connections.
    let mut driven_outputs: HashMap<Id, u32> = HashMap::new();
    for cmd in &comp.body {
        match cmd {
            Command::Invoke {
                name,
                instance,
                args,
                ..
            } => {
                let name = &name.base;
                let (Some(inv), Some(info)) = (invokes.get(name), instances.get(&instance.base))
                else {
                    continue;
                };
                if args.len() != info.sig.inputs.len() {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!(
                            "invocation {name}: component {} takes {} inputs, got {}",
                            info.sig.name,
                            info.sig.inputs.len(),
                            args.len()
                        ),
                    );
                    continue;
                }
                for (arg, pdef) in args.iter().zip(&info.sig.inputs) {
                    let req = pdef.liveness.subst(&inv.binding);
                    let want = pdef.width.subst_exprs(&info.params);
                    let site = || format!("{name}.{} (argument {arg})", pdef.name);
                    match avail_of(arg) {
                        Ok((avail, have)) => {
                            check_avail(&avail, &req, &site, errors);
                            check_width(&have, &want, arg, &site, errors);
                        }
                        Err(msg) => err(errors, ErrorKind::Binding, format!("{}: {msg}", site())),
                    }
                }
                // Callee ordering constraints must hold under the binding
                // (e.g. Register<G, G+3> discharges L > G+1).
                for c in &info.sig.constraints {
                    let lhs = c.lhs.subst(&inv.binding);
                    let rhs = c.rhs.subst(&inv.binding);
                    let mut e = LinExpr::from_time(&lhs);
                    e.sub_assign(&LinExpr::from_time(&rhs));
                    if c.op == ConstraintOp::Gt {
                        e.konst -= 1;
                    }
                    let ok = match c.op {
                        ConstraintOp::Eq => {
                            let forward = env.entails_nonneg(&e);
                            let mut rev = LinExpr::from_time(&rhs);
                            rev.sub_assign(&LinExpr::from_time(&lhs));
                            let backward = env.entails_nonneg(&rev);
                            match (forward, backward) {
                                (Ok(a), Ok(b)) => Ok(a && b),
                                _ => Err(()),
                            }
                        }
                        _ => env.entails_nonneg(&e),
                    };
                    match ok {
                        Ok(true) => {}
                        Ok(false) => err(
                            errors,
                            ErrorKind::Constraint,
                            format!(
                                "invocation {name} does not satisfy {}'s constraint {c} \
                                 (instantiated: {lhs} vs {rhs})",
                                info.sig.name
                            ),
                        ),
                        Err(()) => err(
                            errors,
                            ErrorKind::Unsupported,
                            format!("cannot verify constraint {c} for invocation {name}"),
                        ),
                    }
                }
            }
            Command::Connect { dst, src } => {
                let Port::This(dst_name) = dst else {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("connection target {dst} must be an output of the component"),
                    );
                    continue;
                };
                let Some(out) = sig.output(dst_name) else {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!("connection target {dst_name} is not an output port"),
                    );
                    continue;
                };
                *driven_outputs.entry(dst_name.clone()).or_insert(0) += 1;
                let site = || format!("{dst_name} = {src}");
                match avail_of(src) {
                    Ok((avail, have)) => {
                        check_avail(&avail, &out.liveness, &site, errors);
                        check_width(&have, &out.width, src, &site, errors);
                    }
                    Err(msg) => err(errors, ErrorKind::Binding, format!("{}: {msg}", site())),
                }
            }
            Command::Instance { .. } => {}
            Command::ForGen { .. } | Command::IfGen { .. } => {}
        }
    }

    // Every output driven exactly once.
    for out in &sig.outputs {
        match driven_outputs.get(&out.name).copied().unwrap_or(0) {
            0 => err(
                errors,
                ErrorKind::Binding,
                format!("output port {} is never driven", out.name),
            ),
            1 => {}
            n => err(
                errors,
                ErrorKind::InstanceConflict,
                format!("output port {} is driven {n} times", out.name),
            ),
        }
    }

    // ---------------------------------------------------------------- pass 3
    // Per-invocation pipelining rules and per-instance conflict freedom.
    let own_delay = |event: &str| -> Option<u64> {
        sig.delay_of(event).and_then(|d| match d {
            Delay::Const(n) => Some(*n),
            Delay::Diff(..) => None,
        })
    };

    // Busy window of each invocation: (event var, offset, constant delay).
    let mut busy: HashMap<Id, (Id, u64, u64)> = HashMap::new();
    for (name, inv) in &invokes {
        let info = &instances[&inv.instance];
        let first = &info.sig.events[0];
        let start = Time::event(&first.name).subst(&inv.binding);
        let d = first.delay.subst(&inv.binding);
        match d.as_const() {
            Some(d) if d >= 0 => {
                busy.insert(name.clone(), (start.event.clone(), start.off(), d as u64));
            }
            Some(d) => err(
                errors,
                ErrorKind::DelayWellFormed,
                format!("invocation {name} has negative delay {d}"),
            ),
            None => err(
                errors,
                ErrorKind::Constraint,
                format!(
                    "invocation {name}: delay {} does not evaluate to a compile-time \
                     constant (Section 3.6 requires static pipelines)",
                    d
                ),
            ),
        }

        // Triggering subcomponents (Section 4.4): the scheduling event's
        // delay must cover the callee event's delay.
        for ev in &info.sig.events {
            let bound = &inv.binding[&ev.name];
            let callee_delay = ev.delay.subst(&inv.binding);
            let Some(dcaller) = own_delay(&bound.event) else {
                continue;
            };
            let mut e = LinExpr::constant(dcaller as i64);
            e.sub_assign(&LinExpr::from_delay(&callee_delay));
            match env.entails_nonneg(&e) {
                Ok(true) => {}
                Ok(false) => err(
                    errors,
                    ErrorKind::SafePipelining,
                    format!(
                        "cannot safely pipeline: event {} may retrigger every {} cycles \
                         but invocation {name} of {} needs {} cycles between uses",
                        bound.event, dcaller, info.sig.name, callee_delay
                    ),
                ),
                Err(()) => err(
                    errors,
                    ErrorKind::Unsupported,
                    format!("cannot verify pipelining of invocation {name}"),
                ),
            }
        }
    }

    for (inst_name, inv_names) in &uses {
        if inv_names.len() < 2 {
            continue;
        }
        // Dynamic reuse (Section 4.4): shared instances must be scheduled
        // with a single event variable.
        let mut windows: Vec<(u64, u64, &str)> = Vec::new();
        let mut var: Option<&str> = None;
        let mut dynamic = false;
        for name in inv_names {
            let Some((ev, off, d)) = busy.get(name) else {
                continue;
            };
            match var {
                None => var = Some(ev),
                Some(v) if v == ev => {}
                Some(_) => dynamic = true,
            }
            windows.push((*off, off + d, name));
        }
        if dynamic {
            err(
                errors,
                ErrorKind::SafePipelining,
                format!(
                    "instance {inst_name} is shared across different events; there is no \
                     compile-time constant delay for such dynamic reuse (Section 4.4)"
                ),
            );
            continue;
        }
        windows.sort();
        // Disjoint busy windows within one execution.
        for pair in windows.windows(2) {
            let (s0, e0, n0) = pair[0];
            let (s1, _, n1) = pair[1];
            if s1 < e0 {
                err(
                    errors,
                    ErrorKind::InstanceConflict,
                    format!(
                        "conflicting uses of instance {inst_name}: invocation {n0} is busy \
                         during [{}+{s0}, {}+{e0}) and invocation {n1} starts at {}+{s1}",
                        var.unwrap_or("?"),
                        var.unwrap_or("?"),
                        var.unwrap_or("?")
                    ),
                );
            }
        }
        // Reusing instances across pipelined executions (Section 4.4): the
        // scheduling event's delay must cover first-start to last-end.
        if let (Some(v), Some(&(first_start, ..)), Some(last_end)) = (
            var,
            windows.first(),
            windows.iter().map(|&(_, e, _)| e).max(),
        ) {
            let needed = last_end - first_start;
            if let Some(d) = own_delay(v) {
                if d < needed {
                    err(
                        errors,
                        ErrorKind::SafePipelining,
                        format!(
                            "event {v} may trigger every {d} cycles, causing shared uses of \
                             instance {inst_name} to conflict: its invocations span {needed} \
                             cycles, so the delay must be at least {needed}"
                        ),
                    );
                }
            }
        }
    }

    // Phantom check (Definition 5.1).
    for ev in &sig.events {
        if !sig.is_phantom(&ev.name) {
            continue;
        }
        let phantom = ev.name.as_str();
        for (name, inv) in &invokes {
            let info = &instances[&inv.instance];
            for cev in &info.sig.events {
                let bound = &inv.binding[&cev.name];
                if bound.event == phantom && !info.sig.is_phantom(&cev.name) {
                    err(
                        errors,
                        ErrorKind::Phantom,
                        format!(
                            "phantom event {phantom} cannot trigger invocation {name}: \
                             event {} of {} has interface port {} which cannot be \
                             reified (Definition 5.1)",
                            cev.name,
                            info.sig.name,
                            info.sig
                                .interface_of(&cev.name)
                                .map(|i| i.name.as_str())
                                .unwrap_or("?")
                        ),
                    );
                }
            }
        }
        for (inst_name, inv_names) in &uses {
            if inv_names.len() < 2 {
                continue;
            }
            let shared_on_phantom = inv_names
                .iter()
                .any(|n| busy.get(n).is_some_and(|(v, ..)| v == phantom));
            if shared_on_phantom {
                err(
                    errors,
                    ErrorKind::Phantom,
                    format!(
                        "phantom event {phantom} is used to share instance {inst_name}; \
                         sharing requires an FSM which needs a real interface port \
                         (Definition 5.1)"
                    ),
                );
            }
        }
    }
}
