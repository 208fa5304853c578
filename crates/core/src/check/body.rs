//! Body checking: valid reads, conflict-free instance reuse, safe
//! pipelining, and the phantom check (Sections 4.2–4.4, 5.4).
//!
//! One pass over the body resolves every name, through a borrowed name
//! table, to a port position or an index into the instance and invocation
//! tables, diagnosing duplicates at insert. Schedules become [`CTime`]s,
//! so the later passes compare integers and report in body order.
//! Diagnostics are rendered from the AST, and only on failure.

use super::sig::{CTime, SigEnv};
use super::{CheckError, ErrorKind};
use crate::ast::{
    written, Command, Component, ConstEvalError, ConstExpr, ConstraintOp, Delay, Id, Port, Program,
    Range, Signature, Time,
};
use std::collections::HashMap;

/// What a name in the body resolves to.
#[derive(Clone, Copy)]
enum Def {
    Input(usize),
    Interface,
    Output(usize),
    Instance(usize),
    Invocation(usize),
    /// An instance or invocation that failed to check.
    Invalid,
}

#[derive(Clone, Copy)]
struct Instance<'a> {
    name: &'a str,
    sig: &'a Signature,
    params: &'a [ConstExpr],
    /// Start in `Body::values` of one value per callee parameter, when all
    /// are closed (always, after `mono::expand`).
    values: Option<usize>,
    /// The largest offset of any time in the callee's signature.
    reach: u64,
}

#[derive(Clone, Copy)]
struct Invocation<'a> {
    name: &'a str,
    /// Position of the command in the body.
    cmd: usize,
    inst: usize,
    /// The schedule as written, resolved at `Body::bound[first..]`: one
    /// caller time per callee event.
    events: &'a [Time],
    first: usize,
    args: &'a [Port],
}

/// An interval as written (over the callee's events for an invocation's
/// port) and resolved.
struct Span<'a> {
    range: &'a Range,
    inv: Option<usize>,
    start: CTime,
    end: CTime,
}

/// A width as written (over the callee's parameters for an instance's
/// port) and its value when closed.
struct Width<'a> {
    expr: &'a ConstExpr,
    inst: Option<usize>,
    val: Option<u64>,
}

static ONE: ConstExpr = ConstExpr::Lit(1);

struct Body<'a> {
    sig: &'a Signature,
    env: SigEnv<'a>,
    defs: HashMap<&'a str, Def>,
    instances: Vec<Instance<'a>>,
    invokes: Vec<Invocation<'a>>,
    bound: Vec<CTime>,
    values: Vec<u64>,
    errors: Vec<CheckError>,
}

pub(crate) fn check_body(program: &Program, comp: &Component, errors: &mut Vec<CheckError>) {
    // The temporal passes need concrete offsets and flat names; residual
    // generate constructs were already reported (for the signature) by
    // check_signature, so use a scratch buffer there to avoid duplicates.
    let sig_ok = super::signature_is_concrete(&comp.sig, &mut Vec::new());
    if !super::body_is_concrete(comp, errors) || !sig_ok {
        return;
    }
    let mut body = Body::new(&comp.sig, comp.body.len());
    body.collect(program, &comp.body);
    body.reads(&comp.body);
    body.schedule();
    errors.append(&mut body.errors);
}

/// The callee event position a name binds (the last, as a name-keyed
/// binding map keeps).
fn slot(callee: &Signature, event: &str) -> Option<usize> {
    callee.events.iter().rposition(|e| e.name == event)
}

/// The largest offset of any time in a concrete signature.
fn reach(sig: &Signature) -> u64 {
    let ports = sig.inputs.iter().chain(&sig.outputs);
    let delays = sig.events.iter().filter_map(|e| match &e.delay {
        Delay::Const(_) => None,
        Delay::Diff(a, b) => Some([a, b]),
    });
    let clauses = sig.constraints.iter().flat_map(|c| [&c.lhs, &c.rhs]);
    let ports = ports.flat_map(|p| [&p.liveness.start, &p.liveness.end]);
    let times = ports.chain(delays.flatten()).chain(clauses);
    times.map(Time::off).max().unwrap_or(0)
}

/// Evaluates `expr` over the first `vals.len()` parameters of `sig`.
fn eval_over(expr: &ConstExpr, sig: &Signature, vals: &[u64]) -> Option<u64> {
    let names = &sig.params[..vals.len()];
    let value = |leaf: &ConstExpr| match leaf {
        ConstExpr::Param(p) => names.iter().position(|d| d.name == *p).map(|i| vals[i]),
        _ => None,
    };
    let unbound = || ConstEvalError::Unbound(Id::new());
    expr.eval_by(&|leaf| value(leaf).ok_or_else(unbound)).ok()
}

/// Appends one value per parameter of `callee`, bound as
/// [`Signature::param_exprs`] binds them, when every one is closed.
fn closed_params(callee: &Signature, given: &[ConstExpr], out: &mut Vec<u64>) -> bool {
    let start = out.len();
    let full = callee.is_full_value_count(given.len());
    let mut supplied = given.iter();
    for decl in &callee.params {
        let v = match (&decl.derive, full) {
            (Some(expr), false) => eval_over(expr, callee, &out[start..]),
            _ => supplied.next().and_then(|e| e.eval_closed().ok()),
        };
        let Some(v) = v else {
            out.truncate(start);
            return false;
        };
        out.push(v);
    }
    true
}

impl<'a> Body<'a> {
    fn new(sig: &'a Signature, cmds: usize) -> Self {
        let ports = sig.inputs.len() + sig.interfaces.len() + sig.outputs.len();
        let mut defs = HashMap::with_capacity(ports + cmds);
        // Clashing port names (a signature error) resolve as reads do:
        // inputs first, then interfaces, then outputs.
        for (i, p) in sig.inputs.iter().enumerate() {
            defs.entry(p.name.as_str()).or_insert(Def::Input(i));
        }
        for f in &sig.interfaces {
            defs.entry(f.name.as_str()).or_insert(Def::Interface);
        }
        for (i, p) in sig.outputs.iter().enumerate() {
            defs.entry(p.name.as_str()).or_insert(Def::Output(i));
        }
        let env = SigEnv::new(sig);
        let (instances, invokes, bound) = (Vec::new(), Vec::new(), Vec::new());
        let (values, errors) = (Vec::new(), Vec::new());
        Body {
            sig,
            env,
            defs,
            instances,
            invokes,
            bound,
            values,
            errors,
        }
    }

    // ---------------------------------------------------------------- pass 1

    /// Collects instances and invocations into the tables. A name is
    /// defined even when its command fails to check, so later uses report
    /// the failed definition, not an unknown name.
    fn collect(&mut self, program: &'a Program, body: &'a [Command]) {
        for (cmd, c) in body.iter().enumerate() {
            let name = match c {
                Command::Instance { name, .. } | Command::Invoke { name, .. } => name.base.as_str(),
                // Connections are checked in pass 2; generate constructs
                // were ruled out by the concreteness pre-pass.
                _ => continue,
            };
            if self.defs.contains_key(name) {
                err!(self.errors, self.sig.name, Binding: "duplicate definition of {name}");
                continue;
            }
            let def = match c {
                Command::Instance {
                    component, params, ..
                } => self.instance(program, name, component, params),
                Command::Invoke {
                    instance,
                    events,
                    args,
                    ..
                } => self.invoke(name, cmd, &instance.base, events, args),
                _ => None,
            };
            self.defs.insert(name, def.unwrap_or(Def::Invalid));
        }
    }

    fn instance(
        &mut self,
        program: &'a Program,
        name: &'a str,
        component: &str,
        params: &'a [ConstExpr],
    ) -> Option<Def> {
        let (comp, errors) = (&self.sig.name, &mut self.errors);
        let Some(callee) = program.sig(component) else {
            err!(errors, comp, Binding: "instance {} references unknown component \
                {component}", written(name));
            return None;
        };
        if callee.name == *comp {
            err!(errors, comp, Binding: "component {comp} may not instantiate itself");
            return None;
        }
        if !super::signature_is_concrete(callee, &mut Vec::new()) {
            // The callee reports its own diagnostics; here we only refuse
            // to reason about symbolic intervals.
            err!(errors, comp, Unelaborated: "instance {} instantiates {component}, whose \
                signature contains unelaborated parameter arithmetic", written(name));
            return None;
        }
        // An instantiation supplies one value per *free* parameter;
        // mono::expand's output for externs carries the full list (derived
        // values appended), which is equally valid.
        let free = callee.free_param_count();
        if params.len() != free && !callee.is_full_value_count(params.len()) {
            err!(errors, comp, Binding: "instance {}: component {component} takes {free} \
                parameters, got {}", written(name), params.len());
            return None;
        }
        for q in params.iter().flat_map(ConstExpr::params) {
            if self.sig.has_param(&q) {
            } else if q.contains('.') {
                err!(errors, comp, Unelaborated:
                    "instance {}: instance parameter {q} not resolved; run mono::expand first",
                    written(name));
            } else {
                err!(errors, comp, Binding: "instance {}: unknown parameter {q}", written(name));
            }
        }
        let start = self.values.len();
        let values = closed_params(callee, params, &mut self.values).then_some(start);
        let (sig, reach) = (callee, reach(callee));
        self.instances.push(Instance {
            name,
            sig,
            params,
            values,
            reach,
        });
        Some(Def::Instance(self.instances.len() - 1))
    }

    fn invoke(
        &mut self,
        name: &'a str,
        cmd: usize,
        instance: &str,
        events: &'a [Time],
        args: &'a [Port],
    ) -> Option<Def> {
        let comp = &self.sig.name;
        let Some(&Def::Instance(inst)) = self.defs.get(instance) else {
            err!(self.errors, comp, Binding: "invocation {name} uses unknown instance {}",
                written(instance));
            return None;
        };
        let callee = self.instances[inst].sig;
        if events.len() != callee.events.len() {
            err!(self.errors, comp, Binding: "invocation {name}: component {} binds {} events, \
                got {}", callee.name, callee.events.len(), events.len());
            return None;
        }
        let first = self.bound.len();
        for t in events {
            let Some(ev) = self.sig.events.iter().position(|e| e.name == t.event) else {
                err!(self.errors, comp, Binding:
                    "invocation {name} scheduled with unknown event {}", t.event);
                continue;
            };
            // A signature's events are parsed from its source text, a few
            // bytes each, so their indices fit `u32` by far.
            let ev = u32::try_from(ev).expect("event indices fit u32");
            let off = t.off();
            self.bound.push(CTime { ev, off });
        }
        let reach = self.instances[inst].reach;
        let past_end = events.iter().find(|t| t.off().checked_add(reach).is_none());
        if let Some(t) = past_end {
            err!(self.errors, comp, Unsupported: "invocation {name}: scheduled at {t}, the \
                times of {} run past the last representable cycle", callee.name);
        }
        if self.bound.len() - first != events.len() || past_end.is_some() {
            self.bound.truncate(first);
            return None;
        }
        let inv = Invocation {
            name,
            cmd,
            inst,
            events,
            first,
            args,
        };
        self.invokes.push(inv);
        Some(Def::Invocation(self.invokes.len() - 1))
    }

    // ---------------------------------------------------------------- pass 2

    /// Valid reads: invocation arguments and connections.
    fn reads(&mut self, body: &'a [Command]) {
        let mut driven = vec![0u32; self.sig.outputs.len()];
        let mut next = 0;
        for (k, cmd) in body.iter().enumerate() {
            match cmd {
                Command::Invoke { .. } if self.invokes.get(next).is_some_and(|i| i.cmd == k) => {
                    self.arguments(next);
                    next += 1;
                }
                Command::Connect { dst, src } => self.connect(dst, src, &mut driven),
                _ => {}
            }
        }
        // Every output driven exactly once.
        for (out, n) in self.sig.outputs.iter().zip(driven) {
            match n {
                0 => err!(self.errors, self.sig.name, Binding:
                    "output port {} is never driven", out.name),
                1 => {}
                n => err!(self.errors, self.sig.name, InstanceConflict:
                    "output port {} is driven {n} times", out.name),
            }
        }
    }

    fn arguments(&mut self, j: usize) {
        let inv = self.invokes[j];
        let (callee, name) = (self.instances[inv.inst].sig, inv.name);
        if inv.args.len() != callee.inputs.len() {
            err!(self.errors, self.sig.name, Binding: "invocation {name}: component {} takes {} \
                inputs, got {}", callee.name, callee.inputs.len(), inv.args.len());
            return;
        }
        for (arg, pdef) in inv.args.iter().zip(&callee.inputs) {
            let req = self.span(&pdef.liveness, Some(j));
            let want = self.width(&pdef.width, Some(inv.inst));
            self.read(arg, &req, &want, &|| {
                format!("{name}.{} (argument {arg})", pdef.name)
            });
        }
        // Callee ordering constraints must hold under the binding (e.g.
        // Register<G, G+3> discharges L > G+1).
        for c in &callee.constraints {
            let (l, r) = (self.resolve(j, &c.lhs), self.resolve(j, &c.rhs));
            let holds = match c.op {
                ConstraintOp::Gt => self.env.entails(&[l], &[r], -1) == Ok(true),
                ConstraintOp::Ge => self.env.le(r, l),
                ConstraintOp::Eq => self.env.le(r, l) && self.env.le(l, r),
            };
            if !holds {
                let map = self.binding_map(j);
                let (l, r) = (c.lhs.subst(&map), c.rhs.subst(&map));
                err!(self.errors, self.sig.name, Constraint: "invocation {name} does not satisfy \
                    {}'s constraint {c} (instantiated: {l} vs {r})", callee.name);
            }
        }
    }

    fn connect(&mut self, dst: &'a Port, src: &'a Port, driven: &mut [u32]) {
        let Port::This(dst_name) = dst else {
            err!(self.errors, self.sig.name, Binding:
                "connection target {dst} must be an output of the component");
            return;
        };
        let Some(&Def::Output(o)) = self.defs.get(dst_name.as_str()) else {
            err!(self.errors, self.sig.name, Binding:
                "connection target {dst_name} is not an output port");
            return;
        };
        driven[o] += 1;
        let out = &self.sig.outputs[o];
        let (req, want) = (self.span(&out.liveness, None), Width::own(&out.width));
        self.read(src, &req, &want, &|| format!("{dst_name} = {src}"));
    }

    /// Checks a read of `port` where `req` and `want` are required.
    fn read(
        &mut self,
        port: &'a Port,
        req: &Span<'a>,
        want: &Width<'a>,
        site: &dyn Fn() -> String,
    ) {
        let (avail, have) = match self.avail_of(port) {
            Ok(found) => found,
            Err(msg) => {
                err!(self.errors, self.sig.name, Binding: "{}: {msg}", site());
                return;
            }
        };
        // Availability ⊇ requirement (Section 4.2).
        if let Some(a) = avail {
            if !(self.env.le(a.start, req.start) && self.env.le(req.end, a.end)) {
                let (a, req) = (self.show(&a), self.show(req));
                err!(self.errors, self.sig.name, Availability:
                    "{}: available for {a} but required during {req}", site());
            }
        }
        if let Port::Lit(n) = port {
            // A literal adapts to the required width if it fits.
            if let Some(w) = want.val.filter(|&w| w < 64 && *n >= (1u64 << w)) {
                err!(self.errors, self.sig.name, Width:
                    "{}: literal {n} does not fit in {w} bits", site());
            }
            return;
        }
        // Closed widths compare as values (`2*16` agrees with `32`);
        // symbolic widths must match structurally.
        let same = match (have.val, want.val) {
            (Some(h), Some(w)) => h == w,
            (None, None) => self.written(&have).norm() == self.written(want).norm(),
            _ => false,
        };
        if !same {
            let (want, have) = (self.written(want), self.written(&have));
            err!(self.errors, self.sig.name, Width:
                "{}: expected width {want}, found {have}", site());
        }
    }

    /// The availability (`None`: always, for control signals and
    /// constants) and width of a readable value: an own input or interface
    /// port, a constant, or an invocation output.
    fn avail_of(&mut self, port: &'a Port) -> Result<(Option<Span<'a>>, Width<'a>), String> {
        match port {
            Port::Lit(_) => Ok((None, Width::own(&ONE))),
            // Ruled out by the concreteness pre-pass.
            Port::Bundle { .. } | Port::InvBundle { .. } => Err(format!(
                "bundle element {port} not flattened; run mono::expand first"
            )),
            Port::This(p) => match self.defs.get(p.as_str()) {
                Some(&Def::Input(i)) => {
                    let def = &self.sig.inputs[i];
                    Ok((Some(self.span(&def.liveness, None)), Width::own(&def.width)))
                }
                Some(Def::Interface) => Ok((None, Width::own(&ONE))),
                Some(Def::Output(_)) => Err(format!("output port {p} cannot be read")),
                _ => Err(format!("unknown port {p}")),
            },
            Port::Inv { invocation, port } => {
                let Some(&Def::Invocation(j)) = self.defs.get(invocation.base.as_str()) else {
                    return Err(format!("unknown invocation {invocation}"));
                };
                let inst = self.invokes[j].inst;
                let callee = self.instances[inst].sig;
                let Some(def) = callee.output(port) else {
                    return Err(format!(
                        "component {} has no output port {port}",
                        callee.name
                    ));
                };
                let span = self.span(&def.liveness, Some(j));
                Ok((Some(span), self.width(&def.width, Some(inst))))
            }
        }
    }

    // ---------------------------------------------------------------- pass 3

    /// Per-invocation pipelining rules, per-instance conflict freedom, and
    /// the phantom check, all in body order.
    fn schedule(&mut self) {
        let busy: Vec<_> = (0..self.invokes.len())
            .map(|j| self.pipelining(j))
            .collect();
        let mut uses = vec![0u32; self.instances.len()];
        for inv in &self.invokes {
            uses[inv.inst] += 1;
        }
        let shared: Vec<usize> = (0..uses.len()).filter(|&i| uses[i] >= 2).collect();
        let invokes = &self.invokes;
        let uses_of = |i| {
            invokes
                .iter()
                .zip(&busy)
                .filter(move |(inv, _)| inv.inst == i)
        };
        for &i in &shared {
            // Dynamic reuse (Section 4.4): shared instances must be
            // scheduled with a single event variable.
            let mut windows: Vec<(i128, i128, &str)> = Vec::new();
            let (mut var, mut dynamic) = (None, false);
            for (inv, b) in uses_of(i) {
                let Some((ev, start, end)) = *b else { continue };
                dynamic |= var.is_some_and(|v| v != ev);
                var = var.or(Some(ev));
                windows.push((start, end, inv.name));
            }
            let inst = self.instances[i].name;
            if dynamic {
                err!(self.errors, self.sig.name, SafePipelining: "instance {inst} is shared across \
                    different events; there is no compile-time constant delay for such dynamic \
                    reuse (Section 4.4)");
                continue;
            }
            let Some(v) = var else { continue };
            let vn = self.env.name(v);
            windows.sort_unstable();
            // Disjoint busy windows within one execution.
            for pair in windows.windows(2) {
                let ((s0, e0, n0), (s1, _, n1)) = (pair[0], pair[1]);
                if s1 < e0 {
                    err!(self.errors, self.sig.name, InstanceConflict: "conflicting uses of \
                        instance {inst}: invocation {n0} is busy during [{vn}+{s0}, {vn}+{e0}) \
                        and invocation {n1} starts at {vn}+{s1}");
                }
            }
            // Reusing instances across pipelined executions (Section 4.4):
            // the scheduling event's delay must cover first-start to
            // last-end.
            let needed = windows.iter().map(|w| w.1).max().unwrap_or(0) - windows[0].0;
            if let Some(d) = self.own_delay(v).filter(|&d| i128::from(d) < needed) {
                err!(self.errors, self.sig.name, SafePipelining: "event {vn} may trigger every {d} \
                    cycles, causing shared uses of instance {inst} to conflict: its invocations \
                    span {needed} cycles, so the delay must be at least {needed}");
            }
        }
        // Phantom check (Definition 5.1).
        for ev in &self.sig.events {
            if !self.sig.is_phantom(&ev.name) {
                continue;
            }
            let (phantom, p) = (ev.name.as_str(), self.env.ev(&ev.name));
            for inv in invokes {
                let callee = self.instances[inv.inst].sig;
                for (e, cev) in callee.events.iter().enumerate() {
                    let s = slot(callee, &cev.name).unwrap_or(e);
                    if self.bound[inv.first + s].ev != p || callee.is_phantom(&cev.name) {
                        continue;
                    }
                    let port = callee.interface_of(&cev.name).map_or("?", |i| &i.name);
                    err!(self.errors, self.sig.name, Phantom: "phantom event {phantom} cannot \
                        trigger invocation {}: event {} of {} has interface port {port} which \
                        cannot be reified (Definition 5.1)", inv.name, cev.name, callee.name);
                }
            }
            for &i in &shared {
                if uses_of(i).any(|(_, b)| b.is_some_and(|b| b.0 == p)) {
                    err!(self.errors, self.sig.name, Phantom: "phantom event {phantom} is used to \
                        share instance {}; sharing requires an FSM which needs a real interface \
                        port (Definition 5.1)", self.instances[i].name);
                }
            }
        }
    }

    /// Checks the pipelining rules of invocation `j`, returning its busy
    /// window `(event, start, end)` when its delay is a constant.
    fn pipelining(&mut self, j: usize) -> Option<(u32, i128, i128)> {
        let inv = self.invokes[j];
        let (callee, name) = (self.instances[inv.inst].sig, inv.name);
        let mut busy = None;
        if let Some(first) = callee.events.first() {
            let start = self.bound[inv.first + slot(callee, &first.name).unwrap_or(0)];
            let delay = match &first.delay {
                Delay::Const(n) => Some(i128::from(*n)),
                Delay::Diff(a, b) => {
                    let (a, b) = (self.resolve(j, a), self.resolve(j, b));
                    (a.ev == b.ev).then(|| i128::from(a.off) - i128::from(b.off))
                }
            };
            let s = i128::from(start.off);
            match delay {
                Some(d) if d >= 0 => busy = Some((start.ev, s, s + d)),
                Some(d) => err!(self.errors, self.sig.name, DelayWellFormed:
                    "invocation {name} has negative delay {d}"),
                None => {
                    let d = first.delay.subst(&self.binding_map(j));
                    err!(self.errors, self.sig.name, Constraint: "invocation {name}: delay {d} does \
                        not evaluate to a compile-time constant (Section 3.6 requires static \
                        pipelines)");
                }
            }
        }
        // Triggering subcomponents (Section 4.4): the scheduling event's
        // delay must cover the callee event's delay.
        for (e, ev) in callee.events.iter().enumerate() {
            let bound = self.bound[inv.first + slot(callee, &ev.name).unwrap_or(e)];
            let Some(dcaller) = self.own_delay(bound.ev) else {
                continue;
            };
            let covered = match &ev.delay {
                Delay::Const(n) => dcaller >= *n,
                Delay::Diff(a, b) => {
                    let (a, b) = (self.resolve(j, a), self.resolve(j, b));
                    self.env.entails(&[b], &[a], i128::from(dcaller)) == Ok(true)
                }
            };
            if !covered {
                let event = self.env.name(bound.ev);
                let d = ev.delay.subst(&self.binding_map(j));
                err!(self.errors, self.sig.name, SafePipelining: "cannot safely pipeline: event \
                    {event} may retrigger every {dcaller} cycles but invocation {name} of {} needs \
                    {d} cycles between uses", callee.name);
            }
        }
        busy
    }

    // --------------------------------------------------------------- helpers

    /// The declared constant delay of an own event.
    fn own_delay(&self, ev: u32) -> Option<u64> {
        match self.sig.events.get(ev as usize)?.delay {
            Delay::Const(n) => Some(n),
            Delay::Diff(..) => None,
        }
    }

    /// A time of invocation `j`'s callee as a caller time; an event the
    /// callee does not bind names the caller's event of that name.
    fn resolve(&mut self, j: usize, t: &'a Time) -> CTime {
        let inv = self.invokes[j];
        let Some(s) = slot(self.instances[inv.inst].sig, &t.event) else {
            return self.env.time(t);
        };
        // Registration bounded the callee's offsets: this cannot overflow.
        let b = self.bound[inv.first + s];
        let off = b.off + t.off();
        CTime { ev: b.ev, off }
    }

    fn span(&mut self, range: &'a Range, inv: Option<usize>) -> Span<'a> {
        let (start, end) = match inv {
            Some(j) => (self.resolve(j, &range.start), self.resolve(j, &range.end)),
            None => (self.env.time(&range.start), self.env.time(&range.end)),
        };
        Span {
            range,
            inv,
            start,
            end,
        }
    }

    /// The callee-event → caller-time map of invocation `j`, to render a
    /// diagnostic in the AST's terms.
    fn binding_map(&self, j: usize) -> HashMap<Id, Time> {
        let inv = self.invokes[j];
        let callee = self.instances[inv.inst].sig;
        let events = callee.events.iter().map(|e| e.name.clone());
        events.zip(inv.events.iter().cloned()).collect()
    }

    fn show(&self, span: &Span<'_>) -> String {
        match span.inv {
            Some(j) => span.range.subst(&self.binding_map(j)).to_string(),
            None => span.range.to_string(),
        }
    }

    fn width(&self, expr: &'a ConstExpr, inst: Option<usize>) -> Width<'a> {
        let Some(info) = inst.map(|i| &self.instances[i]) else {
            return Width::own(expr);
        };
        let val = match info.values {
            Some(v) => eval_over(expr, info.sig, &self.values[v..v + info.sig.params.len()]),
            None => expr
                .subst_exprs(&info.sig.param_exprs(info.params))
                .eval_closed()
                .ok(),
        };
        Width { expr, inst, val }
    }

    /// A width as the caller sees it: callee parameters replaced by the
    /// instantiation's expressions.
    fn written(&self, w: &Width<'_>) -> ConstExpr {
        match w.inst.map(|i| &self.instances[i]) {
            Some(info) => w.expr.subst_exprs(&info.sig.param_exprs(info.params)),
            None => w.expr.clone(),
        }
    }
}

impl<'a> Width<'a> {
    /// A width over the component's own parameters.
    fn own(expr: &'a ConstExpr) -> Self {
        let (inst, val) = (None, expr.eval_closed().ok());
        Width { expr, inst, val }
    }
}
