//! Signature checking: hygiene, constraint consistency, interval
//! well-formedness, and delay well-formedness (Section 4.1).

use super::{CheckError, ErrorKind};
use crate::ast::{ConstExpr, ConstraintOp, Delay, Signature, Time};
use std::collections::HashSet;

/// A concrete time `event + off`, its event an index into a [`SigEnv`]'s
/// name table.
#[derive(Clone, Copy)]
pub(crate) struct CTime {
    pub ev: u32,
    pub off: u64,
}

/// An unbounded distance; sums of two stay far from overflow.
const FAR: i128 = i128::MAX / 4;

/// The difference-logic environment of a signature, solved once: the
/// `where` clauses as all-pairs shortest paths over its events, so every
/// entailment query is an array lookup. Offsets and gaps are `i128`, so
/// no obligation over `u64` offsets can wrap.
pub(crate) struct SigEnv<'a> {
    /// Event names: the signature's events, then unknown events its
    /// `where` clauses name (together the solver's variables), then any
    /// other name a query interned (unknown to the solver).
    names: Vec<&'a str>,
    /// How many leading `names` are solver variables.
    vars: usize,
    consistent: bool,
    /// `dist[x * vars + y]`: the least `d` with `y - x <= d` entailed, so
    /// `x - y >= -d` (`FAR`: unbounded). Empty without `where` clauses.
    dist: Vec<i128>,
}

impl<'a> SigEnv<'a> {
    /// Builds the environment for a signature. Unknown events in
    /// constraints are reported by [`check_signature`]; here they are
    /// interned anyway so entailment stays total. Callers run the
    /// concreteness pre-pass ([`super::signature_is_concrete`]) first, so
    /// constraint offsets are evaluable.
    pub fn new(sig: &'a Signature) -> Self {
        let names = sig.events.iter().map(|e| e.name.as_str()).collect();
        let mut env = SigEnv {
            names,
            vars: 0,
            consistent: true,
            dist: Vec::new(),
        };
        // lhs.event + lhs.off  OP  rhs.event + rhs.off, as `l - r >= gap`.
        let mut facts = Vec::with_capacity(2 * sig.constraints.len());
        for c in &sig.constraints {
            let (l, r) = (env.ev(&c.lhs.event) as usize, env.ev(&c.rhs.event) as usize);
            let base = i128::from(c.rhs.off()) - i128::from(c.lhs.off());
            match c.op {
                ConstraintOp::Gt => facts.push((l, r, base + 1)),
                ConstraintOp::Ge => facts.push((l, r, base)),
                ConstraintOp::Eq => facts.extend([(l, r, base), (r, l, -base)]),
            }
        }
        let n = env.names.len();
        env.vars = n;
        if facts.is_empty() {
            return env;
        }
        // Floyd–Warshall, stopping at the first negative cycle (the
        // clauses are unsatisfiable), before any distance can grow.
        let mut d = vec![FAR; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for (l, r, gap) in facts {
            d[l * n + r] = d[l * n + r].min(-gap);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    d[i * n + j] = d[i * n + j].min(d[i * n + k] + d[k * n + j]);
                }
            }
            if (0..n).any(|i| d[i * n + i] < 0) {
                env.consistent = false;
                return env;
            }
        }
        env.dist = d;
        env
    }

    /// True unless the `where` clauses are unsatisfiable.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// The index of an event name, interning a name the signature does not
    /// bind (which no query can relate to any other event).
    pub fn ev(&mut self, name: &'a str) -> u32 {
        let i = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        // Every name is an event of the source text, a few bytes each, so
        // the indices fit `u32` by far.
        u32::try_from(i).expect("event indices fit u32")
    }

    /// The name of an event index.
    pub fn name(&self, ev: u32) -> &'a str {
        self.names[ev as usize]
    }

    /// A time whose offset passed the concreteness pre-pass.
    pub fn time(&mut self, t: &'a Time) -> CTime {
        CTime {
            ev: self.ev(&t.event),
            off: t.off(),
        }
    }

    /// Whether the constraints entail `Σ pos − Σ neg + k >= 0` (at most
    /// four times in all).
    ///
    /// `Err(())` means the obligation falls outside the difference-logic
    /// fragment (more than two event variables after cancellation).
    pub fn entails(&self, pos: &[CTime], neg: &[CTime], k: i128) -> Result<bool, ()> {
        let mut konst = k;
        let mut coeffs = [(0u32, 0i8); 4];
        let mut len = 0;
        for (ts, sign) in [(pos, 1i8), (neg, -1)] {
            for t in ts {
                konst += i128::from(sign) * i128::from(t.off);
                match coeffs[..len].iter_mut().find(|c| c.0 == t.ev) {
                    Some(c) => c.1 += sign,
                    None => {
                        coeffs[len] = (t.ev, sign);
                        len += 1;
                    }
                }
            }
        }
        let mut live = coeffs[..len].iter().filter(|c| c.1 != 0);
        match (live.next(), live.next(), live.next()) {
            (None, ..) => Ok(konst >= 0),
            // x + k >= 0: a bound against a single variable is never
            // derivable from pure difference facts; events occur at
            // arbitrary cycles, so this holds only vacuously.
            (Some(_), None, _) => Ok(!self.consistent),
            (Some(&(x, 1)), Some(&(y, -1)), None) | (Some(&(y, -1)), Some(&(x, 1)), None) => {
                // x - y >= -konst, for events the solver knows.
                let (x, y) = (x as usize, y as usize);
                Ok(x < self.vars
                    && y < self.vars
                    && (!self.consistent
                        || self
                            .dist
                            .get(x * self.vars + y)
                            .is_some_and(|&d| d < FAR / 2 && d <= konst)))
            }
            _ => Err(()),
        }
    }

    /// Whether `a <= b` is entailed (always decidable).
    pub fn le(&self, a: CTime, b: CTime) -> bool {
        self.entails(&[b], &[a], 0) == Ok(true)
    }
}

/// Calls `dup` on every name equal to an earlier one, in order.
fn repeats<'s>(names: impl Iterator<Item = &'s str>, mut dup: impl FnMut(&'s str)) {
    let mut seen = HashSet::new();
    names.filter(|n| !seen.insert(*n)).for_each(&mut dup);
}

/// Ceiling on per-index interval validation of a closed bundle range: large
/// bundles are validated on a prefix (elaboration re-validates every index).
const MAX_BUNDLE_SCAN: u64 = 1024;

/// Validates derived (`some`) parameter declarations *symbolically*, before
/// any elaboration: a derivation may only reference parameters declared
/// earlier in the list (which makes cycles impossible by construction), may
/// not reference itself, and may not read instance parameters (no instance
/// is in scope in a signature).
pub(crate) fn check_derived_params(sig: &Signature, errors: &mut Vec<CheckError>) {
    for (i, decl) in sig.params.iter().enumerate() {
        let Some(expr) = &decl.derive else { continue };
        let p = &decl.name;
        for q in expr.params() {
            let earlier = sig.params[..i].iter().any(|e| e.name == q);
            if q == *p {
                err!(errors, sig.name, Binding:
                    "derivation of parameter {p} is cyclic: it references itself");
            } else if q.contains('.') {
                err!(errors, sig.name, Binding: "derivation of parameter {p} reads instance \
                    parameter {q}; instance parameters are only meaningful in component bodies");
            } else if !earlier && sig.has_param(&q) {
                err!(errors, sig.name, Binding: "derivation of parameter {p} uses {q} before \
                    its definition; derivations may only reference earlier parameters");
            } else if !earlier {
                err!(errors, sig.name, Binding:
                    "derivation of parameter {p} references unknown parameter {q}");
            }
        }
    }
}

/// Validates bundle ports *symbolically*, before elaboration: the index
/// binder must not shadow a component parameter, the index bounds may only
/// mention component parameters, width and interval offsets may additionally
/// mention the index variable — and when the index range is closed, every
/// element's interval is checked non-empty wherever its offsets evaluate.
pub(crate) fn check_bundles(sig: &Signature, errors: &mut Vec<CheckError>) {
    for p in sig.inputs.iter().chain(&sig.outputs) {
        let Some(b) = &p.bundle else { continue };
        let name = &p.name;
        if sig.has_param(&b.var) {
            err!(errors, sig.name, Binding:
                "bundle port {name}: index variable {} shadows a component parameter", b.var);
        }
        for q in b.lo.params().into_iter().chain(b.hi.params()) {
            if !sig.has_param(&q) {
                err!(errors, sig.name, Binding:
                    "bundle port {name}: index bound mentions unknown parameter {q}");
            }
        }
        let in_scope = |q: &str| sig.has_param(q) || q == b.var;
        for q in p.width.params().into_iter().filter(|q| !in_scope(q)) {
            err!(errors, sig.name, Binding: "bundle port {name} has unknown width parameter {q}");
        }
        for t in [&p.liveness.start, &p.liveness.end] {
            for q in t.offset.params().into_iter().filter(|q| !in_scope(q)) {
                err!(errors, sig.name, Binding:
                    "bundle port {name}: interval offset mentions unknown parameter {q}");
            }
        }
        // Closed index ranges: shape plus per-index interval checks.
        let (Ok(lo), Ok(hi)) = (b.lo.eval_closed(), b.hi.eval_closed()) else {
            continue;
        };
        if hi <= lo {
            err!(errors, sig.name, DelayWellFormed:
                "bundle port {name} has an empty index range {lo}..{hi}");
            continue;
        }
        let (start, end) = (&p.liveness.start, &p.liveness.end);
        for k in lo..hi.min(lo + MAX_BUNDLE_SCAN) {
            let env = std::collections::HashMap::from([(b.var.clone(), k)]);
            // Offsets mentioning component parameters stay symbolic here;
            // the intervals that *do* evaluate must be non-empty (the
            // "non-negative interval for every index" obligation — an
            // end-before-start offset pair subtracts below zero).
            let (Ok(s), Ok(e)) = (start.offset.eval(&env), end.offset.eval(&env)) else {
                continue;
            };
            if start.event == end.event && e < s + 1 {
                err!(errors, sig.name, DelayWellFormed: "interval of bundle element {name}[{k}] \
                    is empty: [{}+{s}, {}+{e})", start.event, end.event);
            }
        }
    }
}

/// Checks one signature, pushing diagnostics into `errors`.
pub(crate) fn check_signature(sig: &Signature, is_extern: bool, errors: &mut Vec<CheckError>) {
    // Bundle shape and derived-parameter declarations are validated
    // symbolically first — the temporal passes below only run on flattened
    // (concrete) signatures.
    check_derived_params(sig, errors);
    check_bundles(sig, errors);
    // Temporal checks need concrete offsets; generate-time arithmetic must
    // have been discharged by mono::expand.
    if !super::signature_is_concrete(sig, errors) {
        return;
    }
    let comp = &sig.name;

    // Hygiene: unique events, ports, params.
    repeats(sig.events.iter().map(|e| e.name.as_str()), |ev| {
        err!(errors, comp, Binding: "duplicate event {ev}");
    });
    if sig.events.is_empty() {
        err!(errors, comp, Binding: "component must bind at least one event");
    }
    let ports = sig.inputs.iter().chain(&sig.outputs);
    let port_names = sig
        .interfaces
        .iter()
        .map(|i| &i.name)
        .chain(ports.clone().map(|p| &p.name));
    repeats(port_names.map(String::as_str), |name| {
        err!(errors, comp, Binding: "duplicate port {name}");
    });
    repeats(sig.params.iter().map(|p| p.name.as_str()), |p| {
        err!(errors, comp, Binding: "duplicate parameter {p}");
    });

    // Interface ports: event exists, at most one per event.
    let has_event = |name: &str| sig.events.iter().any(|e| e.name == name);
    for (k, iface) in sig.interfaces.iter().enumerate() {
        let ev = &iface.event;
        if !has_event(ev) {
            err!(errors, comp, Binding: "interface port {} names unknown event {ev}", iface.name);
        }
        if sig.interfaces[..k].iter().any(|i| i.event == *ev) {
            err!(errors, comp, Binding: "event {ev} has more than one interface port");
        }
    }

    // All times reference declared events.
    let check_time = |t: &Time, site: &dyn Fn() -> String, errors: &mut Vec<CheckError>| {
        if !has_event(&t.event) {
            err!(errors, comp, Binding: "{} references unknown event {}", site(), t.event);
        }
    };
    for p in ports.clone() {
        let site = || format!("port {}", p.name);
        check_time(&p.liveness.start, &site, errors);
        check_time(&p.liveness.end, &site, errors);
        // Literal and single-parameter widths (the common forms) are
        // checked without collecting their parameters.
        match &p.width {
            ConstExpr::Lit(0) => {
                err!(errors, comp, Width: "port {} has width 0; a port is at least 1 bit wide", p.name);
                continue;
            }
            ConstExpr::Lit(_) => continue,
            ConstExpr::Param(w) if sig.has_param(w) => continue,
            _ => {}
        }
        for w in p.width.params().into_iter().filter(|w| !sig.has_param(w)) {
            if w.contains('.') {
                err!(errors, comp, Unelaborated: "port {} reads instance parameter {w} in its \
                    width; run mono::expand first", p.name);
            } else {
                err!(errors, comp, Binding: "port {} has unknown width parameter {w}", p.name);
            }
        }
    }
    for ev in &sig.events {
        if let Delay::Diff(a, b) = &ev.delay {
            let site = || format!("delay of event {}", ev.name);
            check_time(a, &site, errors);
            check_time(b, &site, errors);
        }
    }
    for c in &sig.constraints {
        let site = || "where clause".to_owned();
        check_time(&c.lhs, &site, errors);
        check_time(&c.rhs, &site, errors);
    }

    // User-level components may not relate events (Section 4.4: delays must
    // be compile-time constants and sharing uses a single event).
    if !is_extern {
        if !sig.constraints.is_empty() {
            err!(errors, comp, Constraint:
                "ordering constraints between events are only allowed on extern components");
        }
        for ev in sig
            .events
            .iter()
            .filter(|e| !matches!(e.delay, Delay::Const(_)))
        {
            err!(errors, comp, Constraint:
                "event {} of a user-level component must have a constant delay", ev.name);
        }
    }

    let mut env = SigEnv::new(sig);
    if !env.is_consistent() {
        err!(errors, comp, Constraint: "ordering constraints are unsatisfiable");
        return; // Everything below would be vacuously true.
    }
    // Intervals are non-empty: end >= start + 1.
    for p in ports.clone() {
        let (start, end) = (env.time(&p.liveness.start), env.time(&p.liveness.end));
        if env.entails(&[end], &[start], -1) != Ok(true) {
            err!(errors, comp, DelayWellFormed:
                "interval {} of port {} may be empty", p.liveness, p.name);
        }
    }
    // Delays are non-negative (a constant one trivially).
    for ev in &sig.events {
        if let Delay::Diff(a, b) = &ev.delay {
            let (a, b) = (env.time(a), env.time(b));
            if !env.le(b, a) {
                err!(errors, comp, DelayWellFormed:
                    "delay {} of event {} may be negative", ev.delay, ev.name);
            }
        }
    }

    // Delay well-formedness (Section 4.1): for each event, its delay is at
    // least the length of every interval that mentions it. An interval is
    // attributed to its *start* event: re-execution shifts the interval's
    // start by that event's delay, so covering the length there is exactly
    // what rules out overlap (the register's `out: [G+1, L)` is covered by
    // `G`'s delay `L-(G+1)`, while `L`'s delay 1 governs intervals starting
    // at `L`).
    for ev in &sig.events {
        for p in ports.clone().filter(|p| p.liveness.start.event == ev.name) {
            let (start, end) = (env.time(&p.liveness.start), env.time(&p.liveness.end));
            // delay - (end - start) >= 0.
            let covered = match &ev.delay {
                Delay::Const(n) => env.entails(&[start], &[end], i128::from(*n)),
                Delay::Diff(a, b) => {
                    let (a, b) = (env.time(a), env.time(b));
                    env.entails(&[a, start], &[b, end], 0)
                }
            };
            let (e, d, l) = (&ev.name, &ev.delay, &p.liveness);
            match covered {
                Ok(true) => {}
                Ok(false) => err!(errors, comp, DelayWellFormed: "event {e} may retrigger every \
                    {d} cycles but port {} is live for {l} — the delay of an event must be at \
                    least as long as any interval that mentions it (Section 4.1)", p.name),
                Err(()) => err!(errors, comp, Unsupported:
                    "cannot verify that delay {d} of event {e} covers interval {l} of {}", p.name),
            }
        }
    }
}
