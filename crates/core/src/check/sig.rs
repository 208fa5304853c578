//! Signature checking: hygiene, constraint consistency, interval
//! well-formedness, and delay well-formedness (Section 4.1).

use super::{CheckError, ErrorKind};
use crate::ast::{ConstraintOp, Delay, LinExpr, Signature, Time};
use fil_solver::DiffSolver;
use std::collections::HashSet;

/// The solver environment derived from a signature: one difference-logic
/// variable per event, seeded with the `where` clauses.
#[derive(Debug, Clone)]
pub(crate) struct SigEnv {
    pub solver: DiffSolver,
}

impl SigEnv {
    /// Builds the environment for a signature. Unknown events in constraints
    /// are reported by [`check_signature`]; here they are interned anyway so
    /// entailment stays total. Callers run the concreteness pre-pass
    /// ([`super::signature_is_concrete`]) first, so constraint offsets are
    /// evaluable.
    pub fn new(sig: &Signature) -> Self {
        let mut solver = DiffSolver::new();
        for ev in &sig.events {
            solver.var(&ev.name);
        }
        for c in &sig.constraints {
            let l = solver.var(&c.lhs.event);
            let r = solver.var(&c.rhs.event);
            // lhs.event + lhs.off  OP  rhs.event + rhs.off
            let base = c.rhs.off() as i64 - c.lhs.off() as i64;
            match c.op {
                ConstraintOp::Gt => solver.assume(l, r, base + 1),
                ConstraintOp::Ge => solver.assume(l, r, base),
                ConstraintOp::Eq => {
                    solver.assume(l, r, base);
                    solver.assume(r, l, -base);
                }
            }
        }
        SigEnv { solver }
    }

    /// Whether the constraints entail `e >= 0`.
    ///
    /// `Err(())` means the obligation falls outside the difference-logic
    /// fragment (more than two event variables after cancellation).
    pub fn entails_nonneg(&self, e: &LinExpr) -> Result<bool, ()> {
        if let Some(k) = e.as_const() {
            return Ok(k >= 0);
        }
        if e.coeffs.len() == 1 {
            // x + k >= 0 or -x + k >= 0: a bound against a single variable
            // is never derivable from pure difference facts unless trivial;
            // treat the event variable as unbounded (events occur at
            // arbitrary cycles), so this only holds vacuously when the
            // constraints are inconsistent.
            return Ok(!self.solver.is_consistent());
        }
        match e.as_difference() {
            Some((pos, neg, k)) => {
                let (Some(p), Some(n)) = (self.solver.lookup(pos), self.solver.lookup(neg)) else {
                    return Ok(false);
                };
                // pos - neg + k >= 0  ⟺  pos - neg >= -k.
                Ok(self.solver.entails(p, n, -k))
            }
            None => Err(()),
        }
    }

    /// Whether `a <= b` is entailed.
    pub fn time_le(&self, a: &Time, b: &Time) -> Result<bool, ()> {
        if a.event == b.event {
            // The event cancels: a constant obligation, no map to build.
            return self.entails_nonneg(&LinExpr::constant(b.off() as i64 - a.off() as i64));
        }
        let mut e = LinExpr::from_time(b);
        e.sub_assign(&LinExpr::from_time(a));
        self.entails_nonneg(&e)
    }
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
    let mut earlier: HashSet<&str> = HashSet::new();
    for decl in &sig.params {
        if let Some(expr) = &decl.derive {
            for q in expr.params() {
                let msg = if q == decl.name {
                    Some(format!(
                        "derivation of parameter {} is cyclic: it references itself",
                        decl.name
                    ))
                } else if q.contains('.') {
                    Some(format!(
                        "derivation of parameter {} reads instance parameter {q}; \
                         instance parameters are only meaningful in component bodies",
                        decl.name
                    ))
                } else if earlier.contains(q.as_str()) {
                    None
                } else if sig.has_param(&q) {
                    Some(format!(
                        "derivation of parameter {} uses {q} before its definition; \
                         derivations may only reference earlier parameters",
                        decl.name
                    ))
                } else {
                    Some(format!(
                        "derivation of parameter {} references unknown parameter {q}",
                        decl.name
                    ))
                };
                if let Some(msg) = msg {
                    errors.push(CheckError::new(sig.name.clone(), ErrorKind::Binding, msg));
                }
            }
        }
        earlier.insert(decl.name.as_str());
    }
}

/// Validates bundle ports *symbolically*, before elaboration: the index
/// binder must not shadow a component parameter, the index bounds may only
/// mention component parameters, width and interval offsets may additionally
/// mention the index variable — and when the index range is closed, every
/// element's interval is checked non-empty wherever its offsets evaluate.
pub(crate) fn check_bundles(sig: &Signature, errors: &mut Vec<CheckError>) {
    let params: HashSet<&str> = sig.params.iter().map(|p| p.name.as_str()).collect();
    for p in sig.inputs.iter().chain(&sig.outputs) {
        let Some(b) = &p.bundle else { continue };
        let err = |errors: &mut Vec<CheckError>, kind, msg: String| {
            errors.push(CheckError::new(sig.name.clone(), kind, msg));
        };
        if params.contains(b.var.as_str()) {
            err(
                errors,
                ErrorKind::Binding,
                format!(
                    "bundle port {}: index variable {} shadows a component parameter",
                    p.name, b.var
                ),
            );
        }
        for bound in [&b.lo, &b.hi] {
            for q in bound.params() {
                if !params.contains(q.as_str()) {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!(
                            "bundle port {}: index bound mentions unknown parameter {q}",
                            p.name
                        ),
                    );
                }
            }
        }
        let in_scope = |q: &str| params.contains(q) || q == b.var;
        for q in p.width.params() {
            if !in_scope(&q) {
                err(
                    errors,
                    ErrorKind::Binding,
                    format!("bundle port {} has unknown width parameter {q}", p.name),
                );
            }
        }
        for t in [&p.liveness.start, &p.liveness.end] {
            for q in t.offset.params() {
                if !in_scope(&q) {
                    err(
                        errors,
                        ErrorKind::Binding,
                        format!(
                            "bundle port {}: interval offset mentions unknown parameter {q}",
                            p.name
                        ),
                    );
                }
            }
        }
        // Closed index ranges: shape plus per-index interval checks.
        let (Ok(lo), Ok(hi)) = (b.lo.eval_closed(), b.hi.eval_closed()) else {
            continue;
        };
        if hi <= lo {
            err(
                errors,
                ErrorKind::DelayWellFormed,
                format!("bundle port {} has an empty index range {lo}..{hi}", p.name),
            );
            continue;
        }
        for k in lo..hi.min(lo + MAX_BUNDLE_SCAN) {
            let mut env = std::collections::HashMap::new();
            env.insert(b.var.clone(), k);
            // Offsets mentioning component parameters stay symbolic here;
            // the intervals that *do* evaluate must be non-empty (the
            // "non-negative interval for every index" obligation — an
            // end-before-start offset pair subtracts below zero).
            let (Ok(s), Ok(e)) = (
                p.liveness.start.offset.eval(&env),
                p.liveness.end.offset.eval(&env),
            ) else {
                continue;
            };
            if p.liveness.start.event == p.liveness.end.event && e < s + 1 {
                err(
                    errors,
                    ErrorKind::DelayWellFormed,
                    format!(
                        "interval of bundle element {}[{k}] is empty: [{}+{s}, {}+{e})",
                        p.name, p.liveness.start.event, p.liveness.end.event
                    ),
                );
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
    let comp = sig.name.clone();
    let err = |errors: &mut Vec<CheckError>, kind, msg: String| {
        errors.push(CheckError::new(comp.clone(), kind, msg));
    };

    // Hygiene: unique events, ports, params.
    let mut events: HashSet<&str> = HashSet::new();
    for ev in &sig.events {
        if !events.insert(&ev.name) {
            err(
                errors,
                ErrorKind::Binding,
                format!("duplicate event {}", ev.name),
            );
        }
    }
    if sig.events.is_empty() {
        err(
            errors,
            ErrorKind::Binding,
            "component must bind at least one event".into(),
        );
    }
    let mut names: HashSet<&str> = HashSet::new();
    for name in sig
        .interfaces
        .iter()
        .map(|i| &i.name)
        .chain(sig.inputs.iter().map(|p| &p.name))
        .chain(sig.outputs.iter().map(|p| &p.name))
    {
        if !names.insert(name) {
            err(errors, ErrorKind::Binding, format!("duplicate port {name}"));
        }
    }
    let mut params: HashSet<&str> = HashSet::new();
    for p in &sig.params {
        if !params.insert(&p.name) {
            err(
                errors,
                ErrorKind::Binding,
                format!("duplicate parameter {}", p.name),
            );
        }
    }

    // Interface ports: event exists, at most one per event.
    let mut iface_events: HashSet<&str> = HashSet::new();
    for iface in &sig.interfaces {
        if !events.contains(iface.event.as_str()) {
            err(
                errors,
                ErrorKind::Binding,
                format!(
                    "interface port {} names unknown event {}",
                    iface.name, iface.event
                ),
            );
        }
        if !iface_events.insert(&iface.event) {
            err(
                errors,
                ErrorKind::Binding,
                format!("event {} has more than one interface port", iface.event),
            );
        }
    }

    // All times reference declared events.
    let check_time = |t: &Time, site: &dyn Fn() -> String, errors: &mut Vec<CheckError>| {
        if !events.contains(t.event.as_str()) {
            errors.push(CheckError::new(
                comp.clone(),
                ErrorKind::Binding,
                format!("{} references unknown event {}", site(), t.event),
            ));
        }
    };
    for p in sig.inputs.iter().chain(&sig.outputs) {
        let site = || format!("port {}", p.name);
        check_time(&p.liveness.start, &site, errors);
        check_time(&p.liveness.end, &site, errors);
        for w in p.width.params() {
            if params.contains(w.as_str()) {
                continue;
            }
            if w.contains('.') {
                err(
                    errors,
                    ErrorKind::Unelaborated,
                    format!(
                        "port {} reads instance parameter {w} in its width; run \
                         mono::expand first",
                        p.name
                    ),
                );
            } else {
                err(
                    errors,
                    ErrorKind::Binding,
                    format!("port {} has unknown width parameter {w}", p.name),
                );
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
            err(
                errors,
                ErrorKind::Constraint,
                "ordering constraints between events are only allowed on extern components".into(),
            );
        }
        for ev in &sig.events {
            if !matches!(ev.delay, Delay::Const(_)) {
                err(
                    errors,
                    ErrorKind::Constraint,
                    format!(
                        "event {} of a user-level component must have a constant delay",
                        ev.name
                    ),
                );
            }
        }
    }

    let env = SigEnv::new(sig);
    if !env.solver.is_consistent() {
        err(
            errors,
            ErrorKind::Constraint,
            "ordering constraints are unsatisfiable".into(),
        );
        return; // Everything below would be vacuously true.
    }

    // Intervals are non-empty: end >= start + 1.
    for p in sig.inputs.iter().chain(&sig.outputs) {
        let mut e = LinExpr::from_time(&p.liveness.end);
        e.sub_assign(&LinExpr::from_time(&p.liveness.start));
        e.konst -= 1;
        match env.entails_nonneg(&e) {
            Ok(true) => {}
            Ok(false) => err(
                errors,
                ErrorKind::DelayWellFormed,
                format!("interval {} of port {} may be empty", p.liveness, p.name),
            ),
            Err(()) => err(
                errors,
                ErrorKind::Unsupported,
                format!(
                    "cannot verify well-formedness of interval {} of port {}",
                    p.liveness, p.name
                ),
            ),
        }
    }

    // Delays are non-negative.
    for ev in &sig.events {
        let e = LinExpr::from_delay(&ev.delay);
        match env.entails_nonneg(&e) {
            Ok(true) => {}
            Ok(false) => err(
                errors,
                ErrorKind::DelayWellFormed,
                format!("delay {} of event {} may be negative", ev.delay, ev.name),
            ),
            Err(()) => err(
                errors,
                ErrorKind::Unsupported,
                format!(
                    "cannot verify non-negativity of delay {} of event {}",
                    ev.delay, ev.name
                ),
            ),
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
        for p in sig.inputs.iter().chain(&sig.outputs) {
            if p.liveness.start.event == ev.name {
                let mut oblig = LinExpr::from_delay(&ev.delay);
                oblig.sub_assign(&LinExpr::range_len(&p.liveness));
                match env.entails_nonneg(&oblig) {
                    Ok(true) => {}
                    Ok(false) => err(
                        errors,
                        ErrorKind::DelayWellFormed,
                        format!(
                            "event {} may retrigger every {} cycles but port {} is live for {} \
                             — the delay of an event must be at least as long as any interval \
                             that mentions it (Section 4.1)",
                            ev.name, ev.delay, p.name, p.liveness
                        ),
                    ),
                    Err(()) => err(
                        errors,
                        ErrorKind::Unsupported,
                        format!(
                            "cannot verify that delay {} of event {} covers interval {} of {}",
                            ev.delay, ev.name, p.liveness, p.name
                        ),
                    ),
                }
            }
        }
    }
}
