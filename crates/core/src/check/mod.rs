//! Filament's timeline type system (Section 4 and Appendix A.3).
//!
//! Checking proceeds in two phases, mirroring the paper:
//!
//! 1. **Signature checking** (`sig`): binding hygiene, `where`-clause
//!    consistency, interval well-formedness, and *delay well-formedness*
//!    (Section 4.1: an event's delay covers every interval that mentions it).
//! 2. **Body checking** (`body`): valid reads (availability ⊇ requirement,
//!    Section 4.2), conflict-free instance reuse via disjoint busy intervals
//!    (the separating split of Section 6.2), safe pipelining (Section 4.4:
//!    subcomponent delays, shared-instance completion, single-event sharing),
//!    and the phantom check (Definition 5.1).
//!
//! Every temporal obligation is an inequality over concrete times
//! (`event + offset`, offsets compared in `i128` so none can wrap),
//! discharged either by constant evaluation or against the signature's
//! `where` clauses, solved once per signature as difference logic.

#![deny(clippy::cast_possible_wrap, clippy::cast_sign_loss)]

/// Pushes a diagnostic of an [`ErrorKind`] for a component:
/// `err!(errors, component, Kind: "format", args..)`.
macro_rules! err {
    ($errors:expr, $comp:expr, $kind:ident: $($msg:tt)+) => {
        $errors.push(CheckError::new($comp.clone(), ErrorKind::$kind, format!($($msg)+)))
    };
}

mod body;
mod sig;

use crate::ast::{Command, Component, Delay, IName, Id, Port, Program, Signature, Time};
use std::collections::HashSet;
use std::fmt;

/// The category of a type error — stable across message wording, so tests
/// and tools can match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Name resolution, arity, or duplicate-definition problems.
    Binding,
    /// Bit-width disagreement.
    Width,
    /// A value was read outside its availability interval (Section 4.2).
    Availability,
    /// An event's delay does not cover an interval that mentions it
    /// (Section 4.1), or a malformed interval/delay.
    DelayWellFormed,
    /// Two uses of an instance overlap (Sections 4.2 and 6.2).
    InstanceConflict,
    /// A pipelining rule of Section 4.4 is violated.
    SafePipelining,
    /// A phantom event is misused (Definition 5.1).
    Phantom,
    /// Ordering constraints are inconsistent, or appear on a user-level
    /// component (disallowed by Section 4.4).
    Constraint,
    /// The obligation falls outside the supported difference-logic fragment.
    Unsupported,
    /// The component still contains generate constructs (`for` loops,
    /// indexed names, or symbolic parameter arithmetic in time offsets);
    /// run [`crate::mono::expand`] before checking.
    Unelaborated,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Binding => "binding",
            ErrorKind::Width => "width",
            ErrorKind::Availability => "availability",
            ErrorKind::DelayWellFormed => "delay well-formedness",
            ErrorKind::InstanceConflict => "instance conflict",
            ErrorKind::SafePipelining => "safe pipelining",
            ErrorKind::Phantom => "phantom event",
            ErrorKind::Constraint => "constraint",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Unelaborated => "unelaborated generate construct",
        };
        write!(f, "{s}")
    }
}

/// A type error: the component it occurred in, its category, and a
/// paper-style diagnostic message (e.g. *"m0.out: available for [G+2, G+3)
/// but required during [G, G+1)"*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// The enclosing component.
    pub component: Id,
    /// Error category.
    pub kind: ErrorKind,
    /// Human-readable diagnostic.
    pub message: String,
}

impl CheckError {
    pub(crate) fn new(
        component: impl Into<Id>,
        kind: ErrorKind,
        message: impl Into<String>,
    ) -> Self {
        CheckError {
            component: component.into(),
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} error: {}",
            self.component, self.kind, self.message
        )
    }
}

impl std::error::Error for CheckError {}

/// The checker operates on *elaborated* programs — concrete time offsets,
/// flat names, no `for`-generate loops. These pre-passes report anything
/// [`crate::mono::expand`] would have removed, so the main passes can rely
/// on concrete offsets ([`Time::off`]) without panicking.
///
/// Like every diagnostic site in the checker, `site` is rendered only when
/// an error is pushed: the success path builds no strings.
fn concrete_time(
    t: &Time,
    site: &dyn Fn() -> String,
    comp: &Id,
    errors: &mut Vec<CheckError>,
) -> bool {
    let ok = t.offset_val().is_some();
    if !ok {
        err!(errors, comp, Unelaborated:
            "{}: time offset {t} mentions parameters; run mono::expand first", site());
    }
    ok
}

/// Checks every time in a signature for concreteness.
pub(crate) fn signature_is_concrete(sig: &Signature, errors: &mut Vec<CheckError>) -> bool {
    let comp = &sig.name;
    let mut ok = true;
    for p in sig.inputs.iter().chain(&sig.outputs) {
        if p.bundle.is_some() {
            // The bundle's liveness legitimately mentions the index
            // variable; report the bundle itself rather than per-offset
            // noise. (sig::check_bundles validates its shape symbolically.)
            err!(errors, comp, Unelaborated:
                "bundle port {} not flattened; run mono::expand first", p.name);
            ok = false;
            continue;
        }
        let site = || format!("port {}", p.name);
        ok &= concrete_time(&p.liveness.start, &site, comp, errors);
        ok &= concrete_time(&p.liveness.end, &site, comp, errors);
    }
    for ev in &sig.events {
        if let Delay::Diff(a, b) = &ev.delay {
            let site = || format!("delay of event {}", ev.name);
            ok &= concrete_time(a, &site, comp, errors);
            ok &= concrete_time(b, &site, comp, errors);
        }
    }
    for c in &sig.constraints {
        let site = || "where clause".to_owned();
        ok &= concrete_time(&c.lhs, &site, comp, errors);
        ok &= concrete_time(&c.rhs, &site, comp, errors);
    }
    ok
}

/// Checks a body for residual generate constructs: loops, indexed names,
/// symbolic time offsets.
pub(crate) fn body_is_concrete(comp: &Component, errors: &mut Vec<CheckError>) -> bool {
    fn port_ok(p: &Port, cname: &Id, errors: &mut Vec<CheckError>) -> bool {
        match p {
            Port::Inv { invocation, .. } => flat(&[invocation], cname, errors),
            Port::Bundle { .. } | Port::InvBundle { .. } => {
                err!(errors, cname, Unelaborated:
                    "bundle element {p} not flattened; run mono::expand first");
                false
            }
            Port::This(_) | Port::Lit(_) => true,
        }
    }
    fn walk(cmds: &[Command], cname: &Id, errors: &mut Vec<CheckError>) -> bool {
        let mut ok = true;
        for cmd in cmds {
            match cmd {
                Command::ForGen { var, .. } => {
                    err!(errors, cname, Unelaborated:
                        "for-generate loop over {var} not unrolled; run mono::expand first");
                    ok = false;
                }
                Command::IfGen { lhs, op, rhs, .. } => {
                    err!(errors, cname, Unelaborated: "if-generate conditional `{lhs} {op} {rhs}` \
                        not resolved; run mono::expand first");
                    ok = false;
                }
                Command::Instance { name, .. } => ok &= flat(&[name], cname, errors),
                Command::Invoke {
                    name,
                    instance,
                    events,
                    args,
                } => {
                    ok &= flat(&[name, instance], cname, errors);
                    let site = || format!("schedule of {name}");
                    for t in events {
                        ok &= concrete_time(t, &site, cname, errors);
                    }
                    for a in args {
                        ok &= port_ok(a, cname, errors);
                    }
                }
                Command::Connect { dst, src } => {
                    ok &= port_ok(dst, cname, errors);
                    ok &= port_ok(src, cname, errors);
                }
            }
        }
        ok
    }
    fn flat(names: &[&IName], cname: &Id, errors: &mut Vec<CheckError>) -> bool {
        let mut ok = true;
        for n in names.iter().filter(|n| n.flat().is_none()) {
            err!(errors, cname, Unelaborated: "indexed name {n} not flattened; run mono::expand first");
            ok = false;
        }
        ok
    }
    walk(&comp.body, &comp.sig.name, errors)
}

/// `Ok` when no diagnostic was found.
fn verdict(errors: Vec<CheckError>) -> Result<(), Vec<CheckError>> {
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Type-checks a whole program: every signature (including externs) and
/// every user component body.
///
/// # Errors
///
/// Returns all diagnostics found (the checker does not stop at the first).
///
/// # Examples
///
/// ```
/// use filament_core::{check_program, parse_program};
///
/// let p = parse_program(
///     "extern comp Add<T: 1>(@[T, T+1] l: 32, @[T, T+1] r: 32) -> (@[T, T+1] o: 32);
///      comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 32) -> (@[G, G+1] o: 32) {
///        a := new Add<G>(x, x);
///        o = a.o;
///      }",
/// )?;
/// assert!(check_program(&p).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_program(program: &Program) -> Result<(), Vec<CheckError>> {
    let mut errors = Vec::new();
    // Duplicate component names.
    let mut seen = HashSet::new();
    let comps = program.components.iter().map(|c| &c.sig);
    for name in program.externs.iter().chain(comps).map(|s| &s.name) {
        if !seen.insert(name.as_str()) {
            err!(errors, name, Binding: "duplicate definition of component {name}");
        }
    }
    for sig in program.externs.iter() {
        sig::check_signature(sig, true, &mut errors);
    }
    for comp in &program.components {
        sig::check_signature(&comp.sig, false, &mut errors);
    }
    for comp in &program.components {
        body::check_body(program, comp, &mut errors);
    }
    verdict(errors)
}

/// Type-checks a single component against a scope: a program holding the
/// signatures of everything the component instantiates (externs and user
/// components). Only signatures are read from `scope`; bodies are not
/// consulted, so a scope of body-less components suffices (the modular
/// checking of Sections 4 and 6).
///
/// # Errors
///
/// Returns the diagnostics for this component's signature and body.
pub fn check_component(scope: &Program, comp: &Component) -> Result<(), Vec<CheckError>> {
    let mut errors = Vec::new();
    sig::check_signature(&comp.sig, false, &mut errors);
    body::check_body(scope, comp, &mut errors);
    verdict(errors)
}
