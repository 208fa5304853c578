//! Monomorphization: elaborating a parametric Filament program into a
//! concrete one.
//!
//! The paper's instantiation form `I := new C[p...]` (Section 3.3) threads
//! const parameters through signatures; this module is the compilation
//! stage that *discharges* them. Starting from every parameter-free
//! component (the roots), [`expand`]:
//!
//! 1. **resolves parameter arithmetic** — every [`ConstExpr`] in widths,
//!    instance parameters, name indices, and time offsets is evaluated
//!    under the parameter environment,
//! 2. **unrolls `for`-generate loops** — `for i in lo..hi { ... }` bodies
//!    are repeated once per iteration with the loop variable bound, and
//!    indexed names (`pe[i][j]`) are flattened to plain identifiers
//!    (`pe_1_2`),
//! 3. **resolves `if`-generate conditionals** — `if c { ... } else { ... }`
//!    keeps exactly the arm selected by the (fully evaluated) condition,
//! 4. **flattens bundle ports** — a signature bundle `in[i: lo..hi]: W`
//!    becomes ports `in_lo .. in_{hi-1}`, the index substituted into each
//!    element's width and offsets; element reads (`in[e]`, `s.out[e]`)
//!    become plain, bounds-checked port references, and a whole bundle
//!    passed as an argument expands positionally into its elements,
//! 5. **evaluates derived parameters** — a signature may bind existential
//!    parameters via equations over earlier ones
//!    (`comp Enc[N, some W = log2(N)]`); each is evaluated at instantiation
//!    time, feeds the cache key, and is readable by the caller as `inst.W`
//!    in its own widths, offsets and bundle ranges,
//! 6. **monomorphizes instantiations** — each `(component, params)` pair is
//!    a unit ([`UnitKey`]), elaborated exactly once; `Process[32]`
//!    instantiated from a hundred sites yields one `Process_32`.
//!
//! [`elaborate_component`] elaborates one unit against the source program
//! alone: an instantiated user component is recorded as a dependency and
//! referenced by its unit's placeholder name ([`UnitKey::placeholder`]),
//! never elaborated in place. [`expand`] runs the units through a
//! [`UnitQueue`], first in first out from the parameter-free roots, then
//! lays them out ([`layout`]: emission order and final names such as
//! `Process_32`) and renames the placeholders ([`rename_expanded`]). The
//! `fil-build` driver runs the same queue on a worker pool, behind an
//! artifact cache, and merges through the same layout, so its expanded
//! program is [`expand`]'s.
//!
//! Each body keeps one instance table: `(callee signature, resolved
//! values)` entries behind one map from flattened instance and invocation
//! names, so an `inst.P` read is a probe and a parameter position. A body
//! may read declarations that come *later*: the first lookup the table
//! cannot answer runs a pre-scan recording where each declaration is, and
//! a forward read resolves its declaration on demand, memoized, following
//! chains on an explicit stack and reporting cycles as unbound reads, so
//! expansion stays linear in the length of a forward chain.
//!
//! In generate code, a bare parameter or loop variable in a *data* position
//! denotes its value — `new Mux[W]<G>(sel.out, m.out, i)` feeds the literal
//! value of `i` — unless it is also a port of the enclosing component.
//!
//! The output holds the original externs (still parametric; lowering's
//! primitive registry reads their parameter *values*) and only concrete
//! components, so checking and lowering run on it unchanged. Expansion is
//! idempotent. Recursive generators (a component instantiating itself at
//! *smaller* parameters) elaborate up to a fixed dependency depth
//! ([`MAX_DEPTH`]); a unit that reaches itself is reported as divergence.

use crate::ast::{
    written, Command, Component, ConstEvalError, ConstExpr, Delay, EventDecl, IName, Id,
    ParamResolveError, Port, PortDef, Program, Range, Signature, Time,
};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Maximum dependency depth of a unit below the root that first reaches it
/// (roots are at depth 0): deep enough for any reasonable recursive
/// generator, small enough to catch divergence quickly.
/// [`UnitQueue::schedule`] enforces it for [`expand`] and the `fil-build`
/// driver alike.
pub const MAX_DEPTH: usize = 64;

/// Ceiling on commands visited and loop iterations run per component, so
/// a mistyped bound (`for i in 0..pow2(60)`) fails fast instead of
/// exhausting memory or spinning over a body that emits nothing.
const MAX_COMMANDS: usize = 1 << 20;

/// Ceiling on elements per bundle port, for the same reason.
const MAX_BUNDLE: u64 = 1 << 16;

/// Elaboration statistics, chiefly for observing how the unit graph
/// deduplicates instantiations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonoStats {
    /// Instantiations of a unit already reached, answered without
    /// elaborating it again.
    pub cache_hits: u64,
    /// Units elaborated: one per distinct `(component, params)` pair.
    pub cache_misses: u64,
    /// `for`-generate loops unrolled (counted once per syntactic loop per
    /// enclosing elaboration).
    pub loops_unrolled: u64,
    /// `if`-generate conditionals resolved (counted once per evaluation).
    pub ifs_resolved: u64,
    /// Signature bundle ports flattened into concrete element ports.
    pub bundles_flattened: u64,
    /// Derived (`some`) parameter equations evaluated at instantiation
    /// sites (pass-through re-verification of already-elaborated extern
    /// instances counts too).
    pub derivations_evaluated: u64,
    /// Total concrete commands emitted across all elaborated components.
    pub commands_emitted: u64,
}

impl MonoStats {
    /// Adds another stats record into this one, field by field (used to
    /// merge per-component elaboration counters into a program-wide total).
    pub fn absorb(&mut self, other: &MonoStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.loops_unrolled += other.loops_unrolled;
        self.ifs_resolved += other.ifs_resolved;
        self.bundles_flattened += other.bundles_flattened;
        self.derivations_evaluated += other.derivations_evaluated;
        self.commands_emitted += other.commands_emitted;
    }
}

/// Errors raised during monomorphization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonoError {
    /// An instantiated component does not exist.
    UnknownComponent {
        /// The component being elaborated.
        component: Id,
        /// The missing callee.
        callee: Id,
    },
    /// Two user components share a name (elaboration would silently merge
    /// them).
    DuplicateComponent(Id),
    /// A constant expression failed to evaluate.
    Eval {
        /// The component being elaborated.
        component: Id,
        /// Where in the component.
        site: String,
        /// Why evaluation failed.
        cause: ConstEvalError,
    },
    /// Parameter-count mismatch at an instantiation.
    Arity {
        /// The component being elaborated.
        component: Id,
        /// The callee.
        callee: Id,
        /// Parameters the callee declares.
        want: usize,
        /// Parameters supplied.
        got: usize,
    },
    /// A loop variable shadows a component parameter or an enclosing loop
    /// variable.
    Shadow {
        /// The component being elaborated.
        component: Id,
        /// The shadowing variable.
        var: Id,
    },
    /// A `(component, params)` key was re-entered while still being
    /// elaborated — an unboundedly recursive generator.
    Recursive {
        /// The diverging component.
        component: Id,
        /// The parameter values of the repeated key.
        params: Vec<u64>,
    },
    /// A unit lies [`MAX_DEPTH`] dependencies below its root.
    TooDeep {
        /// The component that exceeded the limit.
        component: Id,
    },
    /// A single component visited more commands and ran more loop
    /// iterations, together, than the ceiling allows.
    TooLarge {
        /// The oversized component.
        component: Id,
    },
    /// A bundle-port problem: empty index range, a non-bundle argument
    /// supplied for a bundle input, or mismatched bundle extents.
    Bundle {
        /// The component being elaborated.
        component: Id,
        /// Where in the component.
        site: String,
        /// What went wrong.
        message: String,
    },
    /// An explicitly supplied derived-parameter value contradicts its
    /// derivation (possible only in already-elaborated programs, whose
    /// extern instances carry the full parameter list).
    Derived {
        /// The component being elaborated.
        component: Id,
        /// The callee declaring the derived parameter.
        callee: Id,
        /// The derived parameter.
        param: Id,
        /// The value its derivation computes.
        want: u64,
        /// The value supplied.
        got: u64,
    },
}

impl fmt::Display for MonoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonoError::UnknownComponent { component, callee } => {
                write!(f, "in component {component}: unknown component {callee}")
            }
            MonoError::DuplicateComponent(name) => {
                write!(f, "duplicate definition of component {name}")
            }
            MonoError::Eval {
                component,
                site,
                cause,
            } => write!(f, "in component {component}: {site}: {cause}"),
            MonoError::Arity {
                component,
                callee,
                want,
                got,
            } => write!(
                f,
                "in component {component}: {callee} takes {want} parameters, got {got}"
            ),
            MonoError::Shadow { component, var } => write!(
                f,
                "in component {component}: loop variable {var} shadows a parameter or an \
                 enclosing loop variable"
            ),
            MonoError::Recursive { component, params } => write!(
                f,
                "component {component}{params:?} recursively instantiates itself with the same \
                 parameters"
            ),
            MonoError::TooDeep { component } => write!(
                f,
                "elaborating {component} exceeds {MAX_DEPTH} nested instantiations"
            ),
            MonoError::TooLarge { component } => write!(
                f,
                "component {component} expands to more than {MAX_COMMANDS} commands and loop \
                 iterations"
            ),
            MonoError::Bundle {
                component,
                site,
                message,
            } => write!(f, "in component {component}: {site}: {message}"),
            MonoError::Derived {
                component,
                callee,
                param,
                want,
                got,
            } => write!(
                f,
                "in component {component}: derived parameter {param} of {callee} must equal \
                 {want} per its derivation, got {got}"
            ),
        }
    }
}

impl std::error::Error for MonoError {}

impl MonoError {
    fn eval(component: &str, site: String, cause: ConstEvalError) -> Self {
        let component = component.to_owned();
        MonoError::Eval {
            component,
            site,
            cause,
        }
    }
}

/// Elaborates `program` into a concrete program: parameter arithmetic
/// resolved, `for`-generate loops unrolled, and every instantiated
/// `(component, params)` pair monomorphized exactly once.
///
/// Every parameter-free user component is treated as a root and kept under
/// its own name; monomorphized instances are named `C_v0_v1`; parametric
/// components that are never instantiated are dropped. Externs pass through
/// untouched (their parameter values are resolved to literals at each
/// instantiation site).
///
/// # Errors
///
/// Returns a [`MonoError`] naming the component and site of the failure.
///
/// # Examples
///
/// ```
/// use filament_core::{mono, parse_program};
///
/// let p = parse_program(
///     "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
///      comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
///        s[0] := new Delay[W]<G>(in);
///        for i in 1..D {
///          s[i] := new Delay[W]<G+i>(s[i-1].out);
///        }
///        out = s[D-1].out;
///      }
///      comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+3, G+4] o: 8) {
///        c := new Chain[8, 3]<G>(x);
///        o = c.out;
///      }",
/// )?;
/// let expanded = mono::expand(&p)?;
/// // `Chain[8, 3]` became the concrete component `Chain_8_3` ...
/// let chain = expanded.component("Chain_8_3").expect("monomorphized");
/// assert_eq!(chain.sig.outputs[0].liveness.to_string(), "[G+3, G+4)");
/// // ... with the loop unrolled into three flattened Delay stages.
/// assert_eq!(
///     chain.body.iter().filter(|c| matches!(c,
///         filament_core::ast::Command::Instance { .. })).count(),
///     3,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expand(program: &Program) -> Result<Program, MonoError> {
    expand_with_stats(program).map(|(p, _)| p)
}

/// Like [`expand`], also returning [`MonoStats`] (cache behavior, unroll
/// counts).
///
/// # Errors
///
/// As [`expand`].
pub fn expand_with_stats(program: &Program) -> Result<(Program, MonoStats), MonoError> {
    validate(program)?;
    let index = ProgramIndex::new(program);
    let mut queue = UnitQueue::new(program);
    let mut units = HashMap::new();
    while let Some((key, depth)) = queue.pop() {
        let unit = elaborate_component(&index, &key)?;
        queue.schedule(&unit.deps, depth)?;
        units.insert(key, unit);
    }
    let (order, names) = layout(program, |key| &units[key].deps)?;
    let mut stats = MonoStats {
        cache_hits: queue.hits,
        cache_misses: order.len() as u64,
        ..MonoStats::default()
    };
    let mut components = Vec::with_capacity(order.len());
    for key in &order {
        let mut unit = units
            .remove(key)
            .expect("every scheduled unit was elaborated");
        stats.absorb(&unit.stats);
        rename_expanded(&mut unit.component, &names);
        components.push(unit.component);
    }
    let expanded = Program {
        externs: program.externs.clone(),
        components,
    };
    Ok((expanded, stats))
}

/// Every extern and user component of a program by name, so elaboration
/// finds a callee by hashing its name instead of scanning the program. The first
/// definition of a name wins, and an extern's signature shadows a user
/// component's, as in [`Program::sig`].
pub struct ProgramIndex<'p> {
    externs: HashMap<&'p str, &'p Signature>,
    components: HashMap<&'p str, &'p Component>,
}

impl<'p> ProgramIndex<'p> {
    /// Indexes `program`.
    pub fn new(program: &'p Program) -> Self {
        // Collected last to first, so the first definition of a name wins.
        let externs = program.externs.iter().rev();
        let components = program.components.iter().rev();
        ProgramIndex {
            externs: externs.map(|s| (s.name.as_str(), s)).collect(),
            components: components.map(|c| (c.sig.name.as_str(), c)).collect(),
        }
    }

    /// The signature `name` resolves to, and whether it is an extern's.
    fn callee(&self, name: &str) -> Option<(&'p Signature, bool)> {
        match self.externs.get(name) {
            Some(&sig) => Some((sig, true)),
            None => self.components.get(name).map(|c| (&c.sig, false)),
        }
    }
}

/// Pre-elaboration validation shared by [`expand`] and external drivers:
/// duplicate user components and bundle ports on externs are structural
/// errors that no per-component elaboration could recover from.
///
/// # Errors
///
/// Returns the first [`MonoError::DuplicateComponent`] or
/// [`MonoError::Bundle`] found.
pub fn validate(program: &Program) -> Result<(), MonoError> {
    let mut seen = HashSet::new();
    for comp in &program.components {
        if !seen.insert(comp.sig.name.clone()) {
            return Err(MonoError::DuplicateComponent(comp.sig.name.clone()));
        }
    }
    // Externs pass through elaboration untouched, so a bundle port on one
    // could never be flattened — reject it here with a direct message
    // rather than letting the checker report a residual-construct error.
    for sig in program.externs.iter() {
        if let Some(p) = sig
            .inputs
            .iter()
            .chain(&sig.outputs)
            .find(|p| p.bundle.is_some())
        {
            return Err(MonoError::Bundle {
                component: sig.name.clone(),
                site: format!("port {}", p.name),
                message: "bundle ports are not supported on extern components".into(),
            });
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ units

/// One compile unit: a user component at one parameter vector (one value
/// per parameter, derived parameters included). A unit is elaborated on
/// its own; the units it instantiates are its dependencies, recorded
/// rather than elaborated in place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// The source component.
    pub component: Id,
    /// Its parameter values.
    pub values: Vec<u64>,
}

impl UnitKey {
    /// Every parameter-free user component, in declaration order: the
    /// units every other unit is reached from.
    fn roots(program: &Program) -> impl Iterator<Item = UnitKey> + '_ {
        let roots = program
            .components
            .iter()
            .filter(|c| c.sig.params.is_empty());
        roots.map(|c| UnitKey {
            component: c.sig.name.clone(),
            values: Vec::new(),
        })
    }

    /// The name the unit's component carries until [`layout`] names it: a
    /// pure function of the key, so units elaborated in any order, on any
    /// thread or in an earlier session agree on it.
    pub fn placeholder(&self) -> Id {
        let values: Vec<u8> = self.values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let hash = fnv64(&[b"unit", self.component.as_bytes(), &values]);
        format!("U_{hash:016x}")
    }

    /// The name [`layout`] gives the unit unless that name is taken: the
    /// component, then `_v` per free parameter value. Diagnostics show it
    /// in place of the placeholder.
    pub fn provisional(&self, program: &Program) -> Id {
        let mut name = self.component.clone();
        let decls = program.component(&self.component).map(|c| &c.sig.params);
        for (i, v) in self.values.iter().enumerate() {
            if decls.is_some_and(|d| d.get(i).is_some_and(|p| p.is_derived())) {
                continue;
            }
            name.push('_');
            name.push_str(&v.to_string());
        }
        name
    }
}

/// FNV-1a (64-bit) over `parts`, each followed by a delimiter byte so
/// concatenations are unambiguous. Stable across sessions, unlike the
/// standard library's hashers.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &byte in *part {
            h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(PRIME);
    }
    h
}

/// The units left to elaborate, first in first out: the roots, then each
/// unit's dependencies as the unit finishes. Every unit is scheduled once,
/// at its dependency depth from the root that first reached it.
pub struct UnitQueue {
    pending: VecDeque<(UnitKey, usize)>,
    scheduled: HashSet<UnitKey>,
    /// Dependency edges to a unit already scheduled: instantiations the
    /// unit graph answers without elaborating again.
    pub hits: u64,
}

impl UnitQueue {
    /// A queue holding `program`'s roots at depth 0.
    pub fn new(program: &Program) -> Self {
        UnitQueue {
            pending: UnitKey::roots(program).map(|key| (key, 0)).collect(),
            scheduled: UnitKey::roots(program).collect(),
            hits: 0,
        }
    }

    /// The next unit to elaborate, and its depth.
    pub fn pop(&mut self) -> Option<(UnitKey, usize)> {
        self.pending.pop_front()
    }

    /// Schedules `deps`, the dependencies of a unit at `depth`.
    ///
    /// # Errors
    ///
    /// [`MonoError::TooDeep`] when a new unit would be [`MAX_DEPTH`] deep.
    pub fn schedule(&mut self, deps: &[UnitKey], depth: usize) -> Result<(), MonoError> {
        for dep in deps {
            if self.scheduled.contains(dep) {
                self.hits += 1;
            } else if depth + 1 >= MAX_DEPTH {
                return Err(MonoError::TooDeep {
                    component: dep.component.clone(),
                });
            } else {
                self.scheduled.insert(dep.clone());
                self.pending.push_back((dep.clone(), depth + 1));
            }
        }
        Ok(())
    }
}

/// One unit, elaborated by [`elaborate_component`].
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The concrete component, named by the unit's placeholder; its user
    /// instances reference their units' placeholders.
    pub component: Component,
    /// The units it instantiates, each once, in body order.
    pub deps: Vec<UnitKey>,
    /// What elaborating it did; `cache_hits` counts its repeat
    /// instantiations of a dependency.
    pub stats: MonoStats,
}

/// Elaborates one unit: the signature and body of `unit.component` under
/// the parameter environment of `unit.values`. Externs are instantiated in
/// place with literal parameter lists; every user-component instantiation
/// becomes a dependency. [`expand`] and the `fil-build` driver elaborate
/// every unit through here.
///
/// # Errors
///
/// Returns a [`MonoError`] naming the component and site of the failure.
pub fn elaborate_component(
    index: &ProgramIndex<'_>,
    unit: &UnitKey,
) -> Result<Elaborated, MonoError> {
    let comp = index
        .components
        .get(unit.component.as_str())
        .ok_or_else(|| MonoError::UnknownComponent {
            component: unit.component.clone(),
            callee: unit.component.clone(),
        })?;
    let mut stats = MonoStats::default();
    let params = comp.sig.param_env(&unit.values);
    let (sig, own_bundles) = elab_sig(&comp.sig, &params, &unit.placeholder(), &mut stats)?;
    let mut elab = Elab {
        frame: None,
        table: Table {
            index,
            body: &comp.body,
            params,
            insts: Vec::new(),
            names: HashMap::new(),
            frames: Vec::new(),
            scanned: false,
        },
        unit,
        deps: Vec::new(),
        seen: HashSet::new(),
        stats,
        sig: &comp.sig,
        own_bundles,
        budget: MAX_COMMANDS,
    };
    let mut body = Vec::new();
    elab.elab_commands(&comp.body, &mut body)?;
    elab.stats.commands_emitted += body.len() as u64;
    Ok(Elaborated {
        component: Component { sig, body },
        deps: elab.deps,
        stats: elab.stats,
    })
}

/// Lays out the units reachable from `program`'s roots, with `deps`
/// giving each unit's dependencies: returns them in emission order, and
/// each unit's final name by placeholder. The walk is depth first: roots
/// in declaration order, dependencies in body order. A unit is named when
/// first reached and emitted after its dependencies. Roots keep their
/// names; other units claim [`UnitKey::provisional`], with `_` appended
/// while the name is a source component's, an extern's or an earlier
/// unit's.
///
/// # Errors
///
/// [`MonoError::Recursive`] when a unit reaches itself.
pub fn layout<'d>(
    program: &Program,
    deps: impl Fn(&UnitKey) -> &'d [UnitKey],
) -> Result<(Vec<UnitKey>, HashMap<Id, Id>), MonoError> {
    let sources = program.components.iter().map(|c| &c.sig.name);
    let mut taken: HashSet<Id> = sources
        .chain(program.externs.iter().map(|s| &s.name))
        .cloned()
        .collect();
    let (mut order, mut names) = (Vec::new(), HashMap::new());
    // `false` while a unit's dependencies are being walked.
    let mut emitted: HashMap<UnitKey, bool> = HashMap::new();
    enum Step {
        Enter(UnitKey),
        Exit(UnitKey),
    }
    for root in UnitKey::roots(program) {
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            let key = match step {
                Step::Enter(key) => key,
                Step::Exit(key) => {
                    emitted.insert(key.clone(), true);
                    order.push(key);
                    continue;
                }
            };
            match emitted.get(&key) {
                Some(true) => continue,
                Some(false) => {
                    return Err(MonoError::Recursive {
                        component: key.component,
                        params: key.values,
                    })
                }
                None => {}
            }
            let name = if key.values.is_empty() {
                key.component.clone()
            } else {
                let mut n = key.provisional(program);
                while taken.contains(&n) {
                    n.push('_');
                }
                taken.insert(n.clone());
                n
            };
            names.insert(key.placeholder(), name);
            emitted.insert(key.clone(), false);
            // Reversed, so the first dependency is walked first.
            let next = deps(&key).iter().rev().cloned().map(Step::Enter);
            stack.push(Step::Exit(key));
            stack.extend(next);
        }
    }
    Ok((order, names))
}

/// Renames a unit's component and the units it instantiates from
/// placeholders to the names in `names`.
pub fn rename_expanded(c: &mut Component, names: &HashMap<Id, Id>) {
    if let Some(n) = names.get(&c.sig.name) {
        c.sig.name = n.clone();
    }
    for cmd in &mut c.body {
        if let Command::Instance { component, .. } = cmd {
            if let Some(n) = names.get(component) {
                *component = n.clone();
            }
        }
    }
}

/// Elaborates just a signature under a concrete parameter vector: widths
/// and offsets evaluated, bundles flattened, the result named `mono_name`
/// with an empty parameter list.
///
/// Used by build drivers to reconstruct the interface a dependency's
/// monomorph will have without elaborating its body.
///
/// # Errors
///
/// As [`elaborate_component`], for failures inside the signature.
pub fn elaborate_signature(
    sig: &Signature,
    values: &[u64],
    mono_name: &str,
) -> Result<Signature, MonoError> {
    let env = sig.param_env(values);
    elab_sig(sig, &env, mono_name, &mut MonoStats::default()).map(|(s, _)| s)
}

/// Concrete `(lo, hi)` extents of a signature's bundle ports, by name.
type BundleExtents = HashMap<Id, (u64, u64)>;

/// A loop-binding frame: an index into [`Table::frames`], or `None` outside
/// every loop.
type Frame = Option<usize>;

/// Where resolving an instance stands.
enum State {
    /// Recorded by the pre-scan, not yet evaluated.
    Pending,
    /// One value per callee parameter, derived parameters included.
    Done(Vec<u64>),
    /// Its parameters do not evaluate, or it is being resolved and a read
    /// of it is a cycle; the main pass reports why at the declaration. A
    /// pre-scan walk's failure is retried on the next walk.
    Failed,
}

/// One instance of the body: the callee's *original* signature (bundles
/// intact), and the declaration's parameters and loop bindings, from which
/// a pre-scan record is resolved on demand.
struct Inst<'p> {
    sig: &'p Signature,
    params: &'p [ConstExpr],
    frame: Frame,
    state: State,
}

/// What a flattened body name declares: an instance (the parser's fused
/// form names it `e#inst`) or an invocation of one.
#[derive(Clone, Copy)]
enum Def {
    Inst(usize),
    Invoke(usize),
}

/// The instance table of one body, behind one name map: every instance
/// the main pass has reached and, once a lookup has missed, every
/// declaration the pre-scan recorded ahead of it. An instance-parameter
/// read (`e.W`, or `x.W` through an invocation) is a name probe and a
/// position in the callee's parameter list.
struct Table<'p> {
    index: &'p ProgramIndex<'p>,
    body: &'p [Command],
    /// The component's own parameter environment.
    params: HashMap<Id, u64>,
    insts: Vec<Inst<'p>>,
    names: HashMap<Id, Def>,
    /// `(loop variable, value, enclosing frame)`.
    frames: Vec<(&'p Id, u64, Frame)>,
    scanned: bool,
}

impl<'p> Table<'p> {
    /// The value of parameter or loop variable `p` in scope at `frame`.
    fn param(&self, mut frame: Frame, p: &str) -> Option<u64> {
        while let Some(f) = frame {
            let (var, v, up) = self.frames[f];
            if var == p {
                return Some(v);
            }
            frame = up;
        }
        self.params.get(p).copied()
    }

    /// A leaf's value; a read of a pending instance is left in `pending`.
    fn leaf(
        &self,
        leaf: &ConstExpr,
        frame: Frame,
        pending: &Cell<Option<usize>>,
    ) -> Result<u64, ConstEvalError> {
        match leaf {
            ConstExpr::Param(p) => self
                .param(frame, p)
                .ok_or_else(|| ConstEvalError::Unbound(p.clone())),
            ConstExpr::InstParam(i, p) => {
                let value = |&(Def::Inst(s) | Def::Invoke(s))| match &self.insts[s].state {
                    State::Done(values) => self.insts[s].sig.param_value(values, p),
                    State::Pending => {
                        pending.set(Some(s));
                        None
                    }
                    State::Failed => None,
                };
                let v = self.names.get(i).and_then(value);
                v.ok_or_else(|| ConstEvalError::Unbound(ConstExpr::inst_key(i, p)))
            }
            _ => unreachable!("only parameters are leaves"),
        }
    }

    /// Evaluates `e` at `frame`. A read of a pending instance resolves it
    /// on demand, and the first failure of a body runs the pre-scan; either
    /// way the evaluation is retried.
    fn value(&mut self, e: &ConstExpr, frame: Frame) -> Result<u64, ConstEvalError> {
        loop {
            let pending = Cell::new(None);
            let v = e.eval_by(&|leaf| self.leaf(leaf, frame, &pending));
            match pending.get() {
                Some(s) => self.resolve(s),
                None if v.is_err() && !self.scanned => self.scan_body(),
                None => return v,
            }
        }
    }

    fn mangle(&mut self, n: &IName, frame: Frame) -> Result<Id, ConstEvalError> {
        n.mangle(&mut |e| self.value(e, frame))
    }

    /// Resolves pending instance `s`, first resolving every pending
    /// instance its parameters read. The stack is explicit because a
    /// forward chain may be as long as the body; an instance that reads
    /// itself, directly or through others, fails.
    fn resolve(&mut self, s: usize) {
        let mut stack = vec![s];
        while let Some(&top) = stack.last() {
            self.insts[top].state = State::Failed;
            let Inst {
                sig, params, frame, ..
            } = self.insts[top];
            let pending = Cell::new(None);
            let given: Result<Vec<u64>, _> = params
                .iter()
                .map(|e| e.eval_by(&|leaf| self.leaf(leaf, frame, &pending)))
                .collect();
            if let Some(next) = pending.get() {
                stack.push(next);
                continue;
            }
            if let Ok(Ok(values)) = given.map(|g| sig.resolve_param_values(&g)) {
                self.insts[top].state = State::Done(values);
            }
            stack.pop();
        }
    }

    /// What `name` declares, running the pre-scan on the first miss, with
    /// its instance resolved (`None` if its parameters do not evaluate).
    fn def(&mut self, name: &str) -> Option<Def> {
        if !self.scanned && !self.names.contains_key(name) {
            self.scan_body();
        }
        let def = *self.names.get(name)?;
        let (Def::Inst(s) | Def::Invoke(s)) = def;
        if matches!(self.insts[s].state, State::Pending) {
            self.resolve(s);
        }
        matches!(self.insts[s].state, State::Done(_)).then_some(def)
    }

    /// `e` over the parameters of resolved instance `s`'s callee.
    fn callee_value(&self, s: usize, e: &ConstExpr) -> Result<u64, ConstEvalError> {
        let State::Done(values) = &self.insts[s].state else {
            unreachable!("callee values are read from resolved instances");
        };
        self.insts[s].sig.eval_at(e, values)
    }

    /// The concrete `(lo, hi)` extent of bundle output `port` of invocation
    /// `inv`, when the invocation, its instance's callee, and the bundle
    /// are all known (forward references resolve via the pre-scan).
    fn output_extent(&mut self, inv: &str, port: &str) -> Option<(u64, u64)> {
        let Def::Invoke(s) = self.def(inv)? else {
            return None;
        };
        let out = self.insts[s].sig.outputs.iter().find(|p| p.name == port)?;
        let b = out.bundle.as_ref()?;
        Some((
            self.callee_value(s, &b.lo).ok()?,
            self.callee_value(s, &b.hi).ok()?,
        ))
    }

    /// The pre-scan, run once per body at the first lookup the table cannot
    /// answer: walks the body as the main pass does — loops unrolled,
    /// conditionals resolved — and records where each declaration is,
    /// evaluating nothing but loop bounds, conditions and name indices.
    /// Walks repeat while they record more, since a walk skips what reads a
    /// name it has not recorded yet (a bound reading a later instance).
    fn scan_body(&mut self) {
        self.scanned = true;
        loop {
            let before = self.names.len();
            // An earlier walk's failure may read a name recorded since.
            for inst in &mut self.insts {
                if matches!(inst.state, State::Failed) {
                    inst.state = State::Pending;
                }
            }
            let mut budget = MAX_COMMANDS;
            self.scan(self.body, None, &mut budget);
            if self.names.len() == before {
                break;
            }
        }
    }

    /// One walk of [`scan_body`](Self::scan_body), over at most `budget`
    /// commands and loop iterations.
    fn scan(&mut self, cmds: &'p [Command], frame: Frame, budget: &mut usize) {
        for cmd in cmds {
            let Some(left) = budget.checked_sub(1) else {
                return;
            };
            *budget = left;
            match cmd {
                Command::Instance {
                    name,
                    component,
                    params,
                } => {
                    let (Ok(name), Some((sig, _))) =
                        (self.mangle(name, frame), self.index.callee(component))
                    else {
                        continue;
                    };
                    if let Entry::Vacant(v) = self.names.entry(name) {
                        v.insert(Def::Inst(self.insts.len()));
                        let state = State::Pending;
                        self.insts.push(Inst {
                            sig,
                            params,
                            frame,
                            state,
                        });
                    }
                }
                Command::Invoke { name, instance, .. } => {
                    let (Ok(name), Ok(instance)) =
                        (self.mangle(name, frame), self.mangle(instance, frame))
                    else {
                        continue;
                    };
                    if let Some(&Def::Inst(s)) = self.names.get(&instance) {
                        self.names.entry(name).or_insert(Def::Invoke(s));
                    }
                }
                Command::Connect { .. } => {}
                Command::ForGen { var, lo, hi, body } => {
                    let (Ok(lo), Ok(hi)) = (self.value(lo, frame), self.value(hi, frame)) else {
                        continue;
                    };
                    if self.param(frame, var).is_some() {
                        continue; // Shadowing: the main pass reports it.
                    }
                    for i in (lo..hi).take(*budget) {
                        self.frames.push((var, i, frame));
                        self.scan(body, Some(self.frames.len() - 1), budget);
                        *budget = budget.saturating_sub(1);
                    }
                }
                Command::IfGen {
                    lhs,
                    op,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let (Ok(l), Ok(r)) = (self.value(lhs, frame), self.value(rhs, frame)) else {
                        continue;
                    };
                    let arm = if op.holds(l, r) { then_body } else { else_body };
                    self.scan(arm, frame, budget);
                }
            }
        }
    }
}

/// The elaboration engine for one component body: a pure function of the
/// source program, the parameter environment and the unit.
struct Elab<'p, 'k> {
    table: Table<'p>,
    /// The loop bindings in scope.
    frame: Frame,
    /// The unit being elaborated: instantiating it again diverges.
    unit: &'k UnitKey,
    /// The units it instantiates, each once, in body order.
    deps: Vec<UnitKey>,
    seen: HashSet<UnitKey>,
    stats: MonoStats,
    /// The enclosing (original) signature, whose name diagnostics report.
    /// A body name that is *not* one of its ports but is bound in the
    /// parameter environment denotes its constant value in data positions.
    sig: &'p Signature,
    /// Own signature bundles: port name → concrete `(lo, hi)` extent.
    own_bundles: BundleExtents,
    /// Commands and loop iterations left before [`MonoError::TooLarge`];
    /// each emits at most one command, so this also bounds the output.
    budget: usize,
}

/// Resolves the values supplied for `callee` into one value per parameter
/// (derivations evaluated, or re-verified when the full list was passed
/// through), reporting failures against `component`; `site` names where a
/// derivation failed to evaluate.
fn resolve_params(
    callee: &Signature,
    given: &[u64],
    component: &str,
    site: &dyn Fn(&Id) -> String,
) -> Result<Vec<u64>, MonoError> {
    callee.resolve_param_values(given).map_err(|e| match e {
        ParamResolveError::Arity { want, got } => MonoError::Arity {
            component: component.to_owned(),
            callee: callee.name.clone(),
            want,
            got,
        },
        ParamResolveError::Eval { param, cause } => MonoError::Eval {
            component: component.to_owned(),
            site: site(&param),
            cause,
        },
        ParamResolveError::Mismatch { param, want, got } => MonoError::Derived {
            component: component.to_owned(),
            callee: callee.name.clone(),
            param,
            want,
            got,
        },
    })
}

impl<'p> Elab<'p, '_> {
    /// Records instantiating the unit `(component, values)` as a
    /// dependency, returning the name to reference it by: its placeholder.
    fn record(&mut self, component: &str, values: Vec<u64>) -> Result<Id, MonoError> {
        let key = UnitKey {
            component: component.to_owned(),
            values,
        };
        if key == *self.unit {
            return Err(MonoError::Recursive {
                component: key.component,
                params: key.values,
            });
        }
        let name = key.placeholder();
        if self.seen.insert(key.clone()) {
            self.deps.push(key);
        } else {
            self.stats.cache_hits += 1;
        }
        Ok(name)
    }

    /// Evaluates `e` in scope. Like every diagnostic site in elaboration,
    /// `site` is rendered only when evaluation fails.
    fn eval(&mut self, e: &ConstExpr, site: &dyn Fn() -> String) -> Result<u64, MonoError> {
        let v = self.table.value(e, self.frame);
        v.map_err(|cause| MonoError::eval(&self.sig.name, site(), cause))
    }

    fn elab_name(&mut self, n: &IName) -> Result<IName, MonoError> {
        let name = self.table.mangle(n, self.frame);
        name.map(IName::plain).map_err(|cause| {
            MonoError::eval(&self.sig.name, format!("index of {}", written(n)), cause)
        })
    }

    /// Bounds-checks element `k` of a bundle of `extent`, when the bundle
    /// is known (unknown names fall through to the checker's binding pass).
    fn check_index(
        &self,
        k: u64,
        extent: Option<(u64, u64)>,
        element: &dyn Fn() -> String,
    ) -> Result<(), MonoError> {
        match extent {
            Some((lo, hi)) if k < lo || k >= hi => Err(MonoError::Bundle {
                component: self.sig.name.clone(),
                site: format!("element {}", element()),
                message: format!("index {k} is outside the bundle's range {lo}..{hi}"),
            }),
            _ => Ok(()),
        }
    }

    fn elab_port(&mut self, p: &Port) -> Result<Port, MonoError> {
        Ok(match p {
            // A bare parameter or loop variable in a data position denotes
            // a compile-time constant; signature ports shadow.
            Port::This(name) => match self.table.param(self.frame, name) {
                Some(v) if !sig_port_names(self.sig).any(|n| n == name) => Port::Lit(v),
                _ => Port::This(name.clone()),
            },
            Port::Lit(n) => Port::Lit(*n),
            Port::Inv { invocation, port } => Port::Inv {
                invocation: self.elab_name(invocation)?,
                port: port.clone(),
            },
            Port::Bundle { port, idx } => {
                let k = self.eval(idx, &|| format!("index of {port}[{idx}]"))?;
                let extent = self.own_bundles.get(port).copied();
                self.check_index(k, extent, &|| format!("{port}[{idx}]"))?;
                Port::This(format!("{port}_{k}"))
            }
            Port::InvBundle {
                invocation,
                port,
                idx,
            } => {
                let invocation = self.elab_name(invocation)?;
                let k = self.eval(idx, &|| format!("index of {invocation}.{port}[{idx}]"))?;
                // The pre-scan records forward invocations too, so this
                // covers references in either direction.
                let extent = self.table.output_extent(&invocation.base, port);
                self.check_index(k, extent, &|| format!("{invocation}.{port}[{idx}]"))?;
                Port::Inv {
                    invocation,
                    port: format!("{port}_{k}"),
                }
            }
        })
    }

    /// Expands invocation arguments against the (original) signature of
    /// instance `s`'s callee: scalar inputs elaborate one-to-one, and each
    /// bundle input of extent `K` consumes one whole-bundle argument — the
    /// name of an own-signature bundle or any invocation's bundle output
    /// (forward references included, via the pre-scan) — expanded into its
    /// `K` element ports positionally.
    fn expand_args(&mut self, args: &[Port], s: usize, inv: &str) -> Result<Vec<Port>, MonoError> {
        let callee = self.table.insts[s].sig;
        // Arity mismatches are the checker's to report (against the
        // flattened signature); elaborate positionally without expansion.
        if args.len() != callee.inputs.len() {
            return args.iter().map(|a| self.elab_port(a)).collect();
        }
        let mut out = Vec::with_capacity(args.len());
        for (arg, pdef) in args.iter().zip(&callee.inputs) {
            let Some(b) = &pdef.bundle else {
                out.push(self.elab_port(arg)?);
                continue;
            };
            let site = || format!("argument {} of invocation {inv}", pdef.name);
            let bound = |e| {
                let v = self.table.callee_value(s, e);
                v.map_err(|cause| MonoError::eval(&self.sig.name, site(), cause))
            };
            let want_lo = bound(&b.lo)?;
            let want = bound(&b.hi)?.saturating_sub(want_lo);
            let (to, takes) = (&pdef.name, &callee.name);
            let bundle_err = |message: String| MonoError::Bundle {
                component: self.sig.name.clone(),
                site: site(),
                message,
            };
            // The whole bundle, its extent, and the invocation it is an
            // output of (none for an own-signature bundle).
            let (whole, extent, via) = match arg {
                Port::This(name) => (name.clone(), self.own_bundles.get(name).copied(), None),
                Port::Inv { invocation, port } => {
                    let invocation = self.elab_name(invocation)?;
                    let extent = self.table.output_extent(&invocation.base, port);
                    (
                        format!("{invocation}.{port}"),
                        extent,
                        Some((invocation, port)),
                    )
                }
                other => {
                    return Err(bundle_err(format!(
                        "argument {other} cannot fill bundle port {to} of {takes} ({want} \
                         elements); pass a whole bundle by name"
                    )));
                }
            };
            let Some((lo, hi)) = extent else {
                let what = if via.is_some() {
                    " output of an invocation in this body"
                } else {
                    ""
                };
                return Err(bundle_err(format!(
                    "{whole} is not a bundle{what}, but {to} of {takes} takes {want} elements"
                )));
            };
            if hi - lo != want {
                return Err(bundle_err(format!(
                    "bundle {whole} has {} elements but {to} of {takes} takes {want}",
                    hi - lo
                )));
            }
            out.extend((lo..hi).map(|j| match &via {
                None => Port::This(format!("{whole}_{j}")),
                Some((invocation, port)) => Port::Inv {
                    invocation: invocation.clone(),
                    port: format!("{port}_{j}"),
                },
            }));
        }
        Ok(out)
    }

    /// Takes one unit of [`Elab::budget`].
    fn spend(&mut self) -> Result<(), MonoError> {
        self.budget = self
            .budget
            .checked_sub(1)
            .ok_or_else(|| MonoError::TooLarge {
                component: self.sig.name.clone(),
            })?;
        Ok(())
    }

    fn elab_commands(
        &mut self,
        cmds: &'p [Command],
        out: &mut Vec<Command>,
    ) -> Result<(), MonoError> {
        for cmd in cmds {
            self.spend()?;
            match cmd {
                Command::Instance {
                    name,
                    component: callee,
                    params,
                } => {
                    let name = self.elab_name(name)?;
                    let given: Vec<u64> = params
                        .iter()
                        .map(|p| {
                            self.eval(p, &|| format!("parameter of instance {}", written(&name)))
                        })
                        .collect::<Result<_, _>>()?;
                    let Some((sig, is_extern)) = self.table.index.callee(callee) else {
                        return Err(MonoError::UnknownComponent {
                            component: self.sig.name.clone(),
                            callee: callee.clone(),
                        });
                    };
                    let values = resolve_params(sig, &given, &self.sig.name, &|param| {
                        format!(
                            "derived parameter {param} of instance {} ({callee})",
                            written(&name)
                        )
                    })?;
                    self.stats.derivations_evaluated +=
                        (sig.params.len() - sig.free_param_count()) as u64;
                    // Record the callee's *original* signature (bundles
                    // intact) so invocations can expand bundle arguments
                    // against it.
                    let def = Def::Inst(self.table.insts.len());
                    self.table.names.insert(name.base.clone(), def);
                    let state = State::Done(values.clone());
                    let (params, frame) = (&params[..], None);
                    self.table.insts.push(Inst {
                        sig,
                        params,
                        frame,
                        state,
                    });
                    // Externs stay parametric: emit the full resolved value
                    // list (free then derived, in declaration order) so the
                    // lowering registry sees literals.
                    let (component, params) = if is_extern {
                        let params = values.into_iter().map(ConstExpr::Lit).collect();
                        (callee.clone(), params)
                    } else {
                        (self.record(callee, values)?, Vec::new())
                    };
                    out.push(Command::Instance {
                        name,
                        component,
                        params,
                    });
                }
                Command::Invoke {
                    name,
                    instance,
                    events,
                    args,
                } => {
                    let name = self.elab_name(name)?;
                    let instance = self.elab_name(instance)?;
                    // The instance's parameters are also readable through
                    // the invocation's name (`x := I<G>(...)` → `x.W`).
                    let args = match self.table.def(&instance.base) {
                        Some(Def::Inst(s)) => {
                            self.table.names.insert(name.base.clone(), Def::Invoke(s));
                            self.expand_args(args, s, &name.base)?
                        }
                        // Unknown instance: the checker reports the binding
                        // error against the flattened body.
                        _ => args
                            .iter()
                            .map(|a| self.elab_port(a))
                            .collect::<Result<_, _>>()?,
                    };
                    let site = || format!("schedule of invocation {name}");
                    let events = events
                        .iter()
                        .map(|t| Ok(Time::new(t.event.clone(), self.eval(&t.offset, &site)?)))
                        .collect::<Result<_, _>>()?;
                    out.push(Command::Invoke {
                        instance,
                        events,
                        args,
                        name,
                    });
                }
                Command::Connect { dst, src } => {
                    out.push(Command::Connect {
                        dst: self.elab_port(dst)?,
                        src: self.elab_port(src)?,
                    });
                }
                Command::ForGen { var, lo, hi, body } => {
                    let lo = self.eval(lo, &|| "loop lower bound".to_owned())?;
                    let hi = self.eval(hi, &|| "loop upper bound".to_owned())?;
                    if self.table.param(self.frame, var).is_some() {
                        return Err(MonoError::Shadow {
                            component: self.sig.name.clone(),
                            var: var.clone(),
                        });
                    }
                    self.stats.loops_unrolled += 1;
                    // One frame per loop, rebound each iteration and
                    // dropped after the loop unless the pre-scan has pushed
                    // frames of its own after it.
                    let f = self.table.frames.len();
                    self.table.frames.push((var, lo, self.frame));
                    let outer = self.frame.replace(f);
                    for i in lo..hi {
                        self.spend()?;
                        self.table.frames[f].1 = i;
                        self.elab_commands(body, out)?;
                    }
                    self.frame = outer;
                    if self.table.frames.len() == f + 1 {
                        self.table.frames.pop();
                    }
                }
                Command::IfGen {
                    lhs,
                    op,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let site = || "if-generate condition".to_owned();
                    let l = self.eval(lhs, &site)?;
                    let r = self.eval(rhs, &site)?;
                    self.stats.ifs_resolved += 1;
                    let arm = if op.holds(l, r) { then_body } else { else_body };
                    self.elab_commands(arm, out)?;
                }
            }
        }
        Ok(())
    }
}

/// The base names of a signature's interface, input and output ports.
fn sig_port_names(sig: &Signature) -> impl Iterator<Item = &Id> {
    let ports = sig.inputs.iter().chain(&sig.outputs).map(|p| &p.name);
    sig.interfaces.iter().map(|i| &i.name).chain(ports)
}

/// Evaluates a signature expression under `env`; `site` is rendered only
/// when evaluation fails.
fn eval_in(
    e: &ConstExpr,
    env: &HashMap<Id, u64>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<u64, MonoError> {
    e.eval(env)
        .map_err(|cause| MonoError::eval(component, site(), cause))
}

fn time_in(
    t: &Time,
    env: &HashMap<Id, u64>,
    component: &str,
    site: &dyn Fn() -> String,
) -> Result<Time, MonoError> {
    Ok(Time::new(
        t.event.clone(),
        eval_in(&t.offset, env, component, site)?,
    ))
}

/// Flattens one port definition: a scalar port yields itself with width
/// and offsets resolved; a bundle `name[i: lo..hi]` yields one element per
/// index, the index substituted into width and liveness.
fn flatten_port(
    p: &PortDef,
    env: &HashMap<Id, u64>,
    cname: &str,
    dir: &str,
    stats: &mut MonoStats,
    bundles: &mut BundleExtents,
    out: &mut Vec<PortDef>,
) -> Result<(), MonoError> {
    let elab_one = |name: Id, env: &HashMap<Id, u64>| -> Result<PortDef, MonoError> {
        let site = || format!("liveness of {dir} port {name}");
        Ok(PortDef {
            liveness: Range::new(
                time_in(&p.liveness.start, env, cname, &site)?,
                time_in(&p.liveness.end, env, cname, &site)?,
            ),
            width: ConstExpr::Lit(eval_in(&p.width, env, cname, &|| {
                format!("width of {dir} port {name}")
            })?),
            name,
            bundle: None,
        })
    };
    let Some(b) = &p.bundle else {
        out.push(elab_one(p.name.clone(), env)?);
        return Ok(());
    };
    if env.contains_key(&b.var) {
        return Err(MonoError::Shadow {
            component: cname.to_owned(),
            var: b.var.clone(),
        });
    }
    let site = || format!("index range of {dir} port {}", p.name);
    let lo = eval_in(&b.lo, env, cname, &site)?;
    let hi = eval_in(&b.hi, env, cname, &site)?;
    let bad = if hi <= lo {
        Some(format!("bundle has an empty index range {lo}..{hi}"))
    } else {
        (hi - lo > MAX_BUNDLE).then(|| format!("bundle has more than {MAX_BUNDLE} elements"))
    };
    if let Some(message) = bad {
        return Err(MonoError::Bundle {
            component: cname.to_owned(),
            site: site(),
            message,
        });
    }
    stats.bundles_flattened += 1;
    bundles.insert(p.name.clone(), (lo, hi));
    let mut env2 = env.clone();
    for k in lo..hi {
        env2.insert(b.var.clone(), k);
        out.push(elab_one(p.element_name(k), &env2)?);
    }
    Ok(())
}

/// Elaborates a signature under `env`, returning the concrete signature
/// (bundles flattened) and the map of bundle extents for body elaboration.
fn elab_sig(
    sig: &Signature,
    env: &HashMap<Id, u64>,
    mono_name: &str,
    stats: &mut MonoStats,
) -> Result<(Signature, BundleExtents), MonoError> {
    let cname = &sig.name;
    let mut bundles = HashMap::new();
    let mut inputs = Vec::new();
    for p in &sig.inputs {
        flatten_port(p, env, cname, "input", stats, &mut bundles, &mut inputs)?;
    }
    let mut outputs = Vec::new();
    for p in &sig.outputs {
        flatten_port(p, env, cname, "output", stats, &mut bundles, &mut outputs)?;
    }
    let flat = Signature {
        name: mono_name.to_owned(),
        params: Vec::new(),
        events: sig
            .events
            .iter()
            .map(|e| {
                let site = || format!("delay of event {}", e.name);
                let delay = match &e.delay {
                    Delay::Const(n) => Delay::Const(*n),
                    Delay::Diff(a, b) => Delay::Diff(
                        time_in(a, env, cname, &site)?,
                        time_in(b, env, cname, &site)?,
                    ),
                };
                Ok(EventDecl {
                    name: e.name.clone(),
                    delay,
                })
            })
            .collect::<Result<_, _>>()?,
        interfaces: sig.interfaces.clone(),
        inputs,
        outputs,
        constraints: sig
            .constraints
            .iter()
            .map(|c| {
                let site = || "where clause".to_owned();
                Ok(crate::ast::OrderConstraint {
                    lhs: time_in(&c.lhs, env, cname, &site)?,
                    op: c.op,
                    rhs: time_in(&c.rhs, env, cname, &site)?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    Ok((flat, bundles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const DELAY_EXT: &str = "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);";

    fn expand_src(src: &str) -> Result<(Program, MonoStats), MonoError> {
        expand_with_stats(&parse_program(src).unwrap())
    }

    #[test]
    fn concrete_programs_expand_to_themselves() {
        let p = parse_program(&format!(
            "{DELAY_EXT}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               d := new Delay[8]<G>(x);
               o = d.out;
             }}"
        ))
        .unwrap();
        let (q, stats) = expand_with_stats(&p).unwrap();
        assert_eq!(p, q, "expansion is the identity on concrete programs");
        let (r, _) = expand_with_stats(&q).unwrap();
        assert_eq!(q, r, "expansion is idempotent");
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.loops_unrolled, 0);
    }

    #[test]
    fn loop_unrolls_to_hand_written_form() {
        let looped = expand_src(&format!(
            "{DELAY_EXT}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
               s[0] := new Delay[8]<G>(x);
               for i in 1..2 {{
                 s[i] := new Delay[8]<G+i>(s[i-1].out);
               }}
               o = s[1].out;
             }}"
        ))
        .unwrap()
        .0;
        let hand = parse_program(&format!(
            "{DELAY_EXT}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
               s_0 := new Delay[8]<G>(x);
               s_1 := new Delay[8]<G+1>(s_0.out);
               o = s_1.out;
             }}"
        ))
        .unwrap();
        assert_eq!(looped, hand);
    }

    #[test]
    fn cache_deduplicates_instantiations() {
        let (p, stats) = expand_src(&format!(
            "{DELAY_EXT}
             comp Inner[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
               d := new Delay[W]<G>(x);
               o = d.out;
             }}
             comp A<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               i := new Inner[8]<G>(x);
               o = i.o;
             }}
             comp B<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               i := new Inner[8]<G>(x);
               o = i.o;
             }}"
        ))
        .unwrap();
        let inners: Vec<_> = p
            .components
            .iter()
            .filter(|c| c.sig.name.starts_with("Inner"))
            .collect();
        assert_eq!(inners.len(), 1, "one monomorphized copy");
        assert_eq!(inners[0].sig.name, "Inner_8");
        assert_eq!(stats.cache_hits, 1, "second instantiation was a hit");
        // Different parameters yield a different copy.
        let (p2, _) = expand_src(&format!(
            "{DELAY_EXT}
             comp Inner[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
               d := new Delay[W]<G>(x);
               o = d.out;
             }}
             comp A<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               i := new Inner[8]<G>(x);
               o = i.o;
             }}
             comp B<G: 1>(@[G, G+1] x: 16) -> (@[G+1, G+2] o: 16) {{
               i := new Inner[16]<G>(x);
               o = i.o;
             }}"
        ))
        .unwrap();
        assert!(p2.component("Inner_8").is_some());
        assert!(p2.component("Inner_16").is_some());
    }

    #[test]
    fn signature_arithmetic_is_resolved() {
        let (p, _) = expand_src(
            "comp Wide[N, W]<G: 1>(@[G, G+(N-1+1)] x: N*W) -> () { }
             comp Main<G: 4>(@[G, G+4] x: 24) -> () {
               w := new Wide[4, 6]<G>(x);
             }",
        )
        .unwrap();
        let wide = p.component("Wide_4_6").unwrap();
        assert_eq!(wide.sig.inputs[0].width, ConstExpr::Lit(24));
        assert_eq!(wide.sig.inputs[0].liveness.to_string(), "[G, G+4)");
        // Parametric originals are dropped from the concrete program.
        assert!(p.component("Wide").is_none());
    }

    #[test]
    fn unused_parametric_components_are_dropped() {
        let (p, _) = expand_src(
            "comp Unused[W]<G: 1>(@[G, G+1] x: W) -> () { }
             comp Main<G: 1>(@[G, G+1] x: 8) -> () { }",
        )
        .unwrap();
        assert_eq!(p.components.len(), 1);
        assert_eq!(p.components[0].sig.name, "Main");
    }

    #[test]
    fn errors_name_component_and_site() {
        // Unbound parameter in a root component.
        let err = expand_src("comp Main<G: 1>(@[G, G+1] x: W) -> () { }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Main"), "{msg}");
        assert!(msg.contains('W'), "{msg}");
        // Division by zero in a loop bound.
        let err = expand_src(
            "comp Main<G: 1>(@[G, G+1] x: 8) -> () {
               for i in 0..8/0 { }
             }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Eval { .. }), "{err}");
        // Loop variable shadowing.
        let err = expand_src(
            "comp Main<G: 1>(@[G, G+1] x: 8) -> () {
               for i in 0..2 { for i in 0..2 { } }
             }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Shadow { .. }), "{err}");
        // Parameter arity.
        let err = expand_src(
            "comp Two[A, B]<G: 1>() -> () { }
             comp Main<G: 1>() -> () { t := new Two[1]; }",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                MonoError::Arity {
                    want: 2,
                    got: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn same_key_recursion_is_divergence() {
        let err = expand_src(
            "comp Loop[N]<G: 1>() -> () { x := new Loop[N]; }
             comp Main<G: 1>() -> () { l := new Loop[3]; }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Recursive { .. }), "{err}");
    }

    #[test]
    fn decreasing_recursion_elaborates() {
        // A recursive generator: a depth-N unary chain.
        let p = expand_src(&format!(
            "{DELAY_EXT}
             comp Rec[N]<G: 1>(@[G, G+1] x: 8) -> (@[G+N, G+(N+1)] o: 8) {{
               d := new Delay[8]<G>(x);
               r := new Rec[N-1]<G+1>(d.out);
               o = r.o;
             }}
             comp Rec0<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {{ o = x; }}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
               r := new Rec[2]<G>(x);
               o = r.o;
             }}"
        ))
        .unwrap_err();
        // Rec[0] still references Rec[-1]: underflow is reported, proving
        // the recursion actually descended through distinct keys.
        assert!(matches!(p, MonoError::Eval { .. }), "{p:?}");
    }

    #[test]
    fn mono_names_dodge_user_components() {
        // A user component literally named `Inner_8` must not be merged
        // with the monomorph of `Inner[W]` at 8.
        let (p, _) = expand_src(
            "comp Inner[W]<G: 1>(@[G, G+1] x: W) -> () { }
             comp Inner_8<G: 2>(@[G, G+2] y: 4) -> () { }
             comp Main<G: 2>(@[G, G+1] x: 8, @[G, G+2] y: 4) -> () {
               a := new Inner[8]<G>(x);
               b := new Inner_8<G>(y);
             }",
        )
        .unwrap();
        // The user's Inner_8 survives untouched; the monomorph gets a
        // disambiguated name that instance `a` references.
        let user = p.component("Inner_8").unwrap();
        assert_eq!(user.sig.inputs[0].name, "y");
        let monomorph = p.component("Inner_8_").unwrap();
        assert_eq!(monomorph.sig.inputs[0].name, "x");
        assert_eq!(monomorph.sig.inputs[0].width, ConstExpr::Lit(8));
        let main = p.component("Main").unwrap();
        let callee_of = |inst: &str| {
            main.body.iter().find_map(|c| match c {
                Command::Instance {
                    name, component, ..
                } if name.base == inst => Some(component.clone()),
                _ => None,
            })
        };
        assert_eq!(callee_of("a#inst").as_deref(), Some("Inner_8_"));
        assert_eq!(callee_of("b#inst").as_deref(), Some("Inner_8"));
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
    }

    #[test]
    fn forward_constant_reads_chain_to_fixpoint() {
        // Three hops of forward `inst.P` reads: d's parameter comes from a,
        // whose parameter comes from b, whose parameter comes from c — each
        // declared *after* its reader. Each read resolves the declaration it
        // names on demand, so the whole chain elaborates.
        let (p, _) = expand_src(&format!(
            "{DELAY_EXT}
             comp Id[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W) {{ out = in; }}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               d := new Delay[a.W]<G>(x);
               a := new Id[b.W]<G>(x);
               b := new Id[c.W]<G>(x);
               c := new Id[8]<G>(x);
               o = d.out;
             }}"
        ))
        .unwrap_or_else(|e| panic!("forward chain failed to elaborate: {e}"));
        // Every hop resolved to the literal 8 that `c` pins down.
        assert!(p.component("Id_8").is_some());
        let main = p.component("Main").unwrap();
        let delay_params: Vec<_> = main
            .body
            .iter()
            .filter_map(|c| match c {
                Command::Instance {
                    component, params, ..
                } if component == "Delay" => Some(params.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(delay_params, vec![vec![ConstExpr::Lit(8)]]);
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
    }

    #[test]
    fn scan_fixpoint_terminates_on_unresolvable_chains() {
        // A genuinely unresolvable forward read (the cycle a -> b -> a)
        // must not loop the on-demand resolution: the instance being
        // resolved reads as failed, and the main pass reports the unbound
        // parameter.
        let err = expand_src(&format!(
            "{DELAY_EXT}
             comp Id[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W) {{ out = in; }}
             comp Main<G: 1>(@[G, G+1] x: 8) -> () {{
               a := new Id[b.W]<G>(x);
               b := new Id[a.W]<G>(x);
             }}"
        ))
        .unwrap_err();
        assert!(matches!(err, MonoError::Eval { .. }), "{err}");
    }

    #[test]
    fn pre_scan_retries_reads_that_failed_before_later_names_were_recorded() {
        // The pre-scan's first walk evaluates the gate's `p.W` before it
        // has recorded `q`, which p reads; p's failure is provisional, so
        // the next walk resolves it and d elaborates.
        for gate in [
            "if p.W == 8 { e := new Delay[8]<G>(x); }",
            "for i in 0..p.W { e[i] := new Delay[8]<G>(x); }",
        ] {
            let (p, _) = expand_src(&format!(
                "{DELAY_EXT}
                 comp Id[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W) {{ out = in; }}
                 comp Main<G: 1>(@[G, G+1] x: 8) -> () {{
                   d := new Id[p.W]<G>(x);
                   p := new Id[q.W]<G>(x);
                   {gate}
                   q := new Id[8]<G>(x);
                 }}"
            ))
            .unwrap_or_else(|e| panic!("{gate}: {e}"));
            let main = p.component("Main").unwrap();
            let delays = main.body.iter().filter(
                |c| matches!(c, Command::Instance { component, .. } if component == "Delay"),
            );
            assert!(p.component("Id_8").is_some(), "{gate}");
            assert!(delays.count() >= 1, "{gate}: the gate's body is kept");
        }
    }

    #[test]
    fn elaborate_component_records_deps() {
        // The per-unit entry point: callee instantiations are recorded as
        // dependencies and referenced by placeholder, not elaborated.
        let p = parse_program(&format!(
            "{DELAY_EXT}
             comp Inner[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
               d := new Delay[W]<G>(x);
               o = d.out;
             }}
             comp Pair[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
               a := new Inner[W]<G>(x);
               b := new Inner[W*2]<G>(x);
               o = a.o;
             }}"
        ))
        .unwrap();
        let unit = |component: &str, w| UnitKey {
            component: component.into(),
            values: vec![w],
        };
        let Elaborated {
            component: comp,
            deps,
            stats,
        } = elaborate_component(&ProgramIndex::new(&p), &unit("Pair", 8)).unwrap();
        assert_eq!(comp.sig.name, unit("Pair", 8).placeholder());
        assert_eq!(deps, vec![unit("Inner", 8), unit("Inner", 16)]);
        // The emitted instances reference their units' placeholders.
        let callees: Vec<_> = comp
            .body
            .iter()
            .filter_map(|c| match c {
                Command::Instance { component, .. } => Some(component.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            callees,
            vec![
                unit("Inner", 8).placeholder(),
                unit("Inner", 16).placeholder()
            ]
        );
        // Two fused instance+invoke pairs plus the output connection.
        assert_eq!(stats.commands_emitted, 5);
        // The dependency's concrete interface is reconstructible without
        // its body.
        let sig = elaborate_signature(&p.component("Inner").unwrap().sig, &[8], "X").unwrap();
        assert_eq!(sig.name, "X");
        assert_eq!(sig.inputs[0].width, ConstExpr::Lit(8));
    }

    #[test]
    fn duplicate_components_are_rejected() {
        let err = expand_src(
            "comp A<G: 1>() -> () { }
             comp A<G: 1>() -> () { }",
        )
        .unwrap_err();
        assert_eq!(err, MonoError::DuplicateComponent("A".into()));
    }

    #[test]
    fn bundle_signature_flattens_per_index() {
        let (p, stats) = expand_src(
            "comp Taps[N, W]<G: 1>(@[G, G+1] in[i: 0..N]: W*(i+1))
                 -> (@[G+k, G+(k+1)] out[k: N]: W) { out[0] = in[0]; out[1] = in[1]; }
             comp Main<G: 2>(@[G, G+1] a: 8, @[G, G+1] b: 16) -> () { }",
        )
        .unwrap();
        // `Taps` is never instantiated, so force it via a wrapper instead —
        // actually parametric components are dropped; re-expand with a user.
        assert!(p.component("Taps").is_none());
        assert_eq!(
            stats.bundles_flattened, 0,
            "uninstantiated: nothing flattened"
        );
        let (p, stats) = expand_src(
            "comp Taps[N, W]<G: 1>(@[G, G+1] in[i: 0..N]: W*(i+1))
                 -> (@[G+k, G+(k+1)] out[k: N]: W) { out[0] = in[0]; out[1] = in[1]; }
             comp Main<G: 4>(@[G, G+1] a: 8, @[G, G+2] b: 16) -> () {
               t := new Taps[2, 8]<G>(a, b);
             }",
        )
        .unwrap();
        let taps = p.component("Taps_2_8").unwrap();
        assert_eq!(stats.bundles_flattened, 2);
        // Input elements: widths W*(i+1) = 8, 16.
        let names: Vec<_> = taps.sig.inputs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["in_0", "in_1"]);
        assert_eq!(taps.sig.inputs[0].width, ConstExpr::Lit(8));
        assert_eq!(taps.sig.inputs[1].width, ConstExpr::Lit(16));
        assert!(taps.sig.inputs.iter().all(|p| p.bundle.is_none()));
        // Output elements: per-index liveness [G+k, G+k+1).
        assert_eq!(taps.sig.outputs[0].liveness.to_string(), "[G, G+1)");
        assert_eq!(taps.sig.outputs[1].liveness.to_string(), "[G+1, G+2)");
        // Body: bundle element reads flattened to plain ports.
        assert_eq!(
            taps.body[0],
            Command::Connect {
                dst: Port::This("out_0".into()),
                src: Port::This("in_0".into()),
            }
        );
    }

    #[test]
    fn whole_bundles_pass_as_arguments() {
        let (p, _) = expand_src(
            "comp Inner[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> (@[G, G+1] out[i: 0..N]: 8) {
               for i in 0..N { out[i] = in[i]; }
             }
             comp Outer[N]<G: 1>(@[G, G+1] xs[i: 0..N]: 8) -> (@[G, G+1] ys[i: 0..N]: 8) {
               a := new Inner[N]<G>(xs);
               b := new Inner[N]<G>(a.out);
               for i in 0..N { ys[i] = b.out[i]; }
             }
             comp Main<G: 1>(@[G, G+1] p: 8, @[G, G+1] q: 8) -> () {
               o := new Outer[2]<G>(p, q);
             }",
        )
        .unwrap();
        let outer = p.component("Outer_2").unwrap();
        // First invocation: own bundle expanded positionally.
        let args_of = |n: usize| match &outer.body[n] {
            Command::Invoke { args, .. } => args.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            args_of(1),
            vec![Port::This("xs_0".into()), Port::This("xs_1".into())]
        );
        // Second invocation: an earlier invocation's bundle output expanded.
        assert_eq!(
            args_of(3),
            vec![
                Port::Inv {
                    invocation: "a".into(),
                    port: "out_0".into()
                },
                Port::Inv {
                    invocation: "a".into(),
                    port: "out_1".into()
                },
            ]
        );
        // Main passes two scalars where Outer declares one bundle of two:
        // the count differs from the bundled arity, so elaboration falls
        // back to positional element passing, which the checker accepts
        // against the flattened signature (xs_0, xs_1).
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
    }

    #[test]
    fn if_generate_selects_exactly_one_arm() {
        let (p, stats) = expand_src(&format!(
            "{DELAY_EXT}
             comp Edge[N]<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               for i in 0..N {{
                 if i == 0 {{
                   d[i] := new Delay[8]<G>(x);
                 }} else {{
                   d[i] := new Delay[8]<G>(d[i-1].out);
                 }}
               }}
               o = d[0].out;
             }}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
               e := new Edge[3]<G>(x);
               o = e.o;
             }}"
        ))
        .unwrap();
        let edge = p.component("Edge_3").unwrap();
        assert_eq!(stats.ifs_resolved, 3, "evaluated once per iteration");
        // d_0 reads x; d_1, d_2 read the previous stage.
        let feeds: Vec<String> = edge
            .body
            .iter()
            .filter_map(|c| match c {
                Command::Invoke { args, .. } => Some(args[0].to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(feeds, vec!["x", "d_0.out", "d_1.out"]);
        // An if with an empty else and a false condition emits nothing.
        let (p, _) = expand_src(
            "comp Main<G: 1>(@[G, G+1] x: 8) -> () {
               if 1 > 2 { q := new Nope[8]; }
             }",
        )
        .unwrap();
        assert!(p.components[0].body.is_empty());
    }

    #[test]
    fn bundle_errors_are_specific() {
        // Empty index range (symbolic, so the parser cannot catch it). The
        // caller passes no argument, so its own elaboration succeeds and
        // the callee's unit reports the range.
        let err = expand_src(
            "comp B[N]<G: 1>(@[G, G+1] in[i: N..N]: 8) -> () { }
             comp Main<G: 1>(@[G, G+1] a: 8) -> () { b := new B[3]<G>(); }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Bundle { .. }), "{err}");
        assert!(err.to_string().contains("empty index range"), "{err}");
        // Extent mismatch between caller bundle and callee bundle.
        let err = expand_src(
            "comp In[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> () { }
             comp Out[N]<G: 1>(@[G, G+1] xs[i: 0..N]: 8) -> () {
               a := new In[4]<G>(xs);
             }
             comp Main<G: 1>(@[G, G+1] p: 8, @[G, G+1] q: 8) -> () {
               o := new Out[2]<G>(p, q);
             }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("2 elements"), "{err}");
        // Scalar where a bundle is expected.
        let err = expand_src(
            "comp In[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> () { }
             comp Main<G: 1>(@[G, G+1] p: 8) -> () { a := new In[1]<G>(p); }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a bundle"), "{err}");
        // Bundle element index out of range.
        let err = expand_src(
            "comp Main<G: 1>(@[G, G+1] in[i: 0..2]: 8) -> (@[G, G+1] o: 8) {
               o = in[5];
             }",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("outside the bundle's range"),
            "{err}"
        );
        // Bundles on externs are rejected up front.
        let err = expand_src(
            "extern comp E<G: 1>(@[G, G+1] in[i: 0..2]: 8) -> ();
             comp Main<G: 1>() -> () { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("extern"), "{err}");
        // Bundle index variable shadowing a component parameter.
        let err = expand_src(
            "comp B[N]<G: 1>(@[G, G+1] in[N: 0..2]: 8) -> () { }
             comp Main<G: 1>(@[G, G+1] a: 8, @[G, G+1] b: 8) -> () {
               x := new B[3]<G>(a, b);
             }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Shadow { .. }), "{err}");
    }

    #[test]
    fn derived_params_resolve_and_feed_the_cache_key() {
        let (p, stats) = expand_src(&format!(
            "{DELAY_EXT}
             comp Enc[N, some W = log2(N), some HALF = W * 2 - W]<G: 1>(@[G, G+1] x: N)
                 -> (@[G, G+1] o: W) {{ o = 0; }}
             comp A<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 3) {{
               e := new Enc[8]<G>(x);
               o = e.o;
             }}
             comp B<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 3) {{
               e := new Enc[8]<G>(x);
               o = e.o;
             }}"
        ))
        .unwrap();
        // Named by the free value only; derived values resolved in widths.
        let enc = p.component("Enc_8").expect("monomorphized once");
        assert_eq!(enc.sig.outputs[0].width, ConstExpr::Lit(3));
        assert_eq!(stats.cache_hits, 1, "same free values share the key");
        // Two derivations per resolution (W and the chained HALF), and the
        // second instantiation re-resolves before hitting the cache.
        assert_eq!(stats.derivations_evaluated, 4);
    }

    #[test]
    fn callers_read_derived_params() {
        let (p, _) = expand_src(&format!(
            "{DELAY_EXT}
             comp Enc[N, some W = log2(N)]<G: 1>(@[G, G+1] x: N) -> (@[G, G+1] o: W) {{
               o = 0;
             }}
             comp Top<G: 1>(@[G, G+1] x: 16) -> (@[G+1, G+2] o: 4) {{
               e := new Enc[16]<G>(x);
               d := new Delay[e.W]<G>(e.o);
               o = d.out;
             }}"
        ))
        .unwrap();
        let top = p.component("Top").unwrap();
        let delay_params = top
            .body
            .iter()
            .find_map(|c| match c {
                Command::Instance {
                    component, params, ..
                } if component == "Delay" => Some(params.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(delay_params, vec![ConstExpr::Lit(4)], "e.W = log2(16)");
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
        // Free parameters are readable too, through a non-fused invocation
        // name, and usable in time offsets and loop bounds.
        let (p, _) = expand_src(&format!(
            "{DELAY_EXT}
             comp Top<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
               I := new Delay[8];
               a := I<G+(I.W-8)>(x);
               b := new Delay[a.W]<G+1>(a.out);
               o = b.out;
             }}"
        ))
        .unwrap();
        let top = p.component("Top").unwrap();
        match &top.body[1] {
            Command::Invoke { events, .. } => assert_eq!(events[0], Time::new("G", 0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_param_failures_are_reported() {
        // Derivation that cannot evaluate at this instantiation.
        let err = expand_src(
            "comp E[N, some W = log2(N - 1)]<G: 1>(@[G, G+1] x: N) -> () {  }
             comp Main<G: 1>(@[G, G+1] x: 1) -> () { e := new E[1]<G>(x); }",
        )
        .unwrap_err();
        assert!(matches!(err, MonoError::Eval { .. }), "{err}");
        assert!(err.to_string().contains("derived parameter W"), "{err}");
        // An explicitly supplied derived value must match its derivation.
        let err = expand_src(
            "extern comp Sel[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
                 -> (@[G, G+1] out: OW);
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 4) {
               s := new Sel[8, 3, 0, 5]<G>(x);
               o = s.out;
             }",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                MonoError::Derived {
                    want: 4,
                    got: 5,
                    ..
                }
            ),
            "{err}"
        );
        // Supplying a value for a derived parameter (wrong arity) is an
        // arity error counted in *free* parameters.
        let err = expand_src(
            "comp E[N, some W = log2(N)]<G: 1>(@[G, G+1] x: N) -> () { }
             comp Main<G: 1>(@[G, G+1] x: 8) -> () { e := new E[8, 3, 9]<G>(x); }",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                MonoError::Arity {
                    want: 1,
                    got: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn expansion_of_derived_extern_instances_is_idempotent() {
        let (p, _) = expand_src(
            "extern comp Sel[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
                 -> (@[G, G+1] out: OW);
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 4) {
               s := new Sel[8, 3, 0]<G>(x);
               o = s.out;
             }",
        )
        .unwrap();
        // The emitted instance carries the full value list (OW appended).
        match &p.component("Main").unwrap().body[0] {
            Command::Instance { params, .. } => {
                assert_eq!(
                    params,
                    &vec![
                        ConstExpr::Lit(8),
                        ConstExpr::Lit(3),
                        ConstExpr::Lit(0),
                        ConstExpr::Lit(4)
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
        let (q, _) = expand_with_stats(&p).unwrap();
        assert_eq!(p, q, "expansion is idempotent on the full-value form");
    }

    #[test]
    fn whole_bundle_forward_references_resolve() {
        // `a` consumes `b.out` as a whole-bundle argument although `b` is
        // defined later in the body (and `b` reads its input from `a`).
        let (p, _) = expand_src(
            "comp Pass[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> (@[G, G+1] out[i: 0..N]: 8) {
               for i in 0..N { out[i] = in[i]; }
             }
             comp Fwd[N]<G: 1>(@[G, G+1] xs[i: 0..N]: 8) -> (@[G, G+1] ys[i: 0..N]: 8) {
               a := new Pass[N]<G>(b.out);
               b := new Pass[N]<G>(xs);
               for i in 0..N { ys[i] = a.out[i]; }
             }
             comp Main<G: 1>(@[G, G+1] p: 8, @[G, G+1] q: 8) -> () {
               f := new Fwd[2]<G>(p, q);
             }",
        )
        .unwrap();
        let fwd = p.component("Fwd_2").unwrap();
        match &fwd.body[1] {
            Command::Invoke { args, .. } => {
                assert_eq!(
                    args,
                    &vec![
                        Port::Inv {
                            invocation: "b".into(),
                            port: "out_0".into()
                        },
                        Port::Inv {
                            invocation: "b".into(),
                            port: "out_1".into()
                        },
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
        // Forward *element* references are bounds-checked, not silently
        // flattened.
        let err = expand_src(
            "comp Pass[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> (@[G, G+1] out[i: 0..N]: 8) {
               for i in 0..N { out[i] = in[i]; }
             }
             comp Fwd<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y: 8) {
               y = b.out[7];
               b := new Pass[2]<G>(x, x);
             }
             comp Main<G: 1>(@[G, G+1] p: 8) -> () { f := new Fwd<G>(p); }",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("outside the bundle's range"),
            "{err}"
        );
    }

    #[test]
    fn generate_constants_in_data_positions_become_literals() {
        let (p, _) = expand_src(
            "extern comp Mux[W]<G: 1>(@[G, G+1] sel: 1, @[G, G+1] in0: W, @[G, G+1] in1: W)
                 -> (@[G, G+1] out: W);
             comp Pick[N]<G: 1>(@[G, G+1] sel: 1) -> (@[G, G+1] o: 8) {
               for i in 2..3 {
                 m[i] := new Mux[8]<G>(sel, i, N);
               }
               o = m[2].out;
             }
             comp Main<G: 1>(@[G, G+1] s: 1) -> (@[G, G+1] o: 8) {
               p := new Pick[9]<G>(s);
               o = p.o;
             }",
        )
        .unwrap();
        let pick = p.component("Pick_9").unwrap();
        match &pick.body[1] {
            Command::Invoke { args, .. } => {
                // `sel` is a port and stays one; the loop variable and the
                // component parameter become literal values.
                assert_eq!(
                    args,
                    &vec![Port::This("sel".into()), Port::Lit(2), Port::Lit(9)]
                );
            }
            other => panic!("{other:?}"),
        }
        crate::check_program(&p).unwrap_or_else(|e| panic!("{e:#?}"));
    }

    #[test]
    fn empty_and_reversed_ranges_unroll_to_nothing() {
        let (p, stats) = expand_src(
            "comp Main<G: 1>(@[G, G+1] x: 8) -> () {
               for i in 3..3 { d[i] := new Nope[8]; }
               for i in 5..2 { d[i] := new Nope[8]; }
             }",
        )
        .unwrap();
        assert!(p.components[0].body.is_empty());
        assert_eq!(stats.loops_unrolled, 2);
    }
}
