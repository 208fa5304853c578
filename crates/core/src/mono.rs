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
//!    becomes `hi - lo` concrete ports `in_lo .. in_{hi-1}` with the index
//!    substituted into each element's width and interval offsets; bundle
//!    element reads (`in[e]`, `s.out[e]`) become plain port references, and
//!    a whole bundle passed as an invocation argument is expanded
//!    positionally into its elements — a best-effort pre-scan of each body
//!    records every declaration first, so bundle arguments may reference
//!    invocations defined *later* in the body (forward references), with
//!    element indices bounds-checked either way,
//! 5. **evaluates derived parameters** — a signature may bind existential
//!    parameters via equations over earlier ones
//!    (`comp Enc[N, some W = log2(N)]`); each derivation is evaluated at
//!    instantiation time, feeds the monomorphization cache key, and is
//!    published to the caller's environment as `inst.W`, so callers can use
//!    a callee's derived widths in their own widths, offsets, and bundle
//!    ranges without ever seeing the callee's body,
//! 6. **monomorphizes instantiations** — each `(component, params)` pair is
//!    elaborated exactly once through a content-keyed cache; `Process[32]`
//!    instantiated from a hundred sites yields a single concrete
//!    `Process_32` component.
//!
//! Inside generate code, a bare parameter or loop variable in a *data*
//! position (an invocation argument or connection source) denotes its value
//! as a constant — `new Mux[W]<G>(sel.out, m.out, i)` feeds the literal
//! value of `i`. Signature ports shadow: a name that is also a port of the
//! enclosing component keeps referring to the port.
//!
//! The output program contains the original externs (they stay parametric;
//! the primitive registry consumes their parameter *values* during
//! lowering) plus only concrete components, so the existing
//! checking/lowering pipeline runs on it unchanged. Expansion is
//! idempotent: expanding an already-concrete program reproduces it.
//!
//! Recursive generators (a component instantiating itself at *smaller*
//! parameters) are supported up to a fixed elaboration depth; instantiating
//! the exact same `(component, params)` key while it is still being
//! elaborated is reported as divergence.

use crate::ast::{
    Command, Component, ConstEvalError, ConstExpr, Delay, EventDecl, IName, Id, ParamResolveError,
    Port, PortDef, Program, Range, Signature, Time,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Maximum depth of nested `(component, params)` elaborations: deep enough
/// for any reasonable recursive generator, small enough to catch divergence
/// quickly. Public so external drivers scheduling units over the monomorph
/// DAG can enforce the same bound.
pub const MAX_DEPTH: usize = 64;

/// Ceiling on commands emitted per component, so a mistyped bound
/// (`for i in 0..pow2(60)`) fails fast instead of exhausting memory.
const MAX_COMMANDS: usize = 1 << 20;

/// Ceiling on elements per bundle port, for the same reason.
const MAX_BUNDLE: u64 = 1 << 16;

/// Elaboration statistics, chiefly for observing the monomorphization
/// cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonoStats {
    /// `(component, params)` instantiations answered from the cache.
    pub cache_hits: u64,
    /// Instantiations that required a fresh elaboration.
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
    /// Elaboration exceeded the nested-instantiation depth limit.
    TooDeep {
        /// The component that exceeded the limit.
        component: Id,
    },
    /// A single component expanded past the command-count ceiling.
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
                "component {component}[{}] recursively instantiates itself with the same \
                 parameters",
                params
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            MonoError::TooDeep { component } => write!(
                f,
                "elaborating {component} exceeds {MAX_DEPTH} nested instantiations"
            ),
            MonoError::TooLarge { component } => write!(
                f,
                "component {component} expands to more than {MAX_COMMANDS} commands"
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
    // Every name already claimed by the source program: monomorph names
    // must not collide with user components or externs (a user-written
    // `Inner_8` next to `Inner[W]` instantiated at 8 would otherwise merge
    // silently).
    let taken = program
        .components
        .iter()
        .map(|c| c.sig.name.clone())
        .chain(program.externs.iter().map(|s| s.name.clone()))
        .collect();
    let mut m = Mono {
        program,
        out: Vec::new(),
        cache: HashMap::new(),
        stack: Vec::new(),
        taken,
        stats: MonoStats::default(),
    };
    for comp in &program.components {
        if comp.sig.params.is_empty() {
            m.instantiate(&comp.sig.name, Vec::new())?;
        }
    }
    Ok((
        Program {
            externs: program.externs.clone(),
            components: m.out,
        },
        m.stats,
    ))
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
    let mut seen = std::collections::HashSet::new();
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

/// How a body elaboration turns a user-component instantiation into the
/// name of the concrete component the emitted `new` command references.
///
/// [`expand`] resolves recursively (elaborating the callee on the spot,
/// through the monomorphization cache). An incremental build driver can
/// instead *record* the `(callee, values)` pair as a dependency edge and
/// hand back a deterministic placeholder, elaborating each unit exactly
/// once — possibly in parallel, possibly from a cross-session artifact
/// cache — and renaming placeholders when the units are merged.
pub trait CalleeResolver {
    /// Resolves instantiating `callee` at `values` (one value per callee
    /// parameter, derived parameters included) to a concrete component
    /// name.
    ///
    /// # Errors
    ///
    /// Returns a [`MonoError`] — typically [`MonoError::Recursive`] or
    /// [`MonoError::TooDeep`] from the resolver's own cycle accounting, or
    /// any elaboration error of the callee when resolving recursively.
    fn resolve(&mut self, callee: &str, values: Vec<u64>) -> Result<Id, MonoError>;
}

/// Elaborates a single `(component, values)` unit: the signature and body
/// of `component` under the parameter environment of `values`, with every
/// user-component instantiation routed through `resolver` (externs are
/// emitted in place with literal parameter lists). The produced component
/// is named `mono_name`.
///
/// `values` must carry one value per parameter of `component` (derived
/// parameters included), as [`Signature::resolve_param_values`] returns.
///
/// This is the per-unit engine behind [`expand`] — and the entry point the
/// `fil-build` driver uses to elaborate units independently.
///
/// # Errors
///
/// Returns a [`MonoError`] naming the component and site of the failure.
pub fn elaborate_component(
    program: &Program,
    component: &str,
    values: &[u64],
    mono_name: &str,
    resolver: &mut dyn CalleeResolver,
) -> Result<(Component, MonoStats), MonoError> {
    let comp = program
        .component(component)
        .ok_or_else(|| MonoError::UnknownComponent {
            component: component.to_owned(),
            callee: component.to_owned(),
        })?;
    let mut elab = Elab {
        program,
        resolver,
        stats: MonoStats::default(),
    };
    let mut env: HashMap<Id, u64> = comp.sig.param_env(values);
    let (sig, own_bundles) = elab.elab_sig(&comp.sig, &env, mono_name)?;
    let own_ports: HashSet<&str> = comp
        .sig
        .interfaces
        .iter()
        .map(|i| i.name.as_str())
        .chain(comp.sig.inputs.iter().map(|p| p.name.as_str()))
        .chain(comp.sig.outputs.iter().map(|p| p.name.as_str()))
        .collect();
    let mut ctx = BodyCtx {
        own_ports,
        own_bundles,
        instances: HashMap::new(),
        invokes: HashMap::new(),
    };
    // Best-effort pre-scan: record every declaration so forward references
    // resolve. Each pass can resolve one more hop of forward constant
    // reads (`d := new X[e.W]` before `e`, whose own parameters read a yet
    // later instance), so iterate to a fixpoint: stop as soon as a pass
    // completes, or when a pass records nothing new (the remaining
    // unresolved sites are genuine errors for the main pass to report).
    // Fully-resolved bodies (the common case) are walked once.
    loop {
        let mut budget = MAX_COMMANDS;
        let before = (env.len(), ctx.instances.len(), ctx.invokes.len());
        if elab.scan_commands(&comp.body, &mut env, &mut ctx, &mut budget)
            || (env.len(), ctx.instances.len(), ctx.invokes.len()) == before
        {
            break;
        }
    }
    let mut body = Vec::new();
    elab.elab_commands(&comp.body, &mut env, &comp.sig.name, &mut ctx, &mut body)?;
    elab.stats.commands_emitted += body.len() as u64;
    let stats = elab.stats;
    Ok((Component { sig, body }, stats))
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
    struct NoCallees;
    impl CalleeResolver for NoCallees {
        fn resolve(&mut self, _: &str, _: Vec<u64>) -> Result<Id, MonoError> {
            unreachable!("signature elaboration never instantiates components")
        }
    }
    static EMPTY: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    let mut elab = Elab {
        program: EMPTY.get_or_init(Program::new),
        resolver: &mut NoCallees,
        stats: MonoStats::default(),
    };
    let env = sig.param_env(values);
    elab.elab_sig(sig, &env, mono_name).map(|(s, _)| s)
}

struct Mono<'p> {
    program: &'p Program,
    out: Vec<Component>,
    /// `(component, params)` → concrete component name.
    cache: HashMap<(Id, Vec<u64>), Id>,
    /// Keys currently being elaborated (cycle detection).
    stack: Vec<(Id, Vec<u64>)>,
    /// Names already claimed (source components, externs, and emitted
    /// monomorphs) — fresh monomorph names are disambiguated against this.
    taken: std::collections::HashSet<Id>,
    stats: MonoStats,
}

/// The elaboration engine for one component body: every method is a pure
/// function of the source program and the parameter environment, except
/// that user-component instantiations go through the pluggable
/// [`CalleeResolver`].
struct Elab<'p, 'r> {
    program: &'p Program,
    resolver: &'r mut dyn CalleeResolver,
    stats: MonoStats,
}

/// Concrete `(lo, hi)` extents of a signature's bundle ports, by name.
type BundleExtents = HashMap<Id, (u64, u64)>;

/// Per-component elaboration context: what the body's port references can
/// resolve against. A best-effort pre-scan ([`Elab::scan_commands`]) fills
/// it with every declaration in the body before the main pass runs, so
/// bundle-typed *arguments* may reference the enclosing signature or any
/// invocation of the body — including ones defined later (forward
/// references) — and element indices are bounds-checked in every case.
struct BodyCtx<'p> {
    /// Ports of the enclosing (original) signature, by base name. A body
    /// name that is *not* a port but is bound in the parameter environment
    /// denotes its constant value in data positions.
    own_ports: HashSet<&'p str>,
    /// Own signature bundles: port name → concrete `(lo, hi)` extent.
    own_bundles: BundleExtents,
    /// Flattened instance name → the callee's *original* signature (with
    /// its bundles intact) and the callee's parameter environment
    /// (including derived parameters).
    instances: HashMap<Id, (&'p Signature, HashMap<Id, u64>)>,
    /// Flattened invocation name → flattened instance name.
    invokes: HashMap<Id, Id>,
}

impl BodyCtx<'_> {
    /// The concrete `(lo, hi)` extent of bundle output `port` of invocation
    /// `inv`, when the invocation, its instance's callee, and the bundle
    /// are all known (forward references resolve via the pre-scan).
    fn callee_output_extent(&self, inv: &str, port: &str) -> Option<(u64, u64)> {
        let inst = self.invokes.get(inv)?;
        let (sig, env) = self.instances.get(inst)?;
        let b = sig
            .outputs
            .iter()
            .find(|p| p.name == port)?
            .bundle
            .as_ref()?;
        Some((b.lo.eval(env).ok()?, b.hi.eval(env).ok()?))
    }
}

/// The user-visible stem of an instance name: the parser's fused-form
/// `#inst` suffix stripped, so `e := new Enc[8]<G>(x)` publishes its
/// parameters as `e.N` / `e.W`.
fn inst_stem(base: &str) -> &str {
    base.strip_suffix("#inst").unwrap_or(base)
}

impl CalleeResolver for Mono<'_> {
    fn resolve(&mut self, callee: &str, values: Vec<u64>) -> Result<Id, MonoError> {
        self.instantiate(callee, values)
    }
}

impl Elab<'_, '_> {
    /// Resolves the values supplied at an instantiation site into one value
    /// per callee parameter (derivations evaluated, or re-verified when the
    /// full list was passed through), reporting failures against the
    /// enclosing `component`.
    fn resolve_values(
        &mut self,
        callee: &Signature,
        given: &[u64],
        component: &str,
        inst: &IName,
    ) -> Result<Vec<u64>, MonoError> {
        let derived = callee.params.len() - callee.free_param_count();
        let full = callee.resolve_param_values(given).map_err(|e| match e {
            ParamResolveError::Arity { want, got } => MonoError::Arity {
                component: component.to_owned(),
                callee: callee.name.clone(),
                want,
                got,
            },
            ParamResolveError::Eval { param, cause } => MonoError::Eval {
                component: component.to_owned(),
                site: format!(
                    "derived parameter {param} of instance {inst} ({})",
                    callee.name
                ),
                cause,
            },
            ParamResolveError::Mismatch { param, want, got } => MonoError::Derived {
                component: component.to_owned(),
                callee: callee.name.clone(),
                param,
                want,
                got,
            },
        })?;
        self.stats.derivations_evaluated += derived as u64;
        Ok(full)
    }
}

impl<'p> Mono<'p> {
    /// Returns the concrete name for `component` instantiated at `values`
    /// (one value per parameter as [`resolve_values`](Self::resolve_values)
    /// returns, or one per free parameter — both forms normalize to the
    /// same cache key), elaborating it first unless cached.
    fn instantiate(&mut self, component: &str, values: Vec<u64>) -> Result<Id, MonoError> {
        let comp =
            self.program
                .component(component)
                .ok_or_else(|| MonoError::UnknownComponent {
                    component: self
                        .stack
                        .last()
                        .map(|(c, _)| c.clone())
                        .unwrap_or_default(),
                    callee: component.to_owned(),
                })?;
        // Normalize to the full value vector *before* forming the cache key
        // so free-length and full-length calls of the same instantiation
        // share one monomorph (instantiation sites pre-resolve; this also
        // gives direct callers real arity/derivation diagnostics).
        let enclosing = || {
            self.stack
                .last()
                .map(|(c, _)| c.clone())
                .unwrap_or_else(|| component.to_owned())
        };
        let values = comp
            .sig
            .resolve_param_values(&values)
            .map_err(|e| match e {
                ParamResolveError::Arity { want, got } => MonoError::Arity {
                    component: enclosing(),
                    callee: component.to_owned(),
                    want,
                    got,
                },
                ParamResolveError::Eval { param, cause } => MonoError::Eval {
                    component: enclosing(),
                    site: format!("derived parameter {param} of {component}"),
                    cause,
                },
                ParamResolveError::Mismatch { param, want, got } => MonoError::Derived {
                    component: enclosing(),
                    callee: component.to_owned(),
                    param,
                    want,
                    got,
                },
            })?;
        let key = (component.to_owned(), values.clone());
        if let Some(name) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(name.clone());
        }
        self.stats.cache_misses += 1;
        if self.stack.contains(&key) {
            return Err(MonoError::Recursive {
                component: component.to_owned(),
                params: values,
            });
        }
        if self.stack.len() >= MAX_DEPTH {
            return Err(MonoError::TooDeep {
                component: component.to_owned(),
            });
        }
        // Monomorph names carry the caller-supplied (free) values only —
        // derived values are a function of them.
        let free_values: Vec<u64> = comp
            .sig
            .params
            .iter()
            .zip(&values)
            .filter(|(d, _)| !d.is_derived())
            .map(|(_, v)| *v)
            .collect();
        let mono_name = if values.is_empty() {
            // Roots keep their own (already claimed) name.
            component.to_owned()
        } else {
            let mut n = component.to_owned();
            for v in &free_values {
                n.push('_');
                n.push_str(&v.to_string());
            }
            // Disambiguate against user-written components/externs and
            // previously emitted monomorphs.
            while self.taken.contains(&n) {
                n.push('_');
            }
            self.taken.insert(n.clone());
            n
        };
        self.stack.push(key.clone());
        let program = self.program;
        let (elaborated, stats) =
            elaborate_component(program, component, &values, &mono_name, self)?;
        self.stack.pop();
        self.stats.absorb(&stats);
        self.out.push(elaborated);
        self.cache.insert(key, mono_name.clone());
        Ok(mono_name)
    }
}

impl<'p> Elab<'p, '_> {
    /// Best-effort pre-scan of a body: mirrors the control flow of
    /// [`elab_commands`](Self::elab_commands) — loops unrolled,
    /// conditionals resolved — but only *records* declarations (instance
    /// signatures with parameter values, invocation links, and `inst.P`
    /// environment entries) without emitting commands or monomorphizing
    /// callees. Anything that fails to evaluate is silently skipped (the
    /// main pass re-evaluates everything and is the sole reporter of
    /// errors); returns `false` when something was skipped or the budget
    /// ran out, signalling that a second pass might record more.
    fn scan_commands(
        &self,
        cmds: &[Command],
        env: &mut HashMap<Id, u64>,
        ctx: &mut BodyCtx<'p>,
        budget: &mut usize,
    ) -> bool {
        let mut complete = true;
        for cmd in cmds {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            match cmd {
                Command::Instance {
                    name,
                    component: callee,
                    params,
                } => {
                    let (Ok(name), Some(csig)) = (name.mangle(env), self.program.sig(callee))
                    else {
                        complete = false;
                        continue;
                    };
                    let given: Vec<u64> =
                        match params.iter().map(|p| p.eval(env)).collect::<Result<_, _>>() {
                            Ok(v) => v,
                            Err(_) => {
                                complete = false;
                                continue;
                            }
                        };
                    let Ok(full) = csig.resolve_param_values(&given) else {
                        complete = false;
                        continue;
                    };
                    let cenv = csig.param_env(&full);
                    let stem = inst_stem(&name);
                    for (pname, v) in &cenv {
                        env.insert(ConstExpr::inst_key(stem, pname), *v);
                    }
                    ctx.instances.insert(name.clone(), (csig, cenv));
                }
                Command::Invoke { name, instance, .. } => {
                    let (Ok(name), Ok(instance)) = (name.mangle(env), instance.mangle(env)) else {
                        complete = false;
                        continue;
                    };
                    match ctx.instances.get(&instance) {
                        Some((_, cenv)) => {
                            for (pname, v) in cenv {
                                env.insert(ConstExpr::inst_key(&name, pname), *v);
                            }
                        }
                        None => complete = false,
                    }
                    ctx.invokes.insert(name, instance);
                }
                Command::Connect { .. } => {}
                Command::ForGen { var, lo, hi, body } => {
                    let (Ok(lo), Ok(hi)) = (lo.eval(env), hi.eval(env)) else {
                        complete = false;
                        continue;
                    };
                    if env.contains_key(var) {
                        continue; // Shadowing: the main pass reports it.
                    }
                    for i in lo..hi {
                        env.insert(var.clone(), i);
                        complete &= self.scan_commands(body, env, ctx, budget);
                    }
                    env.remove(var);
                }
                Command::IfGen {
                    lhs,
                    op,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let (Ok(l), Ok(r)) = (lhs.eval(env), rhs.eval(env)) else {
                        complete = false;
                        continue;
                    };
                    let arm = if op.holds(l, r) { then_body } else { else_body };
                    complete &= self.scan_commands(arm, env, ctx, budget);
                }
            }
        }
        complete
    }

    /// Evaluates `e` under `env`. Like every diagnostic site in
    /// elaboration, `site` is rendered only when evaluation fails.
    fn eval(
        &self,
        e: &ConstExpr,
        env: &HashMap<Id, u64>,
        component: &str,
        site: &dyn Fn() -> String,
    ) -> Result<u64, MonoError> {
        e.eval(env).map_err(|cause| MonoError::Eval {
            component: component.to_owned(),
            site: site(),
            cause,
        })
    }

    fn elab_time(
        &self,
        t: &Time,
        env: &HashMap<Id, u64>,
        component: &str,
        site: &dyn Fn() -> String,
    ) -> Result<Time, MonoError> {
        Ok(Time::new(
            t.event.clone(),
            self.eval(&t.offset, env, component, site)?,
        ))
    }

    fn elab_range(
        &self,
        r: &Range,
        env: &HashMap<Id, u64>,
        component: &str,
        site: &dyn Fn() -> String,
    ) -> Result<Range, MonoError> {
        Ok(Range::new(
            self.elab_time(&r.start, env, component, site)?,
            self.elab_time(&r.end, env, component, site)?,
        ))
    }

    /// Flattens one port definition: a scalar port yields itself with width
    /// and offsets resolved; a bundle `name[i: lo..hi]` yields one element
    /// per index, the index substituted into width and liveness.
    fn flatten_port(
        &mut self,
        p: &PortDef,
        env: &HashMap<Id, u64>,
        cname: &str,
        dir: &str,
        bundles: &mut BundleExtents,
        out: &mut Vec<PortDef>,
    ) -> Result<(), MonoError> {
        let elab_one = |m: &Self, name: Id, env: &HashMap<Id, u64>| -> Result<PortDef, MonoError> {
            Ok(PortDef {
                liveness: m.elab_range(&p.liveness, env, cname, &|| {
                    format!("liveness of {dir} port {name}")
                })?,
                width: ConstExpr::Lit(m.eval(&p.width, env, cname, &|| {
                    format!("width of {dir} port {name}")
                })?),
                name,
                bundle: None,
            })
        };
        let Some(b) = &p.bundle else {
            out.push(elab_one(self, p.name.clone(), env)?);
            return Ok(());
        };
        if env.contains_key(&b.var) {
            return Err(MonoError::Shadow {
                component: cname.to_owned(),
                var: b.var.clone(),
            });
        }
        let site = || format!("index range of {dir} port {}", p.name);
        let lo = self.eval(&b.lo, env, cname, &site)?;
        let hi = self.eval(&b.hi, env, cname, &site)?;
        if hi <= lo {
            return Err(MonoError::Bundle {
                component: cname.to_owned(),
                site: site(),
                message: format!("bundle has an empty index range {lo}..{hi}"),
            });
        }
        if hi - lo > MAX_BUNDLE {
            return Err(MonoError::Bundle {
                component: cname.to_owned(),
                site: site(),
                message: format!("bundle has more than {MAX_BUNDLE} elements"),
            });
        }
        self.stats.bundles_flattened += 1;
        bundles.insert(p.name.clone(), (lo, hi));
        let mut env2 = env.clone();
        for k in lo..hi {
            env2.insert(b.var.clone(), k);
            out.push(elab_one(self, p.element_name(k), &env2)?);
        }
        Ok(())
    }

    /// Elaborates a signature under `env`, returning the concrete signature
    /// (bundles flattened) and the map of bundle extents for body
    /// elaboration.
    fn elab_sig(
        &mut self,
        sig: &Signature,
        env: &HashMap<Id, u64>,
        mono_name: &str,
    ) -> Result<(Signature, BundleExtents), MonoError> {
        let cname = &sig.name;
        let mut bundles = HashMap::new();
        let mut inputs = Vec::new();
        for p in &sig.inputs {
            self.flatten_port(p, env, cname, "input", &mut bundles, &mut inputs)?;
        }
        let mut outputs = Vec::new();
        for p in &sig.outputs {
            self.flatten_port(p, env, cname, "output", &mut bundles, &mut outputs)?;
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
                            self.elab_time(a, env, cname, &site)?,
                            self.elab_time(b, env, cname, &site)?,
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
                        lhs: self.elab_time(&c.lhs, env, cname, &site)?,
                        op: c.op,
                        rhs: self.elab_time(&c.rhs, env, cname, &site)?,
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        Ok((flat, bundles))
    }

    fn elab_name(
        &self,
        n: &IName,
        env: &HashMap<Id, u64>,
        component: &str,
    ) -> Result<IName, MonoError> {
        n.mangle(env)
            .map(IName::plain)
            .map_err(|cause| MonoError::Eval {
                component: component.to_owned(),
                site: format!("index of {n}"),
                cause,
            })
    }

    fn elab_port(
        &self,
        p: &Port,
        env: &HashMap<Id, u64>,
        component: &str,
        ctx: &BodyCtx<'_>,
    ) -> Result<Port, MonoError> {
        Ok(match p {
            Port::This(name) => {
                // A bare parameter, loop variable, or instance-parameter
                // stem in a data position denotes a compile-time constant;
                // signature ports shadow.
                if !ctx.own_ports.contains(name.as_str()) {
                    if let Some(&v) = env.get(name) {
                        return Ok(Port::Lit(v));
                    }
                }
                Port::This(name.clone())
            }
            Port::Lit(n) => Port::Lit(*n),
            Port::Inv { invocation, port } => Port::Inv {
                invocation: self.elab_name(invocation, env, component)?,
                port: port.clone(),
            },
            Port::Bundle { port, idx } => {
                let k = self.eval(idx, env, component, &|| format!("index of {port}[{idx}]"))?;
                // Bounds-check against the enclosing signature when the
                // bundle is known (unknown names fall through to the
                // checker's binding pass).
                if let Some(&(lo, hi)) = ctx.own_bundles.get(port) {
                    if k < lo || k >= hi {
                        return Err(MonoError::Bundle {
                            component: component.to_owned(),
                            site: format!("element {port}[{idx}]"),
                            message: format!("index {k} is outside the bundle's range {lo}..{hi}"),
                        });
                    }
                }
                Port::This(format!("{port}_{k}"))
            }
            Port::InvBundle {
                invocation,
                port,
                idx,
            } => {
                let invocation = self.elab_name(invocation, env, component)?;
                let k = self.eval(idx, env, component, &|| {
                    format!("index of {invocation}.{port}[{idx}]")
                })?;
                // Bounds-check against the callee's bundle — the pre-scan
                // registers forward invocations too, so this covers
                // references in either direction (unknown invocation names
                // still fall through to the checker's binding pass).
                if let Some((lo, hi)) = ctx.callee_output_extent(&invocation.base, port) {
                    if k < lo || k >= hi {
                        return Err(MonoError::Bundle {
                            component: component.to_owned(),
                            site: format!("element {invocation}.{port}[{idx}]"),
                            message: format!("index {k} is outside the bundle's range {lo}..{hi}"),
                        });
                    }
                }
                Port::Inv {
                    invocation,
                    port: format!("{port}_{k}"),
                }
            }
        })
    }

    /// Expands invocation arguments against the callee's (original)
    /// signature: scalar inputs elaborate one-to-one, and each bundle input
    /// of extent `K` consumes one whole-bundle argument — the name of an
    /// own-signature bundle or any invocation's bundle output (forward
    /// references included, via the pre-scan) — expanded into its `K`
    /// element ports positionally.
    #[allow(clippy::too_many_arguments)] // Elaboration context + both envs.
    fn expand_args(
        &self,
        args: &[Port],
        callee: &Signature,
        callee_env: &HashMap<Id, u64>,
        env: &HashMap<Id, u64>,
        component: &str,
        inv: &str,
        ctx: &BodyCtx<'_>,
    ) -> Result<Vec<Port>, MonoError> {
        // Arity mismatches are the checker's to report (against the
        // flattened signature); elaborate positionally without expansion.
        if args.len() != callee.inputs.len() {
            return args
                .iter()
                .map(|a| self.elab_port(a, env, component, ctx))
                .collect();
        }
        let mut out = Vec::with_capacity(args.len());
        for (arg, pdef) in args.iter().zip(&callee.inputs) {
            let Some(b) = &pdef.bundle else {
                out.push(self.elab_port(arg, env, component, ctx)?);
                continue;
            };
            let site = || format!("argument {} of invocation {inv}", pdef.name);
            let want_lo = self.eval(&b.lo, callee_env, component, &site)?;
            let want_hi = self.eval(&b.hi, callee_env, component, &site)?;
            let want = want_hi.saturating_sub(want_lo);
            let bundle_err = |message: String| MonoError::Bundle {
                component: component.to_owned(),
                site: site(),
                message,
            };
            match arg {
                Port::This(name) => {
                    let Some(&(lo, hi)) = ctx.own_bundles.get(name) else {
                        return Err(bundle_err(format!(
                            "{name} is not a bundle, but {} of {} takes {want} elements",
                            pdef.name, callee.name
                        )));
                    };
                    if hi - lo != want {
                        return Err(bundle_err(format!(
                            "bundle {name} has {} elements but {} of {} takes {want}",
                            hi - lo,
                            pdef.name,
                            callee.name
                        )));
                    }
                    out.extend((lo..hi).map(|j| Port::This(format!("{name}_{j}"))));
                }
                Port::Inv { invocation, port } => {
                    let invocation = self.elab_name(invocation, env, component)?;
                    let Some((lo, hi)) = ctx.callee_output_extent(&invocation.base, port) else {
                        return Err(bundle_err(format!(
                            "{invocation}.{port} is not a bundle output of an invocation in \
                             this body, but {} of {} takes {want} elements",
                            pdef.name, callee.name
                        )));
                    };
                    if hi - lo != want {
                        return Err(bundle_err(format!(
                            "bundle {invocation}.{port} has {} elements but {} of {} \
                             takes {want}",
                            hi - lo,
                            pdef.name,
                            callee.name
                        )));
                    }
                    out.extend((lo..hi).map(|j| Port::Inv {
                        invocation: invocation.clone(),
                        port: format!("{port}_{j}"),
                    }));
                }
                other => {
                    return Err(bundle_err(format!(
                        "argument {other} cannot fill bundle port {} of {} ({want} \
                         elements); pass a whole bundle by name",
                        pdef.name, callee.name
                    )));
                }
            }
        }
        Ok(out)
    }

    fn elab_commands(
        &mut self,
        cmds: &[Command],
        env: &mut HashMap<Id, u64>,
        component: &str,
        ctx: &mut BodyCtx<'p>,
        out: &mut Vec<Command>,
    ) -> Result<(), MonoError> {
        for cmd in cmds {
            if out.len() >= MAX_COMMANDS {
                return Err(MonoError::TooLarge {
                    component: component.to_owned(),
                });
            }
            match cmd {
                Command::Instance {
                    name,
                    component: callee,
                    params,
                } => {
                    let name = self.elab_name(name, env, component)?;
                    let given: Vec<u64> = params
                        .iter()
                        .map(|p| {
                            self.eval(p, env, component, &|| {
                                format!("parameter of instance {name}")
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    // Resolve derived parameters, record the callee's
                    // *original* signature (bundles intact) so invocations
                    // can expand bundle arguments against it, and publish
                    // every parameter value to the caller as `stem.P`.
                    let Some(csig) = self.program.sig(callee) else {
                        return Err(MonoError::UnknownComponent {
                            component: component.to_owned(),
                            callee: callee.clone(),
                        });
                    };
                    let values = self.resolve_values(csig, &given, component, &name)?;
                    let cenv = csig.param_env(&values);
                    let stem = inst_stem(&name.base);
                    for (pname, v) in &cenv {
                        env.insert(ConstExpr::inst_key(stem, pname), *v);
                    }
                    ctx.instances.insert(name.base.clone(), (csig, cenv));
                    if self.program.is_extern(callee) {
                        // Externs stay parametric; emit the full resolved
                        // value list (free then derived, in declaration
                        // order) so the lowering registry sees literals.
                        out.push(Command::Instance {
                            name,
                            component: callee.clone(),
                            params: values.into_iter().map(ConstExpr::Lit).collect(),
                        });
                    } else {
                        let mono_name = self.resolver.resolve(callee, values)?;
                        out.push(Command::Instance {
                            name,
                            component: mono_name,
                            params: Vec::new(),
                        });
                    }
                }
                Command::Invoke {
                    name,
                    instance,
                    events,
                    args,
                } => {
                    let name = self.elab_name(name, env, component)?;
                    let instance = self.elab_name(instance, env, component)?;
                    ctx.invokes.insert(name.base.clone(), instance.base.clone());
                    // The instance's parameters are also readable through
                    // the invocation's name (`x := I<G>(...)` → `x.W`).
                    if let Some((_, cenv)) = ctx.instances.get(&instance.base) {
                        for (pname, v) in cenv {
                            env.insert(ConstExpr::inst_key(&name.base, pname), *v);
                        }
                    }
                    let site = || format!("schedule of invocation {name}");
                    let args = match ctx.instances.get(&instance.base) {
                        Some((csig, cenv)) => {
                            self.expand_args(args, csig, cenv, env, component, &name.base, ctx)?
                        }
                        // Unknown instance: the checker reports the binding
                        // error against the flattened body.
                        None => args
                            .iter()
                            .map(|a| self.elab_port(a, env, component, ctx))
                            .collect::<Result<_, _>>()?,
                    };
                    out.push(Command::Invoke {
                        instance,
                        events: events
                            .iter()
                            .map(|t| self.elab_time(t, env, component, &site))
                            .collect::<Result<_, _>>()?,
                        args,
                        name,
                    });
                }
                Command::Connect { dst, src } => {
                    out.push(Command::Connect {
                        dst: self.elab_port(dst, env, component, ctx)?,
                        src: self.elab_port(src, env, component, ctx)?,
                    });
                }
                Command::ForGen { var, lo, hi, body } => {
                    let lo = self.eval(lo, env, component, &|| "loop lower bound".to_owned())?;
                    let hi = self.eval(hi, env, component, &|| "loop upper bound".to_owned())?;
                    if env.contains_key(var) {
                        return Err(MonoError::Shadow {
                            component: component.to_owned(),
                            var: var.clone(),
                        });
                    }
                    self.stats.loops_unrolled += 1;
                    for i in lo..hi {
                        env.insert(var.clone(), i);
                        self.elab_commands(body, env, component, ctx, out)?;
                    }
                    env.remove(var);
                }
                Command::IfGen {
                    lhs,
                    op,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let site = || "if-generate condition".to_owned();
                    let l = self.eval(lhs, env, component, &site)?;
                    let r = self.eval(rhs, env, component, &site)?;
                    self.stats.ifs_resolved += 1;
                    let arm = if op.holds(l, r) { then_body } else { else_body };
                    self.elab_commands(arm, env, component, ctx, out)?;
                }
            }
        }
        Ok(())
    }
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
        // declared *after* its reader. One pre-scan pass resolves one hop,
        // so the scan must iterate to a fixpoint for the chain to elaborate
        // (the old two-pass scan resolved only `b` and failed on `a.W`).
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
        // must not loop the pre-scan: progress stalls, the scan stops, and
        // the main pass reports the unbound parameter.
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
    fn elaborate_component_records_deps_via_resolver() {
        // The per-unit entry point: callee instantiations go through the
        // resolver instead of being elaborated recursively.
        struct Recorder(Vec<(String, Vec<u64>)>);
        impl CalleeResolver for Recorder {
            fn resolve(&mut self, callee: &str, values: Vec<u64>) -> Result<Id, MonoError> {
                let name = format!("UNIT_{}_{}", callee, self.0.len());
                self.0.push((callee.to_owned(), values));
                Ok(name)
            }
        }
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
        let mut rec = Recorder(Vec::new());
        let (comp, stats) = elaborate_component(&p, "Pair", &[8], "Pair_8", &mut rec).unwrap();
        assert_eq!(comp.sig.name, "Pair_8");
        assert_eq!(
            rec.0,
            vec![
                ("Inner".to_owned(), vec![8]),
                ("Inner".to_owned(), vec![16])
            ]
        );
        // The emitted instances reference the resolver's names.
        let callees: Vec<_> = comp
            .body
            .iter()
            .filter_map(|c| match c {
                Command::Instance { component, .. } => Some(component.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(callees, vec!["UNIT_Inner_0", "UNIT_Inner_1"]);
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
        // Empty index range (symbolic, so the parser cannot catch it).
        let err = expand_src(
            "comp B[N]<G: 1>(@[G, G+1] in[i: N..N]: 8) -> () { }
             comp Main<G: 1>(@[G, G+1] a: 8) -> () { b := new B[3]<G>(a); }",
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
