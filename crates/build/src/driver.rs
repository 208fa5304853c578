//! The build driver: schedules per-component compile units over the
//! monomorph dependency DAG, with an in-session dedup cache, an optional
//! cross-session artifact cache, and an optional worker pool.
//!
//! # Units
//!
//! A *unit* is one `(source component, resolved parameter vector)` pair —
//! exactly the monomorphizer's cache key. Processing a unit:
//!
//! 1. **probe** the artifact cache (when `cache_dir` is set) by the unit's
//!    content hash; a valid artifact supplies the expanded component, the
//!    dependency list, and (for full builds) the lowered component — no
//!    expand/check/lower work at all;
//! 2. otherwise **expand** the unit through
//!    [`filament_core::mono::elaborate_component`], recording each callee
//!    instantiation as a dependency edge instead of recursing;
//! 3. for full builds, **check** and **lower** it against its scope: the
//!    externs it instantiates, its own signature and the concrete
//!    signatures of its direct dependencies (reconstructed from their
//!    source signatures — no bodies needed, the paper's
//!    modular-compilation story);
//! 4. **store** the artifact.
//!
//! Dependencies discovered in step 1/2 are pushed onto the shared queue;
//! workers drain it until the transitive closure of the parameter-free
//! roots is built.
//!
//! # Determinism
//!
//! Unit processing is a pure function of `(program, unit)`: callee
//! references are emitted as content-addressed placeholder names, so no
//! unit ever depends on scheduling order. The final **merge** is serial
//! and deterministic — it walks the recorded dependency graph in the exact
//! order the recursive monomorphizer would have (roots in declaration
//! order, dependencies in body order, names claimed pre-order, components
//! emitted post-order) and rewrites placeholders to final names. `-j1` and
//! `-jN`, cold and warm, therefore produce byte-identical expanded
//! programs, Calyx, and Verilog — and the expanded program is byte-equal
//! to [`filament_core::mono::expand`]'s output.

use crate::artifact::{self, Artifact, ARTIFACT_VERSION};
use crate::ast_bin;
use crate::key::{fnv64, structural_hash, ContentHash, KeySpace};
use calyx_lite as cl;
use filament_core::ast::{Command, Component, Id, Program, Signature};
use filament_core::mono::{self, CalleeResolver, MAX_DEPTH};
use filament_core::{
    check_component, check_program, lower_component_unit, CheckError, MonoError, MonoStats,
    PrimitiveRegistry,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Worker threads. `0` means one per available core; `1` runs on the
    /// calling thread.
    pub jobs: usize,
    /// Cross-session artifact cache directory. `None` disables the disk
    /// cache (in-session dedup still applies).
    pub cache_dir: Option<PathBuf>,
    /// Fingerprint of the primitive registry, mixed into every cache key:
    /// artifacts lowered against different registries must never collide.
    pub salt: String,
    /// Materialize [`DriverOutput::expanded`] (and, through
    /// [`crate::BuildRequest`], the expanded program and text of a
    /// [`crate::BuildOutput`]). Verilog-only consumers (`filament build`)
    /// turn this off: on a warm cache the expanded components then never
    /// leave their artifacts, trimming the load path further. When
    /// `false`, `expanded` comes back empty.
    pub emit_expanded: bool,
    /// Artifact-cache size budget in bytes. After a build, `*.unit` files
    /// are evicted oldest-access-first until the cache fits (hits refresh
    /// an artifact's modification time, so recency tracks use, not
    /// creation). `None` lets the cache grow without bound.
    pub cache_limit: Option<u64>,
    /// Netlist optimization level (`fil_opt`): `0` = off, `1` = all
    /// passes but CSE, `2` = all passes. Runs per unit, right after
    /// lowering, so artifacts store the *optimized* component: a warm
    /// load repeats no optimization work (and reports zero `opt`
    /// counters). Levels other than `0` fold into the unit cache key, so
    /// `-O0` keys — and their bytes — are untouched by this feature.
    pub opt_level: u8,
    /// Structured-trace sink. When set, the driver records one span per
    /// compile unit per phase (cache-load/expand/check/lower, plus the
    /// serial merge) on a timeline lane per worker, and samples
    /// artifact-cache hit/miss/eviction counters — rendered by
    /// [`fil_trace::Collector::chrome_json`]. `None` (the default) keeps
    /// the hot path entirely untouched.
    pub trace: Option<Arc<fil_trace::Collector>>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            jobs: 1,
            cache_dir: None,
            salt: String::new(),
            emit_expanded: true,
            cache_limit: None,
            opt_level: 0,
            trace: None,
        }
    }
}

/// Counters describing what a build actually did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Distinct units in the build graph.
    pub units: u64,
    /// Units elaborated from source this session.
    pub expanded: u64,
    /// Units type-checked this session.
    pub checked: u64,
    /// Units lowered this session.
    pub lowered: u64,
    /// Instantiations answered by the in-session unit graph (the mono
    /// cache's hits, driver-side).
    pub session_hits: u64,
    /// Units loaded from the artifact cache (zero expand/check/lower).
    pub cache_loads: u64,
    /// Cache probes that found no usable artifact (absent, truncated,
    /// corrupted, version-skewed, or missing the needed lowered half).
    pub cache_misses: u64,
    /// Artifacts written this session.
    pub cache_stores: u64,
    /// Artifacts evicted by the post-build cache GC (`cache_limit`).
    pub session_cache_evictions: u64,
    /// Netlist-optimizer counters for units optimized this session (warm
    /// cache loads carry pre-optimized components and contribute zero).
    pub opt: OptStats,
    /// Merged elaboration counters (for units expanded this session, plus
    /// cache accounting equivalent to [`filament_core::mono::expand`]'s on
    /// a cold run).
    pub mono: MonoStats,
    /// Wall-clock time per compile phase, summed across units and worker
    /// threads (so on `-jN` the phase totals can exceed the build's
    /// elapsed time).
    pub phase: PhaseTimes,
}

/// Per-phase wall-clock totals, in microseconds. `parse_us` is filled by
/// front ends that parse before invoking the driver (`fil_stdlib`);
/// everything else is measured per unit inside the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Source text → AST (front-end supplied).
    pub parse_us: u64,
    /// Monomorphization of units expanded this session.
    pub expand_us: u64,
    /// Type checking of units checked this session.
    pub check_us: u64,
    /// Lowering of units lowered this session.
    pub lower_us: u64,
    /// Artifact decode + validation for cache hits.
    pub cache_load_us: u64,
    /// The serial deterministic merge.
    pub merge_us: u64,
    /// Netlist optimization of units optimized this session.
    pub opt_us: u64,
}

/// What the netlist optimizer did across the units optimized this
/// session, summed (the wire-safe projection of [`fil_opt::OptReport`] —
/// counters only, no source map).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// The configured [`BuildOptions::opt_level`].
    pub level: u64,
    /// Fixpoint iterations, summed over units.
    pub iterations: u64,
    /// Cells entering the optimizer.
    pub cells_before: u64,
    /// Cells surviving it.
    pub cells_after: u64,
    /// Rewrites per pass, indexed like [`fil_opt::PASSES`]
    /// (const-fold, strength, forward, cse, dce).
    pub pass_rewrites: [u64; 5],
}

impl OptStats {
    /// Total rewrites across every pass.
    pub fn rewrites(&self) -> u64 {
        self.pass_rewrites.iter().sum()
    }

    /// Folds one unit's report into the build totals.
    fn absorb(&mut self, r: &fil_opt::OptReport) {
        self.iterations += r.iterations;
        self.cells_before += r.cells_before;
        self.cells_after += r.cells_after;
        for (sum, pass) in self.pass_rewrites.iter_mut().zip(&r.passes) {
            *sum += pass.rewrites;
        }
    }
}

/// A failed build.
#[derive(Debug)]
pub enum BuildError {
    /// Elaboration failed.
    Mono(MonoError),
    /// A unit failed to type-check.
    Check(Vec<CheckError>),
    /// A unit failed to lower.
    Lower(filament_core::lower::LowerError),
    /// The artifact cache directory could not be created.
    Io(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Mono(e) => write!(f, "{e}"),
            BuildError::Check(errs) => {
                let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                write!(f, "{}", msgs.join("\n"))
            }
            BuildError::Lower(e) => write!(f, "{e}"),
            BuildError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<MonoError> for BuildError {
    fn from(e: MonoError) -> Self {
        BuildError::Mono(e)
    }
}

/// A finished build.
#[derive(Debug)]
pub struct DriverOutput {
    /// The expanded (concrete) program: original externs plus every built
    /// unit, in the monomorphizer's emission order — byte-identical to
    /// [`filament_core::mono::expand`]'s output when pretty-printed.
    pub expanded: Program,
    /// The lowered program (every unit plus structural extern
    /// implementations), present for full builds.
    pub lowered: Option<cl::Program>,
    /// What the build did.
    pub stats: BuildStats,
}

/// Expands a program through the driver without checking or lowering —
/// the parallel, cacheable equivalent of [`filament_core::mono::expand`].
///
/// # Errors
///
/// Returns the first elaboration failure, or an IO error for an unusable
/// cache directory.
pub fn expand_program(program: &Program, opts: &BuildOptions) -> Result<DriverOutput, BuildError> {
    run(program, None, opts, effective_jobs(opts))
}

/// Full build: expand, check, and lower every unit reachable from the
/// parameter-free roots, in parallel per `opts.jobs`.
///
/// # Errors
///
/// Returns the first unit failure (elaboration, check, or lowering) or an
/// IO error for an unusable cache directory.
pub fn build_program(
    program: &Program,
    registry: &(dyn PrimitiveRegistry + Sync),
    opts: &BuildOptions,
) -> Result<DriverOutput, BuildError> {
    run(program, Some(registry), opts, effective_jobs(opts))
}

/// [`build_program`] restricted to the calling thread, for registries that
/// are not [`Sync`]. `opts.jobs` is ignored.
///
/// # Errors
///
/// As [`build_program`].
pub fn build_program_serial(
    program: &Program,
    registry: &dyn PrimitiveRegistry,
    opts: &BuildOptions,
) -> Result<DriverOutput, BuildError> {
    let externs = extern_set(program);
    externs.ensure_checked(program)?;
    let ctx = Ctx::new(program, opts, &externs)?;
    {
        let lane = opts.trace.as_ref().map(|c| c.lane(1, "builder-0"));
        worker(&ctx, Some(registry), lane.as_ref());
    }
    let evicted = maybe_gc(opts);
    let mut out = finish(program, ctx, true)?;
    out.stats.session_cache_evictions = evicted;
    Ok(out)
}

fn effective_jobs(opts: &BuildOptions) -> usize {
    match opts.jobs {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

fn run(
    program: &Program,
    registry: Option<&(dyn PrimitiveRegistry + Sync)>,
    opts: &BuildOptions,
    jobs: usize,
) -> Result<DriverOutput, BuildError> {
    let externs = extern_set(program);
    if registry.is_some() {
        externs.ensure_checked(program)?;
    }
    let ctx = Ctx::new(program, opts, &externs)?;
    if jobs <= 1 {
        let lane = opts.trace.as_ref().map(|c| c.lane(1, "builder-0"));
        worker(
            &ctx,
            registry.map(|r| r as &dyn PrimitiveRegistry),
            lane.as_ref(),
        );
    } else {
        std::thread::scope(|scope| {
            let ctx = &ctx;
            for w in 0..jobs {
                let trace = opts.trace.clone();
                scope.spawn(move || {
                    // Each worker gets its own timeline lane, so spans are
                    // attributed to the thread that actually ran them.
                    let lane = trace
                        .as_ref()
                        .map(|c| c.lane(w as u32 + 1, format!("builder-{w}")));
                    worker(
                        ctx,
                        registry.map(|r| r as &dyn PrimitiveRegistry),
                        lane.as_ref(),
                    );
                });
            }
        });
    }
    let evicted = maybe_gc(opts);
    let mut out = finish(program, ctx, registry.is_some())?;
    out.stats.session_cache_evictions = evicted;
    Ok(out)
}

/// Runs the cache GC when both a cache directory and a size budget are
/// configured. Called after the workers drain, so this session's stores
/// are on disk and carry fresh modification times.
fn maybe_gc(opts: &BuildOptions) -> u64 {
    let evicted = match (&opts.cache_dir, opts.cache_limit) {
        (Some(dir), Some(limit)) => gc_cache(dir, limit),
        _ => return 0,
    };
    if let Some(c) = &opts.trace {
        c.lane(0, "main")
            .counter("build", "artifact-cache-gc", &[("evictions", evicted)]);
    }
    evicted
}

/// Evicts `*.unit` artifacts oldest-modification-time-first until the
/// cache directory's artifact bytes fit under `limit`. Loads touch their
/// artifact's mtime, so eviction order is least-recently-*used*, not
/// least-recently-written. Unreadable entries and failed removals are
/// skipped — an unruly cache costs capacity, never correctness. Returns
/// the number of artifacts removed.
fn gc_cache(dir: &std::path::Path, limit: u64) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
    let mut total = 0u64;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "unit") {
            continue;
        }
        let Ok(md) = entry.metadata() else { continue };
        if !md.is_file() {
            continue;
        }
        let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        total += md.len();
        // The path tie-breaks equal mtimes, keeping eviction deterministic
        // on filesystems with coarse timestamps.
        files.push((mtime, md.len(), path));
    }
    if total <= limit {
        return 0;
    }
    files.sort();
    let mut evicted = 0;
    for (_, len, path) in files {
        if total <= limit {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
            evicted += 1;
        }
    }
    evicted
}

// ------------------------------------------------------------------ units

/// The monomorphizer's cache key: one compile unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct UnitKey {
    component: Id,
    values: Vec<u64>,
}

/// The session-stable placeholder name a unit's component carries until
/// the merge assigns final names. A pure function of the key, so units
/// built in any order — or in an earlier session — agree on it.
fn placeholder(key: &UnitKey) -> Id {
    let mut bytes = Vec::with_capacity(8 * key.values.len());
    for v in &key.values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    format!(
        "U_{:016x}",
        fnv64(&[b"unit", key.component.as_bytes(), &bytes])
    )
}

/// The human-readable name a unit will (almost always) receive at merge:
/// the component plus its free parameter values. Used to rewrite
/// placeholder names out of diagnostics.
fn provisional(program: &Program, key: &UnitKey) -> Id {
    if key.values.is_empty() {
        return key.component.clone();
    }
    let mut name = key.component.clone();
    let decls = program.component(&key.component).map(|c| &c.sig.params);
    for (i, v) in key.values.iter().enumerate() {
        if decls.is_some_and(|d| d.get(i).is_some_and(|p| p.is_derived())) {
            continue;
        }
        name.push('_');
        name.push_str(&v.to_string());
    }
    name
}

/// A processed unit, placeholder-named throughout.
struct UnitDone {
    /// The expanded component; `None` for cache loads when the caller
    /// asked for no expanded output (the component then never leaves its
    /// artifact).
    component: Option<Component>,
    deps: Vec<UnitKey>,
    lowered: Option<cl::Component>,
    structural: Vec<cl::Component>,
    mono: MonoStats,
    /// Repeat instantiation sites within this unit's body.
    local_hits: u64,
    /// Loaded from the artifact cache (zero work done).
    loaded: bool,
    /// The cache was probed and had no usable artifact.
    cache_missed: bool,
    /// An artifact was written.
    stored: bool,
    /// Wall time spent in each phase for this unit; `load` is nonzero only
    /// for cache hits, the others only for units processed from source.
    ns: PhaseNs,
    /// What the optimizer did to this unit (counters only — the driver
    /// runs with `record_notes` off; callers that want the source map
    /// run [`fil_opt::optimize_program`] on the lowered output
    /// themselves). Default (all-zero) for cache loads and `-O0`.
    opt: fil_opt::OptReport,
}

/// Wall time per phase, in nanoseconds. Units record their own; the merge
/// sums them and rounds once ([`PhaseNs::write_us`]), so a build of many
/// sub-microsecond units does not report zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PhaseNs {
    load: u64,
    expand: u64,
    check: u64,
    lower: u64,
    opt: u64,
}

impl PhaseNs {
    fn add(&mut self, other: &PhaseNs) {
        self.load += other.load;
        self.expand += other.expand;
        self.check += other.check;
        self.lower += other.lower;
        self.opt += other.opt;
    }

    /// Writes the totals, rounded to microseconds, into `phase`.
    fn write_us(&self, phase: &mut PhaseTimes) {
        phase.cache_load_us = fil_opt::ns_to_us(self.load);
        phase.expand_us = fil_opt::ns_to_us(self.expand);
        phase.check_us = fil_opt::ns_to_us(self.check);
        phase.lower_us = fil_opt::ns_to_us(self.lower);
        phase.opt_us = fil_opt::ns_to_us(self.opt);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A serial phase's wall time in microseconds, rounded once from
/// nanoseconds like every other [`PhaseTimes`] field.
pub fn phase_us(wall: Duration) -> u64 {
    fil_opt::ns_to_us(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX))
}

// -------------------------------------------------------------- scheduler

struct Shared {
    queue: VecDeque<(UnitKey, usize)>,
    scheduled: HashSet<UnitKey>,
    done: HashMap<UnitKey, UnitDone>,
    running: usize,
    error: Option<BuildError>,
    session_hits: u64,
}

struct Ctx<'p> {
    program: &'p Program,
    opts: &'p BuildOptions,
    /// Closure hashes, computed only when the disk cache is enabled.
    keys: Option<KeySpace>,
    /// The registry salt with the optimization level folded in
    /// (`salt|O{level}` for level > 0): artifacts hold post-optimizer
    /// components, so differently-optimized units must never share a key.
    /// Level 0 uses the salt verbatim — pre-optimizer caches stay warm.
    cache_salt: String,
    cache_dir: Option<PathBuf>,
    shared: Mutex<Shared>,
    cv: Condvar,
    /// Running artifact-cache totals, sampled into counter events as
    /// workers probe the cache. Only touched when tracing is on.
    trace_cache_hits: AtomicU64,
    trace_cache_misses: AtomicU64,
}

/// Process-wide information about one extern *set* (keyed by its
/// structural hash): per-extern hashes for [`KeySpace`] and whether the
/// set's signatures have already been validated. The standard library's
/// externs are identical across builds, so this work happens once per
/// session instead of once per build.
struct ExternSet {
    hashes: HashMap<Id, ContentHash>,
    checked: AtomicBool,
}

impl ExternSet {
    /// Validates the extern signatures once; failures are not memoized.
    fn ensure_checked(&self, program: &Program) -> Result<(), BuildError> {
        if self.checked.load(Ordering::Acquire) {
            return Ok(());
        }
        check_externs(program).map_err(BuildError::Check)?;
        self.checked.store(true, Ordering::Release);
        Ok(())
    }
}

/// The extern-set memo: every set seen, by the structural hash of its
/// list, plus the last list seen. Builds against the standard library
/// share one `Arc`'d list (see [`Program::externs`]), so the pointer
/// check answers them without hashing the signatures. Holding the `Arc`
/// keeps the list alive, so its address cannot be reused by another.
#[derive(Default)]
struct ExternSets {
    by_hash: HashMap<(u64, u64), Arc<ExternSet>>,
    last: Option<(Arc<Vec<Signature>>, Arc<ExternSet>)>,
}

fn extern_set(program: &Program) -> Arc<ExternSet> {
    static SETS: OnceLock<Mutex<ExternSets>> = OnceLock::new();
    let mut sets = SETS
        .get_or_init(Mutex::default)
        .lock()
        .expect("no thread panics while holding the extern-set memo");
    if let Some((list, set)) = &sets.last {
        if Arc::ptr_eq(list, &program.externs) {
            return set.clone();
        }
    }
    let h = structural_hash(&program.externs);
    let set = sets
        .by_hash
        .entry((h.a, h.b))
        .or_insert_with(|| {
            Arc::new(ExternSet {
                hashes: program
                    .externs
                    .iter()
                    .map(|s| (s.name.clone(), structural_hash(s)))
                    .collect(),
                checked: AtomicBool::new(false),
            })
        })
        .clone();
    sets.last = Some((program.externs.clone(), set.clone()));
    set
}

impl<'p> Ctx<'p> {
    fn new(
        program: &'p Program,
        opts: &'p BuildOptions,
        externs: &ExternSet,
    ) -> Result<Self, BuildError> {
        mono::validate(program)?;
        let cache_dir = match &opts.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| BuildError::Io(format!("cache dir {}: {e}", dir.display())))?;
                Some(dir.clone())
            }
            None => None,
        };
        let keys = cache_dir
            .is_some()
            .then(|| KeySpace::with_extern_hashes(program, &externs.hashes));
        let mut shared = Shared {
            queue: VecDeque::new(),
            scheduled: HashSet::new(),
            done: HashMap::new(),
            running: 0,
            error: None,
            session_hits: 0,
        };
        for comp in &program.components {
            if comp.sig.params.is_empty() {
                let key = UnitKey {
                    component: comp.sig.name.clone(),
                    values: Vec::new(),
                };
                if shared.scheduled.insert(key.clone()) {
                    shared.queue.push_back((key, 0));
                }
            }
        }
        let cache_salt = match opts.opt_level {
            0 => opts.salt.clone(),
            level => format!("{}|O{level}", opts.salt),
        };
        Ok(Ctx {
            program,
            opts,
            keys,
            cache_salt,
            cache_dir,
            shared: Mutex::new(shared),
            cv: Condvar::new(),
            trace_cache_hits: AtomicU64::new(0),
            trace_cache_misses: AtomicU64::new(0),
        })
    }
}

fn worker(
    ctx: &Ctx<'_>,
    registry: Option<&dyn PrimitiveRegistry>,
    lane: Option<&fil_trace::Lane<'_>>,
) {
    loop {
        let (key, depth) = {
            let mut s = ctx.shared.lock().unwrap();
            loop {
                if s.error.is_some() {
                    return;
                }
                if let Some(item) = s.queue.pop_front() {
                    s.running += 1;
                    break item;
                }
                if s.running == 0 {
                    // Nothing queued and nobody producing: the graph is
                    // complete.
                    return;
                }
                s = ctx.cv.wait(s).unwrap();
            }
        };
        // A panic inside unit processing must not strand the other
        // workers: `running` would stay elevated and everyone else would
        // wait on the condvar forever while the scope blocks joining the
        // dead thread. Catch it and surface it as the build's error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_unit(ctx, registry, &key, lane)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            Err(BuildError::Io(format!(
                "building {}: internal panic: {msg}",
                provisional(ctx.program, &key)
            )))
        });
        let mut s = ctx.shared.lock().unwrap();
        s.running -= 1;
        match result {
            Ok(unit) => {
                for dep in &unit.deps {
                    if s.scheduled.contains(dep) {
                        s.session_hits += 1;
                    } else if depth + 1 >= MAX_DEPTH {
                        s.error.get_or_insert(BuildError::Mono(MonoError::TooDeep {
                            component: dep.component.clone(),
                        }));
                    } else {
                        s.scheduled.insert(dep.clone());
                        s.queue.push_back((dep.clone(), depth + 1));
                    }
                }
                s.done.insert(key, unit);
            }
            Err(e) => {
                s.error.get_or_insert(e);
            }
        }
        drop(s);
        ctx.cv.notify_all();
    }
}

// --------------------------------------------------------- unit processing

/// Records callee instantiations as dependency edges instead of recursing.
struct Recorder<'p> {
    self_key: &'p UnitKey,
    deps: Vec<UnitKey>,
    seen: HashSet<UnitKey>,
    local_hits: u64,
}

impl CalleeResolver for Recorder<'_> {
    fn resolve(&mut self, callee: &str, values: Vec<u64>) -> Result<Id, MonoError> {
        let key = UnitKey {
            component: callee.to_owned(),
            values,
        };
        if key == *self.self_key {
            return Err(MonoError::Recursive {
                component: key.component,
                params: key.values,
            });
        }
        let name = placeholder(&key);
        if self.seen.insert(key.clone()) {
            self.deps.push(key);
        } else {
            self.local_hits += 1;
        }
        Ok(name)
    }
}

/// Opens a per-unit phase span on `lane` (no-op when tracing is off),
/// labeling it with the unit's human-readable name.
fn unit_span<'l, 'c>(
    lane: Option<&'l fil_trace::Lane<'c>>,
    phase: &'static str,
    unit: &Option<Id>,
) -> Option<fil_trace::Span<'l, 'c>> {
    lane.map(|l| {
        let mut span = l.span("build", phase);
        if let Some(name) = unit {
            span = span.arg("unit", name.as_str());
        }
        span
    })
}

/// Samples the artifact-cache counter track after a probe resolves.
fn cache_counter(ctx: &Ctx<'_>, lane: Option<&fil_trace::Lane<'_>>, hit: bool) {
    let Some(lane) = lane else { return };
    let (hits, misses) = if hit {
        (
            ctx.trace_cache_hits.fetch_add(1, Ordering::Relaxed) + 1,
            ctx.trace_cache_misses.load(Ordering::Relaxed),
        )
    } else {
        (
            ctx.trace_cache_hits.load(Ordering::Relaxed),
            ctx.trace_cache_misses.fetch_add(1, Ordering::Relaxed) + 1,
        )
    };
    lane.counter(
        "build",
        "artifact-cache",
        &[("loads", hits), ("misses", misses)],
    );
}

fn process_unit(
    ctx: &Ctx<'_>,
    registry: Option<&dyn PrimitiveRegistry>,
    key: &UnitKey,
    lane: Option<&fil_trace::Lane<'_>>,
) -> Result<UnitDone, BuildError> {
    // Computed only when tracing: span labels cost a name render.
    let unit_name = lane.map(|_| provisional(ctx.program, key));
    // Cache probe.
    let path = ctx.keys.as_ref().and_then(|keys| {
        let hash = keys.unit_hash(
            ARTIFACT_VERSION,
            &ctx.cache_salt,
            &key.component,
            &key.values,
        )?;
        Some(ctx.cache_dir.as_ref().unwrap().join(format!("{hash}.unit")))
    });
    let mut cache_missed = false;
    if let Some(path) = &path {
        let probe_start = lane.map(|l| l.now_us());
        let timer = Instant::now();
        match try_load(path, key, registry.is_some(), ctx.opts.emit_expanded) {
            Some(mut unit) => {
                unit.ns.load = elapsed_ns(timer);
                if let (Some(l), Some(start)) = (lane, probe_start) {
                    let mut args = Vec::new();
                    if let Some(name) = &unit_name {
                        args.push(("unit", fil_trace::Arg::from(name.as_str())));
                    }
                    let dur = fil_opt::ns_to_us(unit.ns.load);
                    l.complete("build", "cache-load", start, dur, args);
                }
                cache_counter(ctx, lane, true);
                return Ok(unit);
            }
            None => {
                cache_missed = true;
                cache_counter(ctx, lane, false);
            }
        }
    }

    // Expand.
    let self_name = placeholder(key);
    let mut rec = Recorder {
        self_key: key,
        deps: Vec::new(),
        seen: HashSet::new(),
        local_hits: 0,
    };
    let timer = Instant::now();
    let span = unit_span(lane, "expand", &unit_name);
    let (component, mono_stats) = mono::elaborate_component(
        ctx.program,
        &key.component,
        &key.values,
        &self_name,
        &mut rec,
    )?; // an early return still records the span — the guard drops
    drop(span);
    let mut ns = PhaseNs {
        expand: elapsed_ns(timer),
        ..PhaseNs::default()
    };

    // Check + lower against the unit's scope: signatures only (bodies not
    // needed — the paper's modular-compilation story). Placeholder names
    // are rewritten to readable ones only for a diagnostic.
    let (mut lowered, structural) = match registry {
        None => (None, Vec::new()),
        Some(registry) => {
            let names = || readable_names(ctx.program, key, &rec.deps);
            let timer = Instant::now();
            let span = unit_span(lane, "check", &unit_name);
            let scope = unit_scope(ctx.program, &component, &rec.deps)?;
            check_component(&scope, &component)
                .map_err(|errs| BuildError::Check(rewrite_check(errs, &names())))?;
            drop(span);
            ns.check = elapsed_ns(timer);
            let timer = Instant::now();
            let span = unit_span(lane, "lower", &unit_name);
            let unit = lower_component_unit(&scope, &component, registry)
                .map_err(|e| BuildError::Lower(rewrite_lower(e, &names())))?;
            drop(span);
            ns.lower = elapsed_ns(timer);
            (Some(unit.component), unit.structural)
        }
    };

    // Optimize the unit's own component (structural extern
    // implementations pass through untouched — they are shared library
    // cells, identical across builds and already minimal). Runs before
    // the store, so the artifact caches the optimized form. Decisions in
    // `fil_opt` are position-based, never name-ordered, so optimizing
    // placeholder-named units and renaming at merge commutes — `-j1` and
    // `-jN` stay byte-identical.
    let mut opt_report = fil_opt::OptReport::default();
    if ctx.opts.opt_level > 0 {
        if let Some(lc) = &mut lowered {
            let opt_start = lane.map(|l| l.now_us());
            let timer = Instant::now();
            let cfg = fil_opt::OptConfig {
                record_notes: false,
                ..fil_opt::OptConfig::level(ctx.opts.opt_level)
            };
            opt_report = fil_opt::optimize_component(lc, &cfg);
            ns.opt = elapsed_ns(timer);
            if let (Some(l), Some(start)) = (lane, opt_start) {
                // One span per pass, laid out back-to-back from the
                // optimizer's own per-pass timings. Span edges round the
                // running nanosecond total, so sub-microsecond passes do
                // not each lose their fraction.
                let mut ns = 0;
                for (pass, stat) in fil_opt::PASSES.iter().zip(&opt_report.passes) {
                    let mut args = vec![("rewrites", fil_trace::Arg::from(stat.rewrites))];
                    if let Some(name) = &unit_name {
                        args.push(("unit", fil_trace::Arg::from(name.as_str())));
                    }
                    let from = fil_opt::ns_to_us(ns);
                    ns += stat.ns;
                    let to = fil_opt::ns_to_us(ns);
                    l.complete(
                        "build",
                        format!("opt:{pass}"),
                        start + from,
                        to - from,
                        args,
                    );
                }
            }
        }
    }

    // Store. A component outside the concrete AST codec is not cached.
    let mut stored = false;
    let target = path
        .as_ref()
        .and_then(|p| Some((p, ast_bin::encode(&component)?)));
    if let Some((path, expanded_ast)) = target {
        let art = Artifact {
            component: key.component.clone(),
            values: key.values.clone(),
            deps: rec
                .deps
                .iter()
                .map(|d| (d.component.clone(), d.values.clone()))
                .collect(),
            expanded_ast,
            lowered: lowered.as_ref().map(|l| (l.clone(), structural.clone())),
        };
        stored = store_atomic(path, &artifact::encode(&art));
    }

    Ok(UnitDone {
        component: Some(component),
        deps: rec.deps,
        lowered,
        structural,
        mono: mono_stats,
        local_hits: rec.local_hits,
        loaded: false,
        cache_missed,
        stored,
        ns,
        opt: opt_report,
    })
}

/// Loads and validates one artifact; any failure at all (IO, corruption,
/// version skew, wrong unit, missing lowered half) is a miss.
fn try_load(
    path: &std::path::Path,
    key: &UnitKey,
    want_lowered: bool,
    want_expanded: bool,
) -> Option<UnitDone> {
    let bytes = std::fs::read(path).ok()?;
    let art = artifact::decode(&bytes).ok()?;
    if art.component != key.component || art.values != key.values {
        return None;
    }
    if want_lowered && art.lowered.is_none() {
        return None;
    }
    // When the caller wants no expanded output, the component never leaves
    // the artifact.
    let component = if want_expanded {
        let c = ast_bin::decode(&art.expanded_ast).ok()?;
        if c.sig.name != placeholder(key) {
            return None;
        }
        Some(c)
    } else {
        None
    };
    let (lowered, structural) = match art.lowered {
        Some((l, s)) if want_lowered => (Some(l), s),
        _ => (None, Vec::new()),
    };
    // LRU touch: a hit refreshes the artifact's recency so `cache_limit`
    // eviction removes stale units first. Best-effort, like stores.
    if let Ok(f) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
    Some(UnitDone {
        component,
        deps: art
            .deps
            .into_iter()
            .map(|(component, values)| UnitKey { component, values })
            .collect(),
        lowered,
        structural,
        mono: MonoStats::default(),
        local_hits: 0,
        loaded: true,
        cache_missed: false,
        stored: false,
        ns: PhaseNs::default(),
        opt: fil_opt::OptReport::default(),
    })
}

/// Writes via a temp file + rename so concurrent builds never observe a
/// torn artifact. Failures are swallowed: an unwritable cache costs time,
/// not correctness.
fn store_atomic(path: &std::path::Path, bytes: &[u8]) -> bool {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, bytes).is_err() {
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

/// The names checking and lowering resolve a unit against, signatures
/// only: the program's externs (shared, not copied — both passes look
/// names up, never iterate the scope), its own signature, and the
/// concrete signatures of its direct dependencies, all as body-less
/// components.
fn unit_scope(
    program: &Program,
    component: &Component,
    deps: &[UnitKey],
) -> Result<Program, BuildError> {
    let mut components = Vec::with_capacity(deps.len() + 1);
    components.push(Component {
        sig: component.sig.clone(),
        body: Vec::new(),
    });
    for dep in deps {
        let src = program
            .component(&dep.component)
            .expect("recorded deps exist in the source program");
        let sig = mono::elaborate_signature(&src.sig, &dep.values, &placeholder(dep))?;
        components.push(Component {
            sig,
            body: Vec::new(),
        });
    }
    Ok(Program {
        externs: Arc::clone(&program.externs),
        components,
    })
}

/// Placeholder → human-readable name map for diagnostics.
fn readable_names(program: &Program, key: &UnitKey, deps: &[UnitKey]) -> HashMap<Id, Id> {
    let mut names = HashMap::new();
    names.insert(placeholder(key), provisional(program, key));
    for dep in deps {
        names.insert(placeholder(dep), provisional(program, dep));
    }
    names
}

fn rewrite_str(s: &str, names: &HashMap<Id, Id>) -> String {
    let mut out = s.to_owned();
    for (ph, name) in names {
        if out.contains(ph.as_str()) {
            out = out.replace(ph.as_str(), name);
        }
    }
    out
}

fn rewrite_check(errs: Vec<CheckError>, names: &HashMap<Id, Id>) -> Vec<CheckError> {
    errs.into_iter()
        .map(|e| CheckError {
            component: rewrite_str(&e.component, names),
            kind: e.kind,
            message: rewrite_str(&e.message, names),
        })
        .collect()
}

fn rewrite_lower(
    e: filament_core::lower::LowerError,
    names: &HashMap<Id, Id>,
) -> filament_core::lower::LowerError {
    use filament_core::lower::LowerError::*;
    match e {
        UnknownComponent(c) => UnknownComponent(rewrite_str(&c, names)),
        NoPrimitive { name } => NoPrimitive {
            name: rewrite_str(&name, names),
        },
        PortMismatch { name, port } => PortMismatch {
            name: rewrite_str(&name, names),
            port,
        },
        NonConstant {
            component,
            site,
            param,
            cause,
        } => NonConstant {
            component: rewrite_str(&component, names),
            site: rewrite_str(&site, names),
            param,
            cause,
        },
        TooLarge {
            component,
            site,
            value,
        } => TooLarge {
            component: rewrite_str(&component, names),
            site: rewrite_str(&site, names),
            value,
        },
        Unelaborated {
            component,
            construct,
        } => Unelaborated {
            component: rewrite_str(&component, names),
            construct: rewrite_str(&construct, names),
        },
        IllTyped { detail } => IllTyped {
            detail: rewrite_str(&detail, names),
        },
    }
}

// ------------------------------------------------------------------ merge

fn finish(program: &Program, ctx: Ctx<'_>, lowering: bool) -> Result<DriverOutput, BuildError> {
    let emit_expanded = ctx.opts.emit_expanded;
    let opt_level = ctx.opts.opt_level;
    let trace = ctx.opts.trace.clone();
    let shared = ctx.shared.into_inner().unwrap();
    if let Some(e) = shared.error {
        return Err(e);
    }
    let merge_start = trace.as_ref().map(|c| c.now_us());
    let timer = Instant::now();
    let mut out = merge(program, shared, lowering, emit_expanded)?;
    out.stats.phase.merge_us = phase_us(timer.elapsed());
    out.stats.opt.level = u64::from(opt_level);
    if let (Some(c), Some(start)) = (&trace, merge_start) {
        c.lane(0, "main").complete(
            "build",
            "merge",
            start,
            out.stats.phase.merge_us,
            Vec::new(),
        );
    }
    Ok(out)
}

/// Serial, deterministic merge: assigns final names and emission order by
/// replaying the recursive monomorphizer's traversal over the recorded
/// dependency graph, then rewrites placeholders everywhere.
fn merge(
    program: &Program,
    shared: Shared,
    lowering: bool,
    emit_expanded: bool,
) -> Result<DriverOutput, BuildError> {
    let mut done = shared.done;
    // Name claiming replicates `mono::expand`: source names are taken;
    // monomorphs claim `Comp_v0_v1` (free values only) pre-order,
    // disambiguating with trailing underscores.
    let mut taken: HashSet<Id> = program
        .components
        .iter()
        .map(|c| c.sig.name.clone())
        .chain(program.externs.iter().map(|s| s.name.clone()))
        .collect();
    let mut final_names: HashMap<Id, Id> = HashMap::new(); // placeholder → final
    let mut order: Vec<UnitKey> = Vec::new();
    // Iterative DFS with an explicit stack (grey-marking for cycle
    // detection); dependency edges are visited in recorded (body) order.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Grey,
        Black,
    }
    let mut marks: HashMap<UnitKey, Mark> = HashMap::new();
    enum Step {
        Enter(UnitKey),
        Exit(UnitKey),
    }
    let roots: Vec<UnitKey> = program
        .components
        .iter()
        .filter(|c| c.sig.params.is_empty())
        .map(|c| UnitKey {
            component: c.sig.name.clone(),
            values: Vec::new(),
        })
        .collect();
    for root in roots {
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(key) => {
                    match marks.get(&key) {
                        Some(Mark::Black) => continue,
                        Some(Mark::Grey) => {
                            return Err(BuildError::Mono(MonoError::Recursive {
                                component: key.component,
                                params: key.values,
                            }));
                        }
                        None => {}
                    }
                    // Claim the final name (pre-order, like mono::expand).
                    let name = if key.values.is_empty() {
                        key.component.clone()
                    } else {
                        let mut n = provisional(program, &key);
                        while taken.contains(&n) {
                            n.push('_');
                        }
                        taken.insert(n.clone());
                        n
                    };
                    final_names.insert(placeholder(&key), name);
                    marks.insert(key.clone(), Mark::Grey);
                    let unit = done
                        .get(&key)
                        .expect("every scheduled unit completed before merge");
                    stack.push(Step::Exit(key.clone()));
                    // Reverse so the first recorded dep is processed first.
                    for dep in unit.deps.iter().rev() {
                        stack.push(Step::Enter(dep.clone()));
                    }
                }
                Step::Exit(key) => {
                    marks.insert(key.clone(), Mark::Black);
                    order.push(key);
                }
            }
        }
    }

    // Emit, rewriting placeholders to final names.
    let mut expanded = if emit_expanded {
        Program {
            externs: program.externs.clone(),
            components: Vec::with_capacity(order.len()),
        }
    } else {
        Program::new()
    };
    let mut lowered_out = lowering.then(cl::Program::new);
    let mut stats = BuildStats {
        units: order.len() as u64,
        session_hits: shared.session_hits,
        ..BuildStats::default()
    };
    stats.mono.cache_hits = shared.session_hits;
    stats.mono.cache_misses = order.len() as u64;
    let mut ns = PhaseNs::default();
    for key in &order {
        let unit = done.remove(key).expect("unit emitted exactly once");
        ns.add(&unit.ns);
        stats.opt.absorb(&unit.opt);
        if unit.loaded {
            stats.cache_loads += 1;
        } else {
            stats.expanded += 1;
            stats.mono.absorb(&unit.mono);
            stats.mono.cache_hits += unit.local_hits;
            if unit.lowered.is_some() {
                stats.checked += 1;
                stats.lowered += 1;
            }
        }
        stats.cache_misses += u64::from(unit.cache_missed);
        stats.cache_stores += u64::from(unit.stored);
        if emit_expanded {
            let mut comp = unit
                .component
                .expect("expanded components are materialized when requested");
            rename_expanded(&mut comp, &final_names);
            expanded.components.push(comp);
        }
        if let Some(out) = &mut lowered_out {
            for s in unit.structural {
                if out.component(&s.name).is_none() {
                    out.add_component(s);
                }
            }
            if let Some(mut lc) = unit.lowered {
                rename_lowered(&mut lc, &final_names);
                out.add_component(lc);
            }
        }
    }
    ns.write_us(&mut stats.phase);
    Ok(DriverOutput {
        expanded,
        lowered: lowered_out,
        stats,
    })
}

fn rename_expanded(c: &mut Component, names: &HashMap<Id, Id>) {
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

fn rename_lowered(c: &mut cl::Component, names: &HashMap<Id, Id>) {
    if let Some(n) = names.get(&c.name) {
        c.name = n.clone();
    }
    for cell in &mut c.cells {
        if let cl::CellProto::Component(sub) = &mut cell.proto {
            if let Some(n) = names.get(sub) {
                *sub = n.clone();
            }
        }
    }
}

/// Program-wide validation shared by full builds: extern signatures and
/// cross-extern duplicate names, checked once (per-unit checks only see
/// externs as instantiation targets).
///
/// # Errors
///
/// Returns the extern-signature diagnostics.
pub fn check_externs(program: &Program) -> Result<(), Vec<CheckError>> {
    check_program(&Program {
        externs: program.externs.clone(),
        components: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-unit phase times are summed in nanoseconds and rounded once, so
    /// many sub-microsecond units still add up.
    #[test]
    fn phase_times_round_once_over_units() {
        let unit = PhaseNs {
            load: 999,
            expand: 999,
            check: 999,
            lower: 999,
            opt: 999,
        };
        let mut total = PhaseNs::default();
        for _ in 0..64 {
            total.add(&unit);
        }
        let mut phase = PhaseTimes::default();
        total.write_us(&mut phase);
        // 64 × 999 ns = 63.936 µs, rounded to the nearest microsecond.
        assert_eq!(phase.expand_us, 64);
        assert_eq!(
            (
                phase.cache_load_us,
                phase.check_us,
                phase.lower_us,
                phase.opt_us
            ),
            (64, 64, 64, 64)
        );
        assert_eq!(phase.parse_us, 0, "parse is the front end's to fill");
        assert_eq!(phase.merge_us, 0, "merge is timed separately");
    }

    /// The serial phases (parse, merge) round like the per-unit ones:
    /// once, to the nearest microsecond, not truncated.
    #[test]
    fn serial_phase_times_round_like_unit_phases() {
        for ns in [0, 499, 500, 999, 1_499, 1_500, 63_936] {
            assert_eq!(
                phase_us(Duration::from_nanos(ns)),
                fil_opt::ns_to_us(ns),
                "{ns} ns"
            );
        }
        assert_eq!(phase_us(Duration::from_nanos(999)), 1, "not truncated");
    }
}
