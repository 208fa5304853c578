//! `fil-opt`: the netlist optimization pipeline between `lower` and
//! elaboration / Verilog emission.
//!
//! Lowered Calyx-lite components are simulated exactly as `lower` emits
//! them: every `Mux` with a constant selector, every dead cone left behind
//! by `if`-generate edge selection, and every subexpression duplicated
//! across unrolled `for`-generate iterations costs real kernel work on
//! every settle. The paper's premise (timeline types make cross-module
//! optimization *safe*) means these rewrites need no scheduling analysis:
//! a Calyx-lite component is a pure dataflow graph, so structural rewrites
//! that preserve per-cycle values preserve the program.
//!
//! Five passes, iterated to fixpoint per component:
//!
//! 1. **const-fold** — combinational cells whose inputs are all constants
//!    (including undriven pins, which settle to zero) are evaluated at
//!    compile time with the *simulator's own* kernels at one lane
//!    ([`CellKind::eval_values`]), so compile-time and run-time semantics
//!    cannot diverge.
//! 2. **strength** — `MulComb` by a power-of-two constant becomes
//!    [`CellKind::ShlConst`]; multiplication by 0/1, additive and bitwise
//!    identities (`x+0`, `x&~0`, `x|0`, `x^0`, shifts by zero), and `Mux`
//!    with a constant selector collapse to wires or constants.
//! 3. **forward** — copy/wire forwarding: identity cells (full-width
//!    `Slice`, width-preserving `ZeroExt`, `Shl`/`ShrConst` by 0) forward
//!    their input driver to every reader. Guard-aware: when the driver is
//!    guarded by FSM states `S` (the availability window Section 5.2
//!    synthesizes), readers whose own guard states are a subset of `S`
//!    still forward — they only sample the wire inside the window where it
//!    equals the driver. This is the rewrite that strips the edge-entry
//!    wires off scheduled designs like the systolic array.
//! 4. **cse** — local common-subexpression elimination: structural
//!    hash-consing merges cells of identical kind whose pins are driven by
//!    structurally identical assignment sets (the big win across unrolled
//!    generate iterations). Deterministic: the first cell in declaration
//!    order is the representative.
//! 5. **dce** — backward liveness from the component's output ports;
//!    cells (including registers and whole subcomponent instances) whose
//!    outputs are transitively unobservable are deleted.
//!
//! Each pass costs time roughly linear in cells + assignments: the
//! assignments are grouped by destination cell once per pass, driver
//! lookups borrow names instead of building keys, CSE buckets cells by a
//! 64-bit structural hash (confirmed by an exact comparison, so a hash
//! collision never merges two cells), dce is one worklist traversal, and
//! source-map text is rendered only when [`OptConfig::record_notes`] is
//! on. The fixpoint stops after an iteration in which only dce fired:
//! deleting dead cells changes no surviving cell's drivers, so no pass
//! could fire again.
//!
//! The pipeline assumes conflict-free designs (what the Filament checker
//! guarantees, Section 3.4): merging or deleting cells also merges or
//! deletes their *dynamic* write-conflict checks, so programs that would
//! only fail at runtime via [`rtl_sim::SimError::WriteConflict`] are
//! outside the contract.
//!
//! Surviving cells keep their names, so `--vcd` watches, `--profile`
//! labels, and `describe_assign` conflict diagnostics keep pointing at the
//! original design; everything removed or rewritten is recorded in the
//! [`OptReport`] source map ([`RewriteNote`]) with its pre-optimization
//! rendering.

use calyx_lite::{
    primitive_ports, Assign, Cell, CellProto, Component, Guard, PortRef, Program, Src,
};
use fil_bits::Value;
use rtl_sim::CellKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Pass names, in pipeline order. Indexes [`OptReport::passes`].
pub const PASSES: [&str; 5] = ["const-fold", "strength", "forward", "cse", "dce"];

/// Fixpoint iteration cap per component (each iteration runs the whole
/// pipeline once; the loop stops early when an iteration changes nothing,
/// or when only dce changed something).
pub const MAX_ITERATIONS: usize = 10;

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// 0 = off (the component is untouched), 1 = everything but CSE,
    /// 2 = everything.
    pub level: u8,
    /// Record a [`RewriteNote`] per rewrite. Builders that only consume the
    /// counters turn this off, and then no note text is rendered at all.
    pub record_notes: bool,
    /// Mutation-testing hook: deliberately mis-fold cells with *some*
    /// constant inputs as if they were fully constant (treating the
    /// non-constant pins as zero). The fuzz oracle's `-O2`-vs-`-O0`
    /// lockstep stage must catch this; never set outside selftests.
    pub inject_bad_fold: bool,
}

impl OptConfig {
    /// Configuration for a given `-O` level with defaults elsewhere.
    pub fn level(level: u8) -> Self {
        OptConfig {
            level,
            record_notes: true,
            inject_bad_fold: false,
        }
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::level(1)
    }
}

/// Per-pass counters, aggregated over iterations and components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Individual rewrites applied (cells removed, sources forwarded,
    /// guards simplified, kinds replaced).
    pub rewrites: u64,
    /// Wall time spent in the pass, nanoseconds. Summed unrounded, so
    /// passes that each take under a microsecond still add up; round once
    /// when reporting ([`ns_to_us`]).
    pub ns: u64,
}

/// Nanoseconds rounded to the nearest microsecond.
pub fn ns_to_us(ns: u64) -> u64 {
    (ns + 500) / 1000
}

/// One source-map entry: what a rewrite removed or replaced, rendered the
/// way `describe_assign` renders the surviving netlist, so diagnostics on
/// the optimized design can be traced back to pre-optimization constructs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteNote {
    /// The enclosing component.
    pub component: String,
    /// The pass that applied the rewrite (one of [`PASSES`]).
    pub pass: &'static str,
    /// The construct as it read before the rewrite.
    pub original: String,
    /// What replaced it (a constant, a forwarded source, a representative
    /// cell, or `"removed"`).
    pub replacement: String,
}

impl std::fmt::Display for RewriteNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: [{}] {} => {}",
            self.component, self.pass, self.original, self.replacement
        )
    }
}

/// The optimizer's report: before/after sizes, per-pass counters, and the
/// source map. Reports from several components (or compile units) merge
/// with [`OptReport::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// The level the pipeline ran at.
    pub level: u8,
    /// Pipeline iterations executed (summed over components).
    pub iterations: u64,
    /// Cells before optimization (summed over components).
    pub cells_before: u64,
    /// Cells after optimization.
    pub cells_after: u64,
    /// Assignments before optimization.
    pub assigns_before: u64,
    /// Assignments after optimization.
    pub assigns_after: u64,
    /// Per-pass counters, indexed like [`PASSES`].
    pub passes: [PassStat; 5],
    /// The source map (empty unless [`OptConfig::record_notes`]).
    pub notes: Vec<RewriteNote>,
}

impl OptReport {
    /// Total rewrites across all passes.
    pub fn rewrites(&self) -> u64 {
        self.passes.iter().map(|p| p.rewrites).sum()
    }

    /// Folds another report into this one (summing counters; notes are
    /// concatenated).
    pub fn absorb(&mut self, other: &OptReport) {
        self.level = self.level.max(other.level);
        self.iterations += other.iterations;
        self.cells_before += other.cells_before;
        self.cells_after += other.cells_after;
        self.assigns_before += other.assigns_before;
        self.assigns_after += other.assigns_after;
        for (a, b) in self.passes.iter_mut().zip(&other.passes) {
            a.rewrites += b.rewrites;
            a.ns += b.ns;
        }
        self.notes.extend(other.notes.iter().cloned());
    }

    /// Source-map lookup: the pre-optimization renderings of every rewrite
    /// that mentions `needle` (a cell or port name).
    pub fn originals_of(&self, needle: &str) -> Vec<&RewriteNote> {
        self.notes
            .iter()
            .filter(|n| n.original.contains(needle))
            .collect()
    }
}

/// Optimizes one component in place.
pub fn optimize_component(c: &mut Component, cfg: &OptConfig) -> OptReport {
    let mut report = OptReport {
        level: cfg.level,
        ..OptReport::default()
    };
    if cfg.level == 0 {
        return report;
    }
    report.cells_before = c.cells.len() as u64;
    report.assigns_before = c.assigns.len() as u64;
    for _ in 0..MAX_ITERATIONS {
        report.iterations += 1;
        let fired = iterate(c, cfg, &mut report);
        if fired[..4].iter().all(|&n| n == 0) {
            // Nothing fired, or only dce did. Deleting dead cells (and the
            // assignments into them) leaves every surviving cell's drivers
            // and every surviving read as they were, so each pass would
            // decide again exactly what it decided this iteration: nothing.
            // Debug builds run that iteration anyway, off the report.
            if cfg!(debug_assertions) && fired[4] > 0 {
                let confirm = iterate(c, cfg, &mut OptReport::default());
                debug_assert_eq!(
                    confirm, [0; 5],
                    "{}: an iteration after a dce-only one still rewrote",
                    c.name
                );
            }
            break;
        }
    }
    report.cells_after = c.cells.len() as u64;
    report.assigns_after = c.assigns.len() as u64;
    report
}

/// Optimizes every component of a program in place, returning the merged
/// report. (The build driver instead optimizes per compile unit, before
/// merging, so artifacts cache the optimized form; both routes apply the
/// same per-component pipeline.)
pub fn optimize_program(p: &mut Program, cfg: &OptConfig) -> OptReport {
    let mut report = OptReport {
        level: cfg.level,
        ..OptReport::default()
    };
    for c in p.components_mut() {
        report.absorb(&optimize_component(c, cfg));
    }
    report.level = cfg.level;
    report
}

/// Runs the pipeline once, returning each pass's rewrite count.
fn iterate(c: &mut Component, cfg: &OptConfig, report: &mut OptReport) -> [u64; 5] {
    let mut fired = [0; 5];
    fired[0] = run_pass(c, cfg, report, 0, const_fold);
    fired[1] = run_pass(c, cfg, report, 1, strength);
    fired[2] = run_pass(c, cfg, report, 2, forward);
    if cfg.level >= 2 {
        fired[3] = run_pass(c, cfg, report, 3, cse);
    }
    fired[4] = run_pass(c, cfg, report, 4, dce);
    fired
}

fn run_pass(
    c: &mut Component,
    cfg: &OptConfig,
    report: &mut OptReport,
    idx: usize,
    pass: fn(&mut Component, &OptConfig, &mut Notes) -> u64,
) -> u64 {
    let start = Instant::now();
    let mut notes = Notes {
        on: cfg.record_notes,
        list: Vec::new(),
    };
    let n = pass(c, cfg, &mut notes);
    report.passes[idx].rewrites += n;
    report.passes[idx].ns += start.elapsed().as_nanos() as u64;
    for mut note in notes.list {
        note.component.clone_from(&c.name);
        report.notes.push(note);
    }
    n
}

/// One pass's share of the source map. Note text is rendered only when
/// [`OptConfig::record_notes`] is on.
struct Notes {
    on: bool,
    list: Vec<RewriteNote>,
}

impl Notes {
    /// Records a rewrite; `render` yields `(original, replacement)` and
    /// runs only when notes are on.
    fn add(&mut self, pass: &'static str, render: impl FnOnce() -> (String, String)) {
        if self.on {
            let (original, replacement) = render();
            self.list.push(RewriteNote {
                component: String::new(), // filled by run_pass
                pass,
                original,
                replacement,
            });
        }
    }
}

/// Renders an assignment the way `rtl_sim::Netlist::describe_assign`
/// renders its elaborated form: `dst = src` or `dst = g0 || g1 ? src`.
fn describe(a: &Assign) -> String {
    let src = render_src(&a.src);
    if a.guard.is_true() {
        format!("{} = {}", a.dst, src)
    } else {
        format!("{} = {} ? {}", a.dst, a.guard, src)
    }
}

fn render_src(s: &Src) -> String {
    match s {
        Src::Port(p) => p.to_string(),
        Src::Const(v) => render_value(v),
    }
}

/// Canonical constant rendering: `width'hHEX` from the raw limbs, so the
/// text is deterministic.
fn render_value(v: &Value) -> String {
    let mut hex = String::new();
    for limb in v.limbs().iter().rev() {
        if hex.is_empty() {
            hex = format!("{limb:x}");
        } else {
            hex.push_str(&format!("{limb:016x}"));
        }
    }
    if hex.is_empty() {
        hex.push('0');
    }
    format!("{}'h{}", v.width(), hex)
}

/// A guard's disjuncts; empty for the trivially-true guard (both
/// `Guard::True` and an empty `Guard::Any`).
fn guard_ports(g: &Guard) -> &[PortRef] {
    match g {
        Guard::True => &[],
        Guard::Any(ports) => ports,
    }
}

/// The assignments into each cell, grouped once per pass so later driver
/// lookups borrow instead of building keys. Groups are keyed by cell name,
/// so a destination cell that is not declared still gets a group, after
/// the declared ones.
struct Fanin<'a> {
    /// Cell name → group.
    ids: HashMap<&'a str, usize>,
    /// The group of `c.cells[i]`.
    cell: Vec<usize>,
    /// `order[start[g]..start[g + 1]]`: the assignments into group `g`,
    /// as indices into `c.assigns`, in assignment order.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl<'a> Fanin<'a> {
    fn new(c: &'a Component) -> Self {
        let mut ids: HashMap<&str, usize> = HashMap::with_capacity(c.cells.len());
        let mut id = |name: &'a str| {
            let next = ids.len();
            *ids.entry(name).or_insert(next)
        };
        let cell: Vec<usize> = c.cells.iter().map(|x| id(&x.name)).collect();
        let dst: Vec<Option<usize>> = c
            .assigns
            .iter()
            .map(|a| a.dst.cell.as_deref().map(&mut id))
            .collect();
        let groups = ids.len();
        let mut start = vec![0; groups + 1];
        for &g in dst.iter().flatten() {
            start[g + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut fill = start[..groups].to_vec();
        let mut order = vec![0; start[groups]];
        for (i, g) in dst.into_iter().enumerate() {
            if let Some(g) = g {
                order[fill[g]] = i;
                fill[g] += 1;
            }
        }
        Fanin {
            ids,
            cell,
            start,
            order,
        }
    }

    fn groups(&self) -> usize {
        self.start.len() - 1
    }

    fn group(&self, g: usize) -> &[usize] {
        &self.order[self.start[g]..self.start[g + 1]]
    }

    /// The assignments into `c.cells[i]`.
    fn drivers_of(&self, i: usize) -> &[usize] {
        self.group(self.cell[i])
    }

    /// The group of the cell owning `p`, if any.
    fn of_port(&self, p: &PortRef) -> Option<usize> {
        self.ids.get(p.cell.as_deref()?).copied()
    }
}

/// How a cell input pin is driven.
enum PinState<'a> {
    /// Constant: a single unguarded `Src::Const` driver, no driver at
    /// all (undriven signals settle to zero), or a single *guarded*
    /// constant-zero driver — inactive guards also read as zero, so a
    /// guarded zero is zero on every cycle.
    Const(Value),
    /// A single unguarded port driver.
    Wire(&'a PortRef),
    /// Anything else: guarded or multiple drivers.
    Opaque,
}

/// The state of `pin`, given the assignments into its cell.
fn pin_state<'a>(c: &'a Component, drivers: &[usize], pin: &str, width: u32) -> PinState<'a> {
    let mut into_pin = drivers
        .iter()
        .map(|&i| &c.assigns[i])
        .filter(|a| a.dst.port == pin);
    match (into_pin.next(), into_pin.next()) {
        (None, _) => PinState::Const(Value::zero(width)),
        (Some(a), None) => {
            if !a.guard.is_true() {
                // `dst = g ? 0` is zero whether or not g is active.
                return match &a.src {
                    Src::Const(v) if v.is_zero() => PinState::Const(v.clone()),
                    _ => PinState::Opaque,
                };
            }
            match &a.src {
                Src::Const(v) => PinState::Const(v.clone()),
                Src::Port(p) => PinState::Wire(p),
            }
        }
        _ => PinState::Opaque,
    }
}

impl PinState<'_> {
    fn as_src(&self) -> Option<Src> {
        match self {
            PinState::Const(v) => Some(Src::Const(v.clone())),
            PinState::Wire(p) => Some(Src::Port((*p).clone())),
            PinState::Opaque => None,
        }
    }
}

/// Removes `dead` cells and every assignment targeting their pins.
/// Returns the number of removed constructs (cells + assigns).
fn remove_cells(
    c: &mut Component,
    dead: &HashSet<String>,
    pass: &'static str,
    replacement: &dyn Fn(&str) -> String,
    notes: &mut Notes,
) -> u64 {
    if dead.is_empty() {
        return 0;
    }
    if notes.on {
        for cell in c.cells.iter().filter(|cell| dead.contains(&cell.name)) {
            notes.add(pass, || {
                let original = match &cell.proto {
                    CellProto::Primitive(kind) => format!("cell {} ({})", cell.name, kind.label()),
                    CellProto::Component(sub) => format!("cell {} ({sub})", cell.name),
                };
                (original, replacement(&cell.name))
            });
        }
    }
    let mut removed = 0u64;
    c.cells.retain(|cell| {
        let keep = !dead.contains(&cell.name);
        removed += u64::from(!keep);
        keep
    });
    c.assigns.retain(|a| {
        let keep = !matches!(&a.dst.cell, Some(n) if dead.contains(n));
        removed += u64::from(!keep);
        keep
    });
    removed
}

/// Path-compresses forwarding chains built in a single sweep (`a → b.out`
/// and `b.out → c` become `a → c`), so readers never land on a port of a
/// cell that the same sweep removes. Keys on a wire cycle (a combinational
/// loop of identity cells) are dropped from both `repl` and `dead`: such a
/// design can't settle anyway, but the optimizer must not turn it into a
/// netlist that doesn't even elaborate.
fn compress_chains(repl: &mut HashMap<PortRef, Src>, dead: &mut HashSet<String>) {
    let keys: Vec<PortRef> = repl.keys().cloned().collect();
    let mut cyclic: Vec<PortRef> = Vec::new();
    for k in keys {
        let mut chain = vec![k.clone()];
        let mut cur = repl[&k].clone();
        while let Src::Port(p) = &cur {
            if chain.contains(p) {
                cyclic.append(&mut chain);
                break;
            }
            let Some(next) = repl.get(p) else { break };
            chain.push(p.clone());
            cur = next.clone();
        }
        if !chain.is_empty() {
            repl.insert(k, cur);
        }
    }
    for k in cyclic {
        if let Some(cell) = &k.cell {
            dead.remove(cell);
        }
        repl.remove(&k);
    }
}

/// Rewrites read sites per `repl` (keys are cell output ports): assignment
/// sources are substituted, guard ports mapping to constants simplify the
/// disjunction, and assignments whose guard becomes never-active are
/// dropped. Returns the rewrite count.
fn replace_reads(
    c: &mut Component,
    repl: &HashMap<PortRef, Src>,
    pass: &'static str,
    notes: &mut Notes,
) -> u64 {
    if repl.is_empty() {
        return 0;
    }
    let mut n = 0u64;
    c.assigns.retain_mut(|a| {
        let src_hit = matches!(&a.src, Src::Port(p) if repl.contains_key(p));
        let guard_hit = guard_ports(&a.guard).iter().any(|p| repl.contains_key(p));
        if !(src_hit || guard_hit) {
            return true;
        }
        let before = notes.on.then(|| describe(a));
        if let Src::Port(p) = &a.src {
            if let Some(r) = repl.get(p) {
                a.src = r.clone();
            }
        }
        let mut never = false;
        if guard_hit {
            let mut always = false;
            let mut out = Vec::new();
            for p in guard_ports(&a.guard) {
                match repl.get(p) {
                    Some(Src::Const(v)) => always |= !v.is_zero(),
                    Some(Src::Port(q)) => out.push(q.clone()),
                    None => out.push(p.clone()),
                }
            }
            if always {
                a.guard = Guard::True;
            } else if out.is_empty() {
                // Every disjunct is a constant zero: the assignment can
                // never fire.
                never = true;
            } else {
                a.guard = Guard::Any(out);
            }
        }
        n += 1;
        notes.add(pass, || {
            let after = if never {
                "removed (guard never active)".to_owned()
            } else {
                describe(a)
            };
            (before.unwrap_or_default(), after)
        });
        !never
    });
    n
}

/// Pass 1: constant folding and propagation.
fn const_fold(c: &mut Component, cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let mut repl: HashMap<PortRef, Src> = HashMap::new();
    let mut dead = HashSet::new();
    for (ci, cell) in c.cells.iter().enumerate() {
        let CellProto::Primitive(kind) = &cell.proto else {
            continue;
        };
        if kind.is_sequential() || matches!(kind, CellKind::Const { .. }) {
            continue;
        }
        let drivers = fanin.drivers_of(ci);
        let (pins, _) = primitive_ports(kind);
        let mut vals = Vec::with_capacity(pins.len());
        let mut all_const = true;
        let mut any_const = false;
        for (pin, width) in pins.iter() {
            match pin_state(c, drivers, pin, *width) {
                PinState::Const(v) => {
                    any_const = true;
                    vals.push(v);
                }
                _ => {
                    all_const = false;
                    if !cfg.inject_bad_fold {
                        break;
                    }
                    // The injected bug is doubly unsound: it also takes a
                    // *guarded* constant driver as if it were always
                    // active (lowered data arguments are always guarded,
                    // so the sound fold never fires on them — the
                    // injected one must, or the selftest has nothing to
                    // catch).
                    let guarded_const = drivers
                        .iter()
                        .map(|&i| &c.assigns[i])
                        .filter(|a| a.dst.port == *pin)
                        .find_map(|a| match &a.src {
                            Src::Const(v) => Some(v.clone()),
                            Src::Port(_) => None,
                        });
                    match guarded_const {
                        Some(v) => {
                            any_const = true;
                            vals.push(v);
                        }
                        None => vals.push(Value::zero(*width)),
                    }
                }
            }
        }
        // The mutation-testing hook folds partially-constant cells as if
        // the unknown pins were zero — exactly the kind of unsound fold the
        // fuzz oracle's opt-lockstep stage exists to catch.
        if !(all_const || (cfg.inject_bad_fold && any_const)) {
            continue;
        }
        let ins: Vec<&Value> = vals.iter().collect();
        let value = kind.eval_values(&ins).swap_remove(0);
        repl.insert(PortRef::cell(cell.name.clone(), "out"), Src::Const(value));
        dead.insert(cell.name.clone());
    }
    drop(fanin);
    let folded_desc = |name: &str| match repl.get(&PortRef::cell(name, "out")) {
        Some(Src::Const(v)) => format!("folded to {}", render_value(v)),
        _ => "folded to ".to_owned(),
    };
    let mut n = remove_cells(c, &dead, PASSES[0], &folded_desc, notes);
    n += replace_reads(c, &repl, PASSES[0], notes);
    n
}

/// Pass 2: strength reduction.
fn strength(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let record = notes.on;
    let mut repl: HashMap<PortRef, Src> = HashMap::new();
    let mut dead = HashSet::new();
    let mut forwarded: HashMap<String, String> = HashMap::new();
    // Mult-by-2^k plans: (cell index, shift amount, surviving pin name).
    let mut shl_plans: Vec<(usize, u32, &'static str)> = Vec::new();

    for (ci, cell) in c.cells.iter().enumerate() {
        let CellProto::Primitive(kind) = &cell.proto else {
            continue;
        };
        let drivers = fanin.drivers_of(ci);
        let pin = |p: &str, w: u32| pin_state(c, drivers, p, w);
        let out = || PortRef::cell(cell.name.clone(), "out");
        // Forward `cell.out` readers to `src`; the cell dies.
        let mut fwd = |src: Src, repl: &mut HashMap<PortRef, Src>, dead: &mut HashSet<String>| {
            if record {
                forwarded.insert(cell.name.clone(), render_src(&src));
            }
            repl.insert(out(), src);
            dead.insert(cell.name.clone());
        };
        match *kind {
            CellKind::MulComb { width } => {
                let (l, r) = (pin("left", width), pin("right", width));
                // Put the constant (if any) on `konst`, the other on `var`.
                let (konst, var, var_pin) = match (&l, &r) {
                    (PinState::Const(v), _) => (Some(v.clone()), r, "right"),
                    (_, PinState::Const(v)) => (Some(v.clone()), l, "left"),
                    _ => (None, PinState::Opaque, ""),
                };
                let Some(k) = konst else { continue };
                if k.is_zero() {
                    fwd(Src::Const(Value::zero(width)), &mut repl, &mut dead);
                } else if k.limbs().iter().map(|l| l.count_ones()).sum::<u32>() == 1 {
                    let amount = k.significant_bits() - 1;
                    if amount == 0 {
                        // Multiplication by one: a wire, when the other
                        // pin is forwardable.
                        if let Some(src) = var.as_src() {
                            fwd(src, &mut repl, &mut dead);
                        }
                    } else {
                        let sp: &'static str = if var_pin == "left" { "left" } else { "right" };
                        shl_plans.push((ci, amount, sp));
                    }
                }
            }
            CellKind::Add { width } => match (pin("left", width), pin("right", width)) {
                (PinState::Const(v), other) | (other, PinState::Const(v)) if v.is_zero() => {
                    if let Some(src) = other.as_src() {
                        fwd(src, &mut repl, &mut dead);
                    }
                }
                _ => {}
            },
            CellKind::Or { width } | CellKind::Xor { width } => {
                match (pin("left", width), pin("right", width)) {
                    (PinState::Const(v), other) | (other, PinState::Const(v)) if v.is_zero() => {
                        if let Some(src) = other.as_src() {
                            fwd(src, &mut repl, &mut dead);
                        }
                    }
                    (PinState::Const(v), _) | (_, PinState::Const(v))
                        if v == Value::ones(width) && matches!(kind, CellKind::Or { .. }) =>
                    {
                        fwd(Src::Const(Value::ones(width)), &mut repl, &mut dead);
                    }
                    _ => {}
                }
            }
            CellKind::And { width } => match (pin("left", width), pin("right", width)) {
                (PinState::Const(v), _) | (_, PinState::Const(v)) if v.is_zero() => {
                    fwd(Src::Const(Value::zero(width)), &mut repl, &mut dead);
                }
                (PinState::Const(v), other) | (other, PinState::Const(v))
                    if v == Value::ones(width) =>
                {
                    if let Some(src) = other.as_src() {
                        fwd(src, &mut repl, &mut dead);
                    }
                }
                _ => {}
            },
            CellKind::Sub { width } => {
                if let PinState::Const(v) = pin("right", width) {
                    if v.is_zero() {
                        if let Some(src) = pin("left", width).as_src() {
                            fwd(src, &mut repl, &mut dead);
                        }
                    }
                }
            }
            CellKind::ShlDyn { width } | CellKind::ShrDyn { width } => {
                if let PinState::Const(v) = pin("right", width) {
                    if v.is_zero() {
                        if let Some(src) = pin("left", width).as_src() {
                            fwd(src, &mut repl, &mut dead);
                        }
                    }
                }
            }
            CellKind::Mux { width } => {
                if let PinState::Const(sel) = pin("sel", 1) {
                    let chosen = if sel.as_bool() { "in1" } else { "in0" };
                    if let Some(src) = pin(chosen, width).as_src() {
                        fwd(src, &mut repl, &mut dead);
                    }
                }
            }
            _ => {}
        }
    }
    drop(fanin);

    let mut n = 0u64;
    // Apply the Mult → ShlConst rewrites: swap the kind, then (in one
    // sweep over the assignments) retarget the surviving operand's
    // assigns to the `in` pin and drop the constant pin's assigns.
    let mut retarget: HashMap<String, &'static str> = HashMap::new();
    for (ci, amount, keep_pin) in shl_plans {
        let cell = &mut c.cells[ci];
        let CellProto::Primitive(CellKind::MulComb { width }) = cell.proto else {
            continue;
        };
        notes.add(PASSES[1], || {
            (
                format!("cell {} (mul)", cell.name),
                format!("shl by {amount}"),
            )
        });
        cell.proto = CellProto::Primitive(CellKind::ShlConst { width, amount });
        retarget.insert(cell.name.clone(), keep_pin);
        n += 1;
    }
    if !retarget.is_empty() {
        c.assigns.retain_mut(|a| {
            let Some(&keep_pin) = a.dst.cell.as_ref().and_then(|cn| retarget.get(cn)) else {
                return true;
            };
            if a.dst.port == keep_pin {
                a.dst.port = "in".to_owned();
                true
            } else {
                false // The constant operand's driver.
            }
        });
    }
    compress_chains(&mut repl, &mut dead);
    let fwd_desc = move |name: &str| {
        format!(
            "forwarded to {}",
            forwarded.get(name).cloned().unwrap_or_default()
        )
    };
    n += remove_cells(c, &dead, PASSES[1], &fwd_desc, notes);
    n += replace_reads(c, &repl, PASSES[1], notes);
    n
}

/// Pass 3: copy/wire forwarding of identity cells.
fn forward(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let mut repl: HashMap<PortRef, Src> = HashMap::new();
    let mut dead = HashSet::new();
    let mut forwarded: HashMap<String, String> = HashMap::new();
    // Guard-aware forwarding: `z.in = Any(S) ? src` makes `z.out` equal
    // `src` exactly while some state in S is active. Keyed by `z.out`.
    let mut windowed: HashMap<PortRef, (BTreeSet<PortRef>, Src)> = HashMap::new();
    for (ci, cell) in c.cells.iter().enumerate() {
        let CellProto::Primitive(kind) = &cell.proto else {
            continue;
        };
        let identity = match *kind {
            CellKind::Slice { in_width, hi, lo } => hi == in_width - 1 && lo == 0,
            CellKind::ZeroExt {
                in_width,
                out_width,
            } => in_width == out_width,
            CellKind::ShlConst { amount, .. } | CellKind::ShrConst { amount, .. } => amount == 0,
            _ => false,
        };
        if !identity {
            continue;
        }
        let drivers = fanin.drivers_of(ci);
        let width = kind.input_widths()[0];
        if let Some(src) = pin_state(c, drivers, "in", width).as_src() {
            if notes.on {
                forwarded.insert(cell.name.clone(), render_src(&src));
            }
            repl.insert(PortRef::cell(cell.name.clone(), "out"), src);
            dead.insert(cell.name.clone());
            continue;
        }
        // The availability argument (Section 5.2): lowering guards every
        // data assignment with its interval's FSM states, so a wire cell
        // in a scheduled component has a guarded driver and the unguarded
        // rule above never fires. Record the window instead.
        let mut into_in = drivers
            .iter()
            .map(|&i| &c.assigns[i])
            .filter(|a| a.dst.port == "in");
        if let (Some(a), None) = (into_in.next(), into_in.next()) {
            if let Guard::Any(states) = &a.guard {
                let out = PortRef::cell(cell.name.clone(), "out");
                if !states.is_empty() && a.src != Src::Port(out.clone()) {
                    windowed.insert(out, (states.iter().cloned().collect(), a.src.clone()));
                }
            }
        }
    }
    drop(fanin);
    compress_chains(&mut repl, &mut dead);
    let fwd_desc = move |name: &str| {
        format!(
            "forwarded to {}",
            forwarded.get(name).cloned().unwrap_or_default()
        )
    };
    let mut n = remove_cells(c, &dead, PASSES[2], &fwd_desc, notes);
    n += replace_reads(c, &repl, PASSES[2], notes);
    if windowed.is_empty() {
        return n;
    }
    // A reader `dst = Any(R) ? z.out` with R ⊆ S only samples `z.out`
    // inside the window where it equals `src`, so it can read `src`
    // directly — interval containment makes the forwarding sound without
    // any reachability analysis. The cell itself is left to dce, which
    // collects it once the last read is gone.
    for a in &mut c.assigns {
        let Src::Port(p) = &a.src else { continue };
        let Some((states, src)) = windowed.get(p) else {
            continue;
        };
        let Guard::Any(reads) = &a.guard else {
            continue;
        };
        if reads.is_empty() || !reads.iter().all(|q| states.contains(q)) {
            continue;
        }
        let before = notes.on.then(|| describe(a));
        a.src = src.clone();
        n += 1;
        notes.add(PASSES[2], || (before.unwrap_or_default(), describe(a)));
    }
    n
}

/// Pass 4: local CSE by structural hash-consing.
fn cse(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let mut fanin = Fanin::new(c);
    // Canonical driver order: by pin name, and in assignment order within
    // a pin (the sort is stable).
    for g in 0..fanin.groups() {
        let (from, to) = (fanin.start[g], fanin.start[g + 1]);
        fanin.order[from..to].sort_by(|&x, &y| c.assigns[x].dst.port.cmp(&c.assigns[y].dst.port));
    }
    // Representatives by structural hash: `heads` holds the latest
    // representative with a hash, `chain` links it to earlier ones with
    // the same hash (distinct cells whose hashes collide).
    let mut heads: HashMap<u64, usize> = HashMap::with_capacity(c.cells.len());
    let mut chain: Vec<Option<usize>> = vec![None; c.cells.len()];
    let mut rename: HashMap<String, String> = HashMap::new();
    for (ci, cell) in c.cells.iter().enumerate() {
        let drivers = fanin.drivers_of(ci);
        let hash = cell_hash(c, cell, drivers);
        let mut candidate = heads.get(&hash).copied();
        while let Some(r) = candidate {
            if same_cell(c, &c.cells[r], fanin.drivers_of(r), cell, drivers) {
                break;
            }
            candidate = chain[r];
        }
        match candidate {
            Some(r) => {
                let rep = &c.cells[r].name;
                notes.add(PASSES[3], || {
                    (format!("cell {}", cell.name), format!("merged into {rep}"))
                });
                rename.insert(cell.name.clone(), rep.clone());
            }
            None => chain[ci] = heads.insert(hash, ci),
        }
    }
    drop(fanin);
    if rename.is_empty() {
        return 0;
    }
    let mut n = 0u64;
    c.cells.retain(|cell| !rename.contains_key(&cell.name));
    c.assigns
        .retain(|a| !matches!(&a.dst.cell, Some(cn) if rename.contains_key(cn)));
    let fix = |p: &mut PortRef, n: &mut u64| {
        if let Some(cn) = &p.cell {
            if let Some(rep) = rename.get(cn) {
                p.cell = Some(rep.clone());
                *n += 1;
            }
        }
    };
    for a in &mut c.assigns {
        if let Src::Port(p) = &mut a.src {
            fix(p, &mut n);
        }
        if let Guard::Any(ports) = &mut a.guard {
            for p in ports {
                fix(p, &mut n);
            }
        }
    }
    n + rename.len() as u64
}

/// A 64-bit structural hash of a cell's kind and its drivers (in CSE's
/// canonical order): equal for any two cells [`same_cell`] accepts.
fn cell_hash(c: &Component, cell: &Cell, drivers: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    match &cell.proto {
        CellProto::Primitive(kind) => (0u8, kind).hash(&mut h),
        CellProto::Component(name) => (1u8, name).hash(&mut h),
    }
    for &i in drivers {
        let a = &c.assigns[i];
        a.dst.port.hash(&mut h);
        guard_ports(&a.guard).hash(&mut h);
        match &a.src {
            Src::Port(p) => (0u8, p).hash(&mut h),
            Src::Const(v) => (1u8, v).hash(&mut h),
        }
    }
    h.finish()
}

/// Whether two cells are interchangeable: the same kind, and the same
/// `(pin, guard, source)` drivers in CSE's canonical order.
fn same_cell(c: &Component, x: &Cell, x_drivers: &[usize], y: &Cell, y_drivers: &[usize]) -> bool {
    let same_proto = match (&x.proto, &y.proto) {
        (CellProto::Primitive(a), CellProto::Primitive(b)) => a == b,
        (CellProto::Component(a), CellProto::Component(b)) => a == b,
        _ => false,
    };
    same_proto
        && x_drivers.len() == y_drivers.len()
        && x_drivers.iter().zip(y_drivers).all(|(&i, &j)| {
            let (a, b) = (&c.assigns[i], &c.assigns[j]);
            a.dst.port == b.dst.port
                && a.src == b.src
                && guard_ports(&a.guard) == guard_ports(&b.guard)
        })
}

/// Pass 5: dead-cell elimination by backward liveness from output ports,
/// as one worklist traversal: each cell is marked live once, and its
/// drivers are visited once.
fn dce(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let mut live = vec![false; fanin.groups()];
    let mut work = Vec::new();
    let mut read = |a: &Assign, work: &mut Vec<usize>| {
        let src = match &a.src {
            Src::Port(p) => Some(p),
            Src::Const(_) => None,
        };
        for p in src.into_iter().chain(guard_ports(&a.guard)) {
            if let Some(g) = fanin.of_port(p) {
                if !live[g] {
                    live[g] = true;
                    work.push(g);
                }
            }
        }
    };
    // Component outputs are the liveness roots.
    for a in c.assigns.iter().filter(|a| a.dst.cell.is_none()) {
        read(a, &mut work);
    }
    while let Some(g) = work.pop() {
        for &i in fanin.group(g) {
            read(&c.assigns[i], &mut work);
        }
    }
    let dead: HashSet<String> = c
        .cells
        .iter()
        .zip(&fanin.cell)
        .filter(|&(_, &g)| !live[g])
        .map(|(cell, _)| cell.name.clone())
        .collect();
    drop(fanin);
    remove_cells(c, &dead, PASSES[4], &|_| "removed (dead)".to_owned(), notes)
}

#[cfg(test)]
mod tests;
