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
    primitive_ports, Assign, Cell, CellProto, Component, Guard, Names, PortRef, Program, Src, Sym,
};
use fil_bits::Value;
use rtl_sim::CellKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
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
fn describe(names: &Names, a: &Assign) -> String {
    let mut out = format!("{} = ", names.port(a.dst));
    for (i, &p) in a.guard.ports().iter().enumerate() {
        let sep = if i == 0 { "" } else { " || " };
        let _ = write!(out, "{sep}{}", names.port(p));
    }
    if !a.guard.is_true() {
        out.push_str(" ? ");
    }
    out + &render_src(names, &a.src)
}

fn render_src(names: &Names, s: &Src) -> String {
    match s {
        Src::Port(p) => names.port(*p),
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

/// A map from a component's symbols, as a `Vec` allocated on the first
/// insert (most passes on most iterations rewrite nothing).
struct BySym<T> {
    len: usize,
    slots: Vec<Option<T>>,
}

impl<T> BySym<T> {
    fn new(names: &Names) -> Self {
        BySym {
            len: names.len(),
            slots: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn get(&self, s: Sym) -> Option<&T> {
        self.slots.get(s.index())?.as_ref()
    }

    fn insert(&mut self, s: Sym, v: T) -> Option<T> {
        if self.slots.is_empty() {
            self.slots.resize_with(self.len, || None);
        }
        self.slots[s.index()].replace(v)
    }
}

/// One pass's rewrites of cell outputs: each rewritten cell is removed,
/// and reads of its `out` pin read its source instead. Every rewritten pin
/// is an `out` pin, so the map is indexed by the cell's symbol.
struct Repl {
    out: Option<Sym>,
    src: BySym<Src>,
    /// The rewritten cells, in the order found.
    keys: Vec<Sym>,
}

impl Repl {
    fn new(c: &Component) -> Self {
        Repl {
            out: c.names.get("out"),
            src: BySym::new(&c.names),
            keys: Vec::new(),
        }
    }

    fn insert(&mut self, cell: Sym, src: Src) {
        if self.src.insert(cell, src).is_none() {
            self.keys.push(cell);
        }
    }

    /// What a read of `p` reads after the rewrite, if it changes.
    fn get(&self, p: PortRef) -> Option<&Src> {
        match p.cell {
            Some(cell) if Some(p.port) == self.out => self.src.get(cell),
            _ => None,
        }
    }
}

/// The group of a symbol naming no cell.
const NO_GROUP: u32 = u32::MAX;

/// The assignments into each cell, grouped once per pass so later driver
/// lookups index instead of search. Groups are keyed by cell symbol, so a
/// destination cell that is not declared still gets a group, after the
/// declared ones.
struct Fanin {
    /// Symbol → group, or [`NO_GROUP`].
    ids: Vec<u32>,
    /// The group of `c.cells[i]`.
    cell: Vec<usize>,
    /// `order[start[g]..start[g + 1]]`: the assignments into group `g`,
    /// as indices into `c.assigns`, in assignment order.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl Fanin {
    fn new(c: &Component) -> Self {
        let mut ids = vec![NO_GROUP; c.names.len()];
        let mut groups = 0;
        let mut id = |s: Sym| {
            let g = &mut ids[s.index()];
            if *g == NO_GROUP {
                *g = groups;
                groups += 1;
            }
            *g as usize
        };
        let cell: Vec<usize> = c.cells.iter().map(|x| id(x.name)).collect();
        let dst: Vec<Option<usize>> = c.assigns.iter().map(|a| a.dst.cell.map(&mut id)).collect();
        let groups = groups as usize;
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

    /// The group of the cell named `s`, if any.
    fn of_sym(&self, s: Sym) -> Option<usize> {
        let g = self.ids[s.index()];
        (g != NO_GROUP).then_some(g as usize)
    }
}

/// How a cell input pin is driven.
enum PinState {
    /// Constant: a single unguarded `Src::Const` driver, no driver at
    /// all (undriven signals settle to zero), or a single *guarded*
    /// constant-zero driver — inactive guards also read as zero, so a
    /// guarded zero is zero on every cycle.
    Const(Value),
    /// A single unguarded port driver.
    Wire(PortRef),
    /// Anything else: guarded or multiple drivers, or a constant of
    /// another width than the pin's.
    Opaque,
}

/// The state of `pin`, given the assignments into its cell.
fn pin_state(c: &Component, drivers: &[usize], pin: &str, width: u32) -> PinState {
    let mut into_pin = drivers
        .iter()
        .map(|&i| &c.assigns[i])
        .filter(|a| &c.names[a.dst.port] == pin);
    match (into_pin.next(), into_pin.next()) {
        (None, _) => PinState::Const(Value::zero(width)),
        (Some(a), None) => match &a.src {
            Src::Const(v) if v.width() != width => PinState::Opaque,
            // `dst = g ? 0` is zero whether or not g is active.
            Src::Const(v) if a.guard.is_true() || v.is_zero() => PinState::Const(v.clone()),
            Src::Port(p) if a.guard.is_true() => PinState::Wire(*p),
            _ => PinState::Opaque,
        },
        _ => PinState::Opaque,
    }
}

impl PinState {
    fn as_src(&self) -> Option<Src> {
        match self {
            PinState::Const(v) => Some(Src::Const(v.clone())),
            PinState::Wire(p) => Some(Src::Port(*p)),
            PinState::Opaque => None,
        }
    }
}

/// Removes the cells `dead` names and every assignment targeting their
/// pins. Returns the number of removed constructs (cells + assigns).
fn remove_cells(
    c: &mut Component,
    dead: impl Fn(Sym) -> bool,
    pass: &'static str,
    replacement: &dyn Fn(Sym) -> String,
    notes: &mut Notes,
) -> u64 {
    if notes.on {
        for cell in c.cells.iter().filter(|cell| dead(cell.name)) {
            let name = &c.names[cell.name];
            notes.add(pass, || {
                let original = match &cell.proto {
                    CellProto::Primitive(kind) => format!("cell {name} ({})", kind.label()),
                    CellProto::Component(sub) => format!("cell {name} ({sub})"),
                };
                (original, replacement(cell.name))
            });
        }
    }
    let mut removed = 0u64;
    c.cells.retain(|cell| {
        let keep = !dead(cell.name);
        removed += u64::from(!keep);
        keep
    });
    c.assigns.retain(|a| {
        let keep = !a.dst.cell.is_some_and(&dead);
        removed += u64::from(!keep);
        keep
    });
    removed
}

/// Path-compresses forwarding chains built in a single sweep (`a → b.out`
/// and `b.out → c` become `a → c`), so readers never land on a port of a
/// cell that the same sweep removes. Keys on a wire cycle (a combinational
/// loop of identity cells) are dropped: such a design can't settle
/// anyway, but the optimizer must not turn it into a netlist that doesn't
/// even elaborate.
fn compress_chains(repl: &mut Repl) {
    let mut cyclic: Vec<Sym> = Vec::new();
    for &k in &repl.keys {
        let mut chain = vec![k];
        let mut cur = repl.src.get(k).cloned().expect("keys are rewritten");
        while let Src::Port(p) = cur {
            let Some(next) = repl.get(p) else { break };
            let cell = p.cell.expect("rewritten pins are cell pins");
            if chain.contains(&cell) {
                cyclic.append(&mut chain);
                break;
            }
            chain.push(cell);
            cur = next.clone();
        }
        if !chain.is_empty() {
            repl.src.insert(k, cur);
        }
    }
    for &k in &cyclic {
        repl.src.slots[k.index()] = None;
    }
    repl.keys.retain(|k| !cyclic.contains(k));
}

/// Removes the cells `repl` rewrites and rewrites their reads: assignment
/// sources are substituted, guard ports mapping to constants simplify the
/// disjunction, and assignments whose guard becomes never-active are
/// dropped. Returns the rewrite count.
fn apply(
    c: &mut Component,
    repl: &Repl,
    pass: &'static str,
    replacement: &dyn Fn(Sym) -> String,
    notes: &mut Notes,
) -> u64 {
    if repl.keys.is_empty() {
        return 0;
    }
    let dead = |s: Sym| repl.src.get(s).is_some();
    let mut n = remove_cells(c, dead, pass, replacement, notes);
    let names = &c.names;
    c.assigns.retain_mut(|a| {
        let src_hit = matches!(a.src, Src::Port(p) if repl.get(p).is_some());
        let guard_hit = a.guard.ports().iter().any(|&p| repl.get(p).is_some());
        if !(src_hit || guard_hit) {
            return true;
        }
        let before = notes.on.then(|| describe(names, a));
        if let Src::Port(p) = a.src {
            if let Some(r) = repl.get(p) {
                a.src = r.clone();
            }
        }
        let mut never = false;
        if guard_hit {
            let mut always = false;
            let mut out = Vec::new();
            for &p in a.guard.ports() {
                match repl.get(p) {
                    Some(Src::Const(v)) => always |= !v.is_zero(),
                    Some(Src::Port(q)) => out.push(*q),
                    None => out.push(p),
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
                describe(names, a)
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
    let mut repl = Repl::new(c);
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
                        .filter(|a| &c.names[a.dst.port] == *pin)
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
        repl.insert(cell.name, Src::Const(value));
    }
    let folded_desc = |cell: Sym| match repl.src.get(cell) {
        Some(Src::Const(v)) => format!("folded to {}", render_value(v)),
        _ => "folded to ".to_owned(),
    };
    apply(c, &repl, PASSES[0], &folded_desc, notes)
}

/// Pass 2: strength reduction.
fn strength(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let record = notes.on;
    let mut repl = Repl::new(c);
    let mut forwarded = BySym::new(&c.names);
    // Mult-by-2^k plans: (cell index, shift amount, surviving pin name).
    let mut shl_plans: Vec<(usize, u32, &'static str)> = Vec::new();

    for (ci, cell) in c.cells.iter().enumerate() {
        let CellProto::Primitive(kind) = &cell.proto else {
            continue;
        };
        let drivers = fanin.drivers_of(ci);
        let pin = |p: &str, w: u32| pin_state(c, drivers, p, w);
        // Forward `cell.out` readers to `src`; the cell dies.
        let mut fwd = |src: Src, repl: &mut Repl| {
            if record {
                forwarded.insert(cell.name, render_src(&c.names, &src));
            }
            repl.insert(cell.name, src);
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
                    fwd(Src::Const(Value::zero(width)), &mut repl);
                } else if k.limbs().iter().map(|l| l.count_ones()).sum::<u32>() == 1 {
                    let amount = k.significant_bits() - 1;
                    if amount == 0 {
                        // Multiplication by one: a wire, when the other
                        // pin is forwardable.
                        if let Some(src) = var.as_src() {
                            fwd(src, &mut repl);
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
                        fwd(src, &mut repl);
                    }
                }
                _ => {}
            },
            CellKind::Or { width } | CellKind::Xor { width } => {
                match (pin("left", width), pin("right", width)) {
                    (PinState::Const(v), other) | (other, PinState::Const(v)) if v.is_zero() => {
                        if let Some(src) = other.as_src() {
                            fwd(src, &mut repl);
                        }
                    }
                    (PinState::Const(v), _) | (_, PinState::Const(v))
                        if v == Value::ones(width) && matches!(kind, CellKind::Or { .. }) =>
                    {
                        fwd(Src::Const(Value::ones(width)), &mut repl);
                    }
                    _ => {}
                }
            }
            CellKind::And { width } => match (pin("left", width), pin("right", width)) {
                (PinState::Const(v), _) | (_, PinState::Const(v)) if v.is_zero() => {
                    fwd(Src::Const(Value::zero(width)), &mut repl);
                }
                (PinState::Const(v), other) | (other, PinState::Const(v))
                    if v == Value::ones(width) =>
                {
                    if let Some(src) = other.as_src() {
                        fwd(src, &mut repl);
                    }
                }
                _ => {}
            },
            CellKind::Sub { width } => {
                if let PinState::Const(v) = pin("right", width) {
                    if v.is_zero() {
                        if let Some(src) = pin("left", width).as_src() {
                            fwd(src, &mut repl);
                        }
                    }
                }
            }
            CellKind::ShlDyn { width } | CellKind::ShrDyn { width } => {
                if let PinState::Const(v) = pin("right", width) {
                    if v.is_zero() {
                        if let Some(src) = pin("left", width).as_src() {
                            fwd(src, &mut repl);
                        }
                    }
                }
            }
            CellKind::Mux { width } => {
                if let PinState::Const(sel) = pin("sel", 1) {
                    let chosen = if sel.as_bool() { "in1" } else { "in0" };
                    if let Some(src) = pin(chosen, width).as_src() {
                        fwd(src, &mut repl);
                    }
                }
            }
            _ => {}
        }
    }
    let mut n = 0u64;
    // Apply the Mult → ShlConst rewrites: swap the kind, then (in one
    // sweep over the assignments) retarget the surviving operand's
    // assigns to the `in` pin and drop the constant pin's assigns.
    if !shl_plans.is_empty() {
        let in_pin = c.names.intern("in");
        let mut retarget = BySym::new(&c.names);
        for (ci, amount, keep_pin) in shl_plans {
            let cell = &mut c.cells[ci];
            let CellProto::Primitive(CellKind::MulComb { width }) = cell.proto else {
                continue;
            };
            let name = &c.names[cell.name];
            notes.add(PASSES[1], || {
                (format!("cell {name} (mul)"), format!("shl by {amount}"))
            });
            cell.proto = CellProto::Primitive(CellKind::ShlConst { width, amount });
            retarget.insert(cell.name, c.names.get(keep_pin));
            n += 1;
        }
        c.assigns.retain_mut(|a| {
            let Some(&keep_pin) = a.dst.cell.and_then(|cn| retarget.get(cn)) else {
                return true;
            };
            if Some(a.dst.port) == keep_pin {
                a.dst.port = in_pin;
                true
            } else {
                false // The constant operand's driver.
            }
        });
    }
    compress_chains(&mut repl);
    let fwd_desc = |cell: Sym| {
        let to = forwarded.get(cell).map_or("", String::as_str);
        format!("forwarded to {to}")
    };
    n + apply(c, &repl, PASSES[1], &fwd_desc, notes)
}

/// Pass 3: copy/wire forwarding of identity cells.
fn forward(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let fanin = Fanin::new(c);
    let mut repl = Repl::new(c);
    let mut forwarded = BySym::new(&c.names);
    // Guard-aware forwarding: `z.in = Any(S) ? src` makes `z.out` equal
    // `src` exactly while some state in S is active. Keyed by `z`; S is
    // sorted.
    let mut windowed: BySym<(Vec<PortRef>, Src)> = BySym::new(&c.names);
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
                forwarded.insert(cell.name, render_src(&c.names, &src));
            }
            repl.insert(cell.name, src);
            continue;
        }
        // The availability argument (Section 5.2): lowering guards every
        // data assignment with its interval's FSM states, so a wire cell
        // in a scheduled component has a guarded driver and the unguarded
        // rule above never fires. Record the window instead.
        let mut into_in = drivers
            .iter()
            .map(|&i| &c.assigns[i])
            .filter(|a| &c.names[a.dst.port] == "in");
        if let (Some(a), None) = (into_in.next(), into_in.next()) {
            let out = repl.out.map(|out| PortRef::cell(cell.name, out));
            if let Guard::Any(states) = &a.guard {
                if !states.is_empty() && Some(&a.src) != out.map(Src::Port).as_ref() {
                    let mut states = states.clone();
                    states.sort_unstable();
                    windowed.insert(cell.name, (states, a.src.clone()));
                }
            }
        }
    }
    compress_chains(&mut repl);
    let fwd_desc = |cell: Sym| {
        let to = forwarded.get(cell).map_or("", String::as_str);
        format!("forwarded to {to}")
    };
    let mut n = apply(c, &repl, PASSES[2], &fwd_desc, notes);
    if windowed.is_empty() {
        return n;
    }
    // A reader `dst = Any(R) ? z.out` with R ⊆ S only samples `z.out`
    // inside the window where it equals `src`, so it can read `src`
    // directly — interval containment makes the forwarding sound without
    // any reachability analysis. The cell itself is left to dce, which
    // collects it once the last read is gone.
    let names = &c.names;
    for a in &mut c.assigns {
        let Src::Port(p) = a.src else { continue };
        let Some((states, src)) = p
            .cell
            .filter(|_| Some(p.port) == repl.out)
            .and_then(|z| windowed.get(z))
        else {
            continue;
        };
        let reads = a.guard.ports();
        if reads.is_empty() || !reads.iter().all(|q| states.binary_search(q).is_ok()) {
            continue;
        }
        let before = notes.on.then(|| describe(names, a));
        a.src = src.clone();
        n += 1;
        notes.add(PASSES[2], || {
            (before.unwrap_or_default(), describe(names, a))
        });
    }
    n
}

/// Pass 4: local CSE by structural hash-consing.
fn cse(c: &mut Component, _cfg: &OptConfig, notes: &mut Notes) -> u64 {
    let mut fanin = Fanin::new(c);
    // Canonical driver order: by pin, and in assignment order within a
    // pin (the sort is stable).
    for g in 0..fanin.groups() {
        let (from, to) = (fanin.start[g], fanin.start[g + 1]);
        fanin.order[from..to].sort_by_key(|&x| c.assigns[x].dst.port);
    }
    // Representatives by structural hash: `heads` holds the latest
    // representative with a hash, `chain` links it to earlier ones with
    // the same hash (distinct cells whose hashes collide).
    let mut heads: HashMap<u64, usize> = HashMap::with_capacity(c.cells.len());
    let mut chain: Vec<Option<usize>> = vec![None; c.cells.len()];
    let mut rename = BySym::new(&c.names);
    let mut merged = 0u64;
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
                let (name, rep) = (&c.names[cell.name], &c.names[c.cells[r].name]);
                notes.add(PASSES[3], || {
                    (format!("cell {name}"), format!("merged into {rep}"))
                });
                if rename.insert(cell.name, c.cells[r].name).is_none() {
                    merged += 1;
                }
            }
            None => chain[ci] = heads.insert(hash, ci),
        }
    }
    if merged == 0 {
        return 0;
    }
    c.cells.retain(|cell| rename.get(cell.name).is_none());
    c.assigns
        .retain(|a| !a.dst.cell.is_some_and(|cn| rename.get(cn).is_some()));
    let mut n = merged;
    let mut fix = |p: &mut PortRef| {
        if let Some(&rep) = p.cell.and_then(|cn| rename.get(cn)) {
            p.cell = Some(rep);
            n += 1;
        }
    };
    for a in &mut c.assigns {
        if let Src::Port(p) = &mut a.src {
            fix(p);
        }
        if let Guard::Any(ports) = &mut a.guard {
            ports.iter_mut().for_each(&mut fix);
        }
    }
    n
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
        (a.dst.port, a.guard.ports()).hash(&mut h);
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
            a.dst.port == b.dst.port && a.src == b.src && a.guard.ports() == b.guard.ports()
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
        let src = match a.src {
            Src::Port(p) => Some(p),
            Src::Const(_) => None,
        };
        for p in src.iter().chain(a.guard.ports()) {
            if let Some(g) = p.cell.and_then(|s| fanin.of_sym(s)) {
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
    // Only declared cells die: assignments into an undeclared cell stay.
    let mut dead = vec![false; fanin.groups()];
    for &g in &fanin.cell {
        dead[g] = !live[g];
    }
    if !dead.contains(&true) {
        return 0;
    }
    let dead = |s: Sym| fanin.of_sym(s).is_some_and(|g| dead[g]);
    remove_cells(c, dead, PASSES[4], &|_| "removed (dead)".to_owned(), notes)
}

#[cfg(test)]
mod tests;
