//! The simulation engine: one settle/tick loop over two lane storages.
//!
//! [`Sim`](crate::Sim) runs it over [`Value`] (one lane, any width, so
//! AES's 128- and 1280-bit signals simulate directly), and
//! [`BatchSim`](crate::BatchSim) over [`LaneBuf`] (B lanes of up to 64
//! bits, 1-bit signals bit-sliced 64 lanes per word), paying the traversal
//! bookkeeping once per signal whatever the lane count.
//!
//! Settling walks the shared [`FlatGraph`]'s topological order over
//! pre-sized buffers (no per-cycle allocation up to 64-bit signals) and
//! propagates change: only dirty signals are re-evaluated, and an
//! unchanged result does not dirty its dependents. `set_force_full_settle`
//! re-evaluates everything, as a cross-check with identical results.
//!
//! Guarded assignments resolve over 1-bit lane *planes* (a scalar is a
//! one-word plane). A write conflict is *recorded*, not fatal: conflicted
//! lanes keep their old value, everything else settles, and the lowest
//! conflicted signal id (then lane) is reported, so lane `l` of a batched
//! run matches a scalar run of lane `l`'s stimulus, errors included.

use crate::cell::{CellKind, CellState};
use crate::graph::{Driver, FlatGraph};
use crate::netlist::{Netlist, PortDir, SignalId};
use crate::profile::ProfState;
use crate::sim::SimError;
use fil_bits::{lanes, LaneBuf, Value};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Per-signal value storage: one signal across the engine's lanes.
///
/// Crate-private, so the two impls below are the only ones; it carries only
/// what differs between them. Its hot methods and the settle loop's helpers
/// are `#[inline(always)]`: the scalar engine is only as fast as a
/// dedicated one when they all fold into the loop.
pub(crate) trait Lanes: PartialEq + fmt::Debug + Sized {
    /// Whether write conflicts name their lane (the `(lane N)` suffix).
    const BATCHED: bool;
    /// The widest signal this storage lays out.
    const MAX_WIDTH: u32;
    /// An all-zero `width`-bit signal over `lanes` lanes.
    fn zero(width: u32, lanes: u32) -> Self;
    /// A cell's power-on state, each value in every lane.
    fn splat(state: CellState, lanes: u32) -> Vec<Self>;
    /// Zeroes every lane in place, reporting whether any lane changed.
    fn clear(&mut self) -> bool;
    /// [`CellKind::eval_into`] / [`CellKind::eval_lanes`].
    fn eval(kind: &CellKind, inputs: &[&Self], state: &[Self], outs: &mut [Self]);
    /// [`CellKind::tick`] / [`CellKind::tick_lanes`].
    fn tick(kind: &CellKind, inputs: &[&Self], state: &mut [Self]);
    /// Copies `src` in, reporting whether any lane changed.
    fn copy_changed(&mut self, src: &Self) -> bool;
    /// Copies lane `64 * word + i` of `src` where bit `i` of `mask` is set.
    fn copy_masked_word(&mut self, src: &Self, word: usize, mask: u64);
    /// A 1-bit signal as a lane plane: bit `l % 64` of word `l / 64`.
    fn plane(&self) -> &[u64];
}

impl Lanes for Value {
    const BATCHED: bool = false;
    const MAX_WIDTH: u32 = u32::MAX;
    fn zero(width: u32, _lanes: u32) -> Self {
        Value::zero(width)
    }
    fn splat(state: CellState, _lanes: u32) -> Vec<Self> {
        state
    }
    #[inline(always)]
    fn clear(&mut self) -> bool {
        let changed = !self.is_zero();
        self.set_zero();
        changed
    }
    #[inline(always)]
    fn eval(kind: &CellKind, inputs: &[&Self], state: &[Self], outs: &mut [Self]) {
        kind.eval_into(inputs, state, outs);
    }
    #[inline(always)]
    fn tick(kind: &CellKind, inputs: &[&Self], state: &mut [Self]) {
        kind.tick(inputs, state);
    }
    #[inline(always)]
    fn copy_changed(&mut self, src: &Self) -> bool {
        let changed = *self != *src;
        if changed {
            self.clone_from(src);
        }
        changed
    }
    #[inline(always)]
    fn copy_masked_word(&mut self, src: &Self, _word: usize, mask: u64) {
        if mask & 1 != 0 {
            self.clone_from(src);
        }
    }
    #[inline(always)]
    fn plane(&self) -> &[u64] {
        self.limbs()
    }
}

impl Lanes for LaneBuf {
    const BATCHED: bool = true;
    const MAX_WIDTH: u32 = 64;
    fn zero(width: u32, lanes: u32) -> Self {
        LaneBuf::zero(width, lanes)
    }
    fn splat(state: CellState, lanes: u32) -> Vec<Self> {
        let splat = |v: &Value| {
            let mut b = LaneBuf::zero(v.width(), lanes);
            b.broadcast(v.to_u64());
            b
        };
        state.iter().map(splat).collect()
    }
    #[inline(always)]
    fn clear(&mut self) -> bool {
        let changed = self.words().iter().any(|&w| w != 0);
        self.fill_zero();
        changed
    }
    #[inline(always)]
    fn eval(kind: &CellKind, inputs: &[&Self], state: &[Self], outs: &mut [Self]) {
        kind.eval_lanes(inputs, state, outs);
    }
    #[inline(always)]
    fn tick(kind: &CellKind, inputs: &[&Self], state: &mut [Self]) {
        kind.tick_lanes(inputs, state);
    }
    #[inline(always)]
    fn copy_changed(&mut self, src: &Self) -> bool {
        lanes::copy_changed(self, src)
    }
    #[inline(always)]
    fn copy_masked_word(&mut self, src: &Self, word: usize, mask: u64) {
        lanes::copy_masked_word(self, src, word, mask);
    }
    #[inline(always)]
    fn plane(&self) -> &[u64] {
        self.words()
    }
}

/// A recorded write conflict: the signal, the first two assignments active
/// in its lowest conflicted lane, and that lane for batched runs.
#[derive(Debug, Clone, Copy)]
struct Conflict {
    sig: u32,
    a: u32,
    b: u32,
    lane: Option<u32>,
}

/// Lane `lane`'s bit of a plane.
fn lane_bit(plane: &[u64], lane: u32) -> bool {
    (plane[lane as usize / 64] >> (lane % 64)) & 1 != 0
}

/// Copies `values[src]` into `values[dst]`, returning whether it changed.
#[inline(always)]
fn copy_signal<S: Lanes>(values: &mut [S], src: usize, dst: usize) -> bool {
    debug_assert_ne!(src, dst, "self-assignment is a comb loop");
    if src < dst {
        let (a, b) = values.split_at_mut(dst);
        b[0].copy_changed(&a[src])
    } else {
        let (a, b) = values.split_at_mut(src);
        a[dst].copy_changed(&b[0])
    }
}

/// Swaps `src` into `dst` if they differ, returning whether they did.
#[inline(always)]
fn swap_changed<S: PartialEq>(dst: &mut S, src: &mut S) -> bool {
    let changed = *dst != *src;
    if changed {
        std::mem::swap(dst, src);
    }
    changed
}

/// Cell `c`'s input values in pin order (the first `n` of the array), for
/// the kernels' borrowed-input calls.
#[inline(always)]
fn cell_inputs<'a, S>(
    flat: &FlatGraph,
    values: &'a [S],
    dummy: &'a S,
    c: usize,
) -> ([&'a S; CellKind::MAX_INPUT_PINS], usize) {
    let pins = flat.cell_pins(c);
    let mut inputs = [dummy; CellKind::MAX_INPUT_PINS];
    for (k, &s) in pins.iter().enumerate() {
        inputs[k] = &values[s as usize];
    }
    (inputs, pins.len())
}

/// One settle/tick engine over `S` lane storage. See the module docs.
#[derive(Debug)]
pub(crate) struct Engine<'n, S> {
    pub netlist: &'n Netlist,
    pub flat: Arc<FlatGraph>,
    pub nlanes: u32,
    pub values: Vec<S>,
    /// Per-signal driven planes, one after another.
    driven: Vec<u64>,
    /// Signals needing re-evaluation in the next settle pass.
    dirty: Vec<bool>,
    /// Pre-sized per-cell output buffers, indexed like `flat.cout_sigs`.
    out_buf: Vec<S>,
    /// Settle-pass stamp per cell: cell already evaluated this pass.
    cell_stamp: Vec<u64>,
    pass: u64,
    states: Vec<Vec<S>>,
    /// The assign resolver's candidates, one per `flat.assign_widths` entry
    /// (adoption swaps one with the old value, of the same shape).
    cand: Vec<S>,
    /// The all-lanes-set plane (tail-masked).
    pub ones: Vec<u64>,
    /// Placeholder borrow target for the fixed-size input-pin buffer.
    dummy: S,
    /// Conflicts recorded during a settle.
    conflicts: Vec<Conflict>,
    /// Profiling counters; `None` (the default) keeps the hot paths at
    /// a single untaken branch.
    pub prof: Option<Box<ProfState>>,
    force_full: bool,
    /// Clock edges so far.
    pub cycle: u64,
    settled: bool,
}

impl<'n, S: Lanes> Engine<'n, S> {
    /// Elaborates `netlist` (through its cached [`FlatGraph`]) over
    /// `nlanes` lanes of `S`.
    pub fn new(netlist: &'n Netlist, nlanes: u32) -> Result<Self, SimError> {
        let flat = netlist.flat_graph()?;
        if let Some(s) = netlist.signals().iter().find(|s| s.width > S::MAX_WIDTH) {
            return Err(SimError::BatchWidth {
                signal: s.name.clone(),
                width: s.width,
            });
        }
        assert!(nlanes > 0, "batch needs at least one lane");
        let pw = lanes::plane_words(nlanes);
        let n_sigs = flat.n_sigs();
        let zero = |w: u32| S::zero(w, nlanes);
        let values = netlist.signals().iter().map(|s| zero(s.width)).collect();
        let out_buf = flat.out_widths.iter().map(|&w| zero(w)).collect();
        let states = netlist
            .cells()
            .iter()
            .map(|c| S::splat(c.kind.initial_state(), nlanes))
            .collect();
        let cand = flat.assign_widths.iter().map(|&w| zero(w)).collect();
        let mut ones = vec![u64::MAX; pw];
        lanes::mask_plane_tail(&mut ones, nlanes);
        Ok(Engine {
            netlist,
            nlanes,
            values,
            driven: vec![0; n_sigs * pw],
            dirty: vec![true; n_sigs],
            out_buf,
            cell_stamp: vec![0; netlist.cells().len()],
            pass: 0,
            states,
            cand,
            ones,
            dummy: zero(1),
            conflicts: Vec::new(),
            prof: None,
            force_full: false,
            cycle: 0,
            settled: false,
            flat,
        })
    }

    /// The id of the signal named `name`; panics if there is none.
    pub fn signal_named(&self, name: &str) -> SignalId {
        self.netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"))
    }

    /// Pokes `sig` through `write`, which reports whether it changed the
    /// value: dirty on a change, the settled state invalidated either way.
    /// Panics unless the poked value's `width` is the signal's.
    pub fn poke(&mut self, sig: SignalId, width: u32, write: impl FnOnce(&mut S) -> bool) {
        let s = &self.netlist.signals()[sig.index()];
        assert_eq!(width, s.width, "poke of {} with wrong width", s.name);
        if write(&mut self.values[sig.index()]) {
            self.dirty[sig.index()] = true;
        }
        self.settled = false;
    }

    /// Whether `sig` was driven in `lane` during the last settle.
    pub fn was_driven(&self, sig: SignalId, lane: u32) -> bool {
        assert!(lane < self.nlanes, "lane {lane} out of range");
        lane_bit(&self.driven[sig.index() * self.plane_words()..], lane)
    }

    pub fn enable_profile(&mut self) {
        let plane_words = if S::BATCHED { self.plane_words() } else { 0 };
        let cells = self.netlist.cells().len();
        self.prof = Some(Box::new(ProfState::new(cells, plane_words)));
    }

    /// Words per 1-bit lane plane: a constant for one-lane storage, so the
    /// scalar engine's plane loops compile to straight-line code.
    #[inline]
    fn plane_words(&self) -> usize {
        if S::BATCHED {
            lanes::plane_words(self.nlanes)
        } else {
            1
        }
    }

    pub fn set_force_full_settle(&mut self, on: bool) {
        self.force_full = on;
        self.settled = false;
    }

    pub fn settle(&mut self) -> Result<(), SimError> {
        self.pass += 1;
        if self.force_full {
            self.dirty.fill(true);
        }
        self.conflicts.clear();
        for idx in 0..self.flat.order.len() {
            let si = self.flat.order[idx] as usize;
            if !self.dirty[si] {
                continue;
            }
            self.dirty[si] = false;
            let changed = match self.flat.drivers[si] {
                Driver::External => {
                    // Poke only marks dirty on an actual change, so the
                    // value is (conservatively) treated as changed.
                    let pw = self.plane_words();
                    let d = &mut self.driven[si * pw..(si + 1) * pw];
                    if self.netlist.signals()[si].dir == PortDir::Input {
                        d.copy_from_slice(&self.ones);
                    } else {
                        d.fill(0);
                    }
                    true
                }
                Driver::Cell { cell, pin } => self.settle_cell(si, cell as usize, pin as usize),
                Driver::Assigns { start, len, class } => {
                    self.resolve(si, start as usize..(start + len) as usize, class as usize)
                }
            };
            if changed {
                for &t in self.flat.deps(si) {
                    self.dirty[t as usize] = true;
                }
            }
        }
        if let Some(c) = self.conflicts.iter().min_by_key(|c| c.sig) {
            return Err(SimError::WriteConflict {
                signal: self.netlist.signals()[c.sig as usize].name.clone(),
                cycle: self.cycle,
                first: self.netlist.describe_assign(c.a as usize),
                second: self.netlist.describe_assign(c.b as usize),
                lane: c.lane,
            });
        }
        if let Some(p) = &mut self.prof {
            p.settles += 1;
        }
        self.settled = true;
        Ok(())
    }

    /// Settles signal `si`, driven by output `pin` of cell `c`; returns
    /// whether its value changed.
    #[inline(always)]
    fn settle_cell(&mut self, si: usize, c: usize, pin: usize) -> bool {
        let (netlist, flat, pw) = (self.netlist, &*self.flat, self.plane_words());
        let kind = &netlist.cells()[c].kind;
        let first = self.cell_stamp[c] != self.pass;
        if first {
            self.cell_stamp[c] = self.pass;
            if let Some(p) = &mut self.prof {
                p.cell_evals[c] += 1;
            }
        }
        let changed = if let CellKind::Reg { .. } = kind {
            // Register outputs are pure state copies: adopt straight from
            // the state (registers dominate most netlists).
            self.values[si].copy_changed(&self.states[c][0])
        } else {
            let o0 = flat.cout_start[c] as usize;
            // State-driven pins reuse this pass's evaluation; comb-dependent
            // pins re-evaluate, because the cell may have been evaluated
            // (for a state-driven sibling pin) before this pin's inputs
            // settled.
            if first || flat.comb_out[o0 + pin] {
                let (inputs, n) = cell_inputs(flat, &self.values, &self.dummy, c);
                let outs = &mut self.out_buf[o0..flat.cout_start[c + 1] as usize];
                S::eval(kind, &inputs[..n], &self.states[c], outs);
            }
            // Adopt by O(1) swap: the next eval overwrites the stale value
            // (each signal is visited once per settle).
            swap_changed(&mut self.values[si], &mut self.out_buf[o0 + pin])
        };
        // Cell outputs are driven in every lane from their first settle on,
        // so one word tells whether the plane is already set.
        if self.driven[si * pw] != self.ones[0] {
            self.driven[si * pw..(si + 1) * pw].copy_from_slice(&self.ones);
        }
        changed
    }

    /// Resolves the guarded assignments `flat.assign_lists[run]` into
    /// signal `si`, whose candidate buffer is `cand[class]`; returns whether
    /// its value changed.
    #[inline(always)]
    fn resolve(&mut self, si: usize, run: Range<usize>, class: usize) -> bool {
        let (netlist, flat, pw) = (self.netlist, &*self.flat, self.plane_words());
        if let Some(p) = &mut self.prof {
            p.assign_resolves += 1;
        }
        let assigns = &flat.assign_lists[run];
        let (values, ones) = (&self.values, &self.ones[..]);
        let guard = |ai: u32| match netlist.assigns()[ai as usize].guard {
            None => ones,
            Some(g) => values[g.index()].plane(),
        };
        let src = |ai: u32| netlist.assigns()[ai as usize].src.index();
        // A lone unguarded assignment is a wire: every lane takes its source.
        if let [ai] = *assigns {
            if netlist.assigns()[ai as usize].guard.is_none() {
                self.driven[si * pw..(si + 1) * pw].copy_from_slice(ones);
                return copy_signal(&mut self.values, src(ai), si);
            }
        }
        // Per plane word (64 lanes): the driven plane (some assignment
        // active), the conflict plane (two active), and whether one
        // assignment alone drives every lane.
        let (mut first, mut sole, mut conflict_lane) = (None, true, None);
        for (w, &all) in ones[..pw].iter().enumerate() {
            let (mut drv, mut confl) = (0, 0);
            for &ai in assigns {
                let active = guard(ai)[w];
                if active != 0 {
                    confl |= active & drv;
                    drv |= active;
                    sole &= *first.get_or_insert(ai) == ai;
                }
            }
            if confl != 0 {
                conflict_lane.get_or_insert(w as u32 * 64 + confl.trailing_zeros());
            }
            sole &= drv == all;
            self.driven[si * pw + w] = drv;
        }
        if let Some(lane) = conflict_lane {
            // Record and keep settling; the winner is chosen after the pass,
            // and the signal stays dirty so a retried settle reports it again.
            let mut active = assigns.iter().filter(|&&ai| lane_bit(guard(ai), lane));
            let (a, b) = (active.next(), active.next());
            self.conflicts.push(Conflict {
                sig: si as u32,
                a: *a.expect("a conflict lane has two active assignments"),
                b: *b.expect("a conflict lane has two active assignments"),
                lane: S::BATCHED.then_some(lane),
            });
            self.dirty[si] = true;
        }
        match first {
            // Undriven in every lane: two-state zero.
            None => self.values[si].clear(),
            Some(ai) if sole => copy_signal(&mut self.values, src(ai), si),
            // Lanes differ: build the candidate. Undriven lanes stay zero,
            // lanes with one active assignment take its source, and
            // conflicted lanes keep their old value.
            Some(_) => {
                let cb = &mut self.cand[class];
                cb.clear();
                for w in 0..pw {
                    let (mut drv, mut confl) = (0, 0);
                    for &ai in assigns {
                        let active = guard(ai)[w];
                        confl |= active & drv;
                        drv |= active;
                        cb.copy_masked_word(&values[src(ai)], w, active);
                    }
                    cb.copy_masked_word(&values[si], w, confl);
                }
                // The candidate is rebuilt on every visit, so adoption can
                // swap instead of copy.
                swap_changed(&mut self.values[si], cb)
            }
        }
    }

    pub fn tick(&mut self) -> Result<(), SimError> {
        if !self.settled {
            self.settle()?;
        }
        let flat = &*self.flat;
        for &ci in &flat.seq_cells {
            let c = ci as usize;
            let (inputs, n) = cell_inputs(flat, &self.values, &self.dummy, c);
            let kind = &self.netlist.cells()[c].kind;
            S::tick(kind, &inputs[..n], &mut self.states[c]);
            // New state may surface on the cell's outputs next settle.
            for &sig in
                &flat.cout_sigs[flat.cout_start[c] as usize..flat.cout_start[c + 1] as usize]
            {
                self.dirty[sig as usize] = true;
            }
        }
        if let Some(p) = &mut self.prof {
            p.ticks += 1;
        }
        self.cycle += 1;
        self.settled = false;
        Ok(())
    }

    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.settle()?;
            self.tick()?;
        }
        Ok(())
    }
}

/// The verbs every engine face shares, forwarded to its [`Engine`].
macro_rules! engine_verbs {
    ($face:ident) => {
        impl<'n> $face<'n> {
            /// Turns on profiling: settle, tick and per-cell-kind eval counts
            /// and, for batched runs, which lanes were ever poked. Counters
            /// are allocated here, so profiling allocates nothing per cycle;
            /// when never called, the simulation paths are untouched.
            pub fn enable_profile(&mut self) {
                self.0.enable_profile();
            }

            /// Snapshot of the profiling counters; `None` until
            /// `enable_profile` is called.
            pub fn profile(&self) -> Option<$crate::ProfileReport> {
                let (p, e) = (self.0.prof.as_ref()?, &self.0);
                Some($crate::ProfileReport::build(p, e.netlist, e.nlanes))
            }

            /// The current cycle count (number of clock edges so far).
            pub fn cycle(&self) -> u64 {
                self.0.cycle
            }

            /// The netlist being simulated.
            pub fn netlist(&self) -> &$crate::Netlist {
                self.0.netlist
            }

            /// Disables (or re-enables) change propagation: with
            /// `on == true` every settle re-evaluates every signal, exactly
            /// like the pre-optimization simulator. Useful as a debugging
            /// cross-check; both modes are observably identical.
            pub fn set_force_full_settle(&mut self, on: bool) {
                self.0.set_force_full_settle(on);
            }

            /// Evaluates combinational logic for the current cycle in every
            /// lane, re-evaluating only signals whose inputs changed (unless
            /// force-full settling is on).
            ///
            /// # Errors
            ///
            /// [`SimError::WriteConflict`](crate::SimError::WriteConflict)
            /// if two active assignments drive one signal in one lane
            /// (batched runs set its `lane`). Conflicted lanes keep their
            /// old value, read as driven and stay dirty, so a retried settle
            /// reports the conflict until an input changes; all else still
            /// settles. The lowest signal id wins, then the lowest lane.
            pub fn settle(&mut self) -> Result<(), $crate::SimError> {
                self.0.settle()
            }

            /// Advances the clock: every sequential cell captures its
            /// settled inputs, in every lane. Settles first if needed.
            ///
            /// # Errors
            ///
            /// Propagates settle errors.
            pub fn tick(&mut self) -> Result<(), $crate::SimError> {
                self.0.tick()
            }

            /// Settle then tick: one full clock cycle.
            ///
            /// # Errors
            ///
            /// Propagates settle errors.
            pub fn step(&mut self) -> Result<(), $crate::SimError> {
                self.0.run(1)
            }

            /// Runs `n` full cycles with the currently poked inputs.
            ///
            /// # Errors
            ///
            /// Propagates settle errors.
            pub fn run(&mut self, n: u64) -> Result<(), $crate::SimError> {
                self.0.run(n)
            }
        }
    };
}
pub(crate) use engine_verbs;
