//! The simulation engine: one settle/tick loop over one lane storage.
//!
//! Every signal, cell output buffer, cell state and assign candidate is a
//! region of a `u64` [`Arena`], laid out per [`fil_bits::lanes`]: 1-bit
//! signals bit-sliced 64 lanes per word, 2..=64 bits a word per lane,
//! wider signals `ceil(w/64)` contiguous limbs per lane. One kernel set
//! ([`CellKind::eval`], [`CellKind::tick`]) runs on it at any width.
//! [`Sim`](crate::Sim) is the engine at one lane, where every region is
//! exactly a `Value`'s limbs; [`BatchSim`](crate::BatchSim) runs B lanes,
//! paying the traversal bookkeeping once per signal whatever the lane
//! count. The `ONE` parameter only fixes the lane count at compile time,
//! so the one-lane engine's plane loops fold to straight-line code.
//!
//! Settling walks the shared [`FlatGraph`]'s topological order over the
//! pre-sized arenas (no per-cycle allocation at any width) and propagates
//! change: only dirty signals are re-evaluated, and an unchanged result
//! does not dirty its dependents. `set_force_full_settle` re-evaluates
//! everything, as a cross-check with identical results.
//!
//! Guarded assignments resolve over 1-bit lane *planes* (one lane is a
//! one-word plane). A write conflict is *recorded*, not fatal: conflicted
//! lanes keep their old value, everything else settles, and the lowest
//! conflicted signal id (then lane) is reported, so lane `l` of a batched
//! run matches a scalar run of lane `l`'s stimulus, errors included.

use crate::cell::CellKind;
use crate::graph::{Driver, FlatGraph};
use crate::netlist::{id32, Netlist, PortDir, SignalId};
use crate::profile::ProfState;
use crate::sim::SimError;
use fil_bits::lanes;
use std::ops::Range;
use std::sync::Arc;

/// The most `u64` words of storage one simulator may hold (signals, cell
/// outputs and state, assign candidates and driven planes together):
/// 2^24 words, 128 MiB. The largest in-repo design, the PipelineC AES
/// netlist, takes about 14 900 words per lane (5 709 of them signal
/// values), 1.9M at 128 lanes, so the budget leaves 8x headroom; past it
/// construction fails before allocating.
pub const MAX_WORDS: u64 = 1 << 24;

/// Consecutive regions of one word buffer: region `i` is `span[i]`, an
/// `(offset, length)` pair, so finding one costs one load.
#[derive(Debug)]
pub(crate) struct Arena {
    words: Vec<u64>,
    /// `u32` spans: the budget keeps every arena far below 2^32 words.
    span: Vec<(u32, u32)>,
}

impl Arena {
    /// Zeroed regions of the given sizes, in order.
    fn new(sizes: impl ExactSizeIterator<Item = usize>) -> Self {
        let mut end = 0;
        let span: Vec<(u32, u32)> = sizes
            .map(|n| {
                let at = end;
                end += n;
                let fit = |x: usize| u32::try_from(x).expect("within MAX_WORDS");
                (fit(at), fit(n))
            })
            .collect();
        Arena {
            words: vec![0; end],
            span,
        }
    }

    #[inline(always)]
    fn range(&self, i: usize) -> Range<usize> {
        let (at, n) = self.span[i];
        at as usize..at as usize + n as usize
    }

    #[inline(always)]
    pub fn get(&self, i: usize) -> &[u64] {
        &self.words[self.range(i)]
    }

    #[inline(always)]
    pub fn get_mut(&mut self, i: usize) -> &mut [u64] {
        let r = self.range(i);
        &mut self.words[r]
    }

    /// Word `w` of region `i`.
    #[inline(always)]
    fn word(&self, i: usize, w: usize) -> u64 {
        self.words[self.span[i].0 as usize + w]
    }

    /// Regions `i..j` as one slice.
    #[inline(always)]
    fn span_mut(&mut self, i: usize, j: usize) -> &mut [u64] {
        let r = self.range(i).start..self.range(j - 1).end;
        &mut self.words[r]
    }

    /// Copies region `src` into the same-sized region `dst`, returning
    /// whether it changed.
    #[inline(always)]
    fn copy(&mut self, src: usize, dst: usize) -> bool {
        debug_assert_ne!(src, dst, "self-assignment is a comb loop");
        let (s, d) = (self.range(src), self.range(dst));
        if s.start < d.start {
            let (a, b) = self.words.split_at_mut(d.start);
            lanes::copy_changed(&mut b[..d.len()], &a[s])
        } else {
            let (a, b) = self.words.split_at_mut(s.start);
            lanes::copy_changed(&mut a[d], &b[..s.len()])
        }
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

/// Cell `c`'s input regions in pin order (the first `n` of the array).
#[inline(always)]
fn cell_inputs<'a>(
    flat: &FlatGraph,
    values: &'a Arena,
    c: usize,
) -> ([&'a [u64]; CellKind::MAX_INPUT_PINS], usize) {
    let pins = flat.cell_pins(c);
    let mut inputs: [&[u64]; CellKind::MAX_INPUT_PINS] = [&[]; CellKind::MAX_INPUT_PINS];
    for (k, &s) in pins.iter().enumerate() {
        inputs[k] = values.get(s as usize);
    }
    (inputs, pins.len())
}

/// One settle/tick engine over one lane storage, at one lane when `ONE`.
/// See the module docs.
#[derive(Debug)]
pub(crate) struct Engine<'n, const ONE: bool> {
    pub netlist: &'n Netlist,
    pub flat: Arc<FlatGraph>,
    pub nlanes: u32,
    /// One region per signal.
    pub values: Arena,
    /// Per-signal driven planes, one after another.
    driven: Vec<u64>,
    /// Signals needing re-evaluation in the next settle pass.
    dirty: Vec<bool>,
    /// One region per cell output pin, indexed like `flat.cout_sigs`.
    outs: Arena,
    /// Settle-pass stamp per cell: cell already evaluated this pass.
    cell_stamp: Vec<u64>,
    pass: u64,
    /// One region per cell: its state slots, one after another.
    states: Arena,
    /// The assign resolver's candidates, one per `flat.assign_widths`
    /// entry.
    cand: Arena,
    /// The all-lanes-set plane (tail-masked).
    pub ones: Vec<u64>,
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

impl<'n, const ONE: bool> Engine<'n, ONE> {
    /// Elaborates `netlist` (through its cached [`FlatGraph`]) over
    /// `nlanes` lanes, after checking the storage against [`MAX_WORDS`].
    pub fn new(netlist: &'n Netlist, nlanes: u32) -> Result<Self, SimError> {
        let flat = netlist.flat_graph()?;
        assert!(nlanes > 0, "batch needs at least one lane");
        assert!(!ONE || nlanes == 1, "a one-lane engine has one lane");
        let n_sigs = flat.n_sigs();
        let words = |w: u32| lanes::words(w, nlanes);
        let pw = lanes::plane_words(nlanes);
        let sig_words = || flat.widths.iter().map(|&w| words(w));
        let out_words = || (flat.cout_sigs.iter()).map(|&s| words(flat.widths[s as usize]));
        let cand_words = || flat.assign_widths.iter().map(|&w| words(w));
        let state_words = || (netlist.cells().iter()).map(|c| c.kind.state_words(nlanes));
        let total = (sig_words().chain(out_words()).chain(cand_words()))
            .map(|n| n as u64)
            .chain(state_words())
            .fold((n_sigs * pw) as u64, u64::saturating_add);
        if total > MAX_WORDS {
            return Err(SimError::TooLarge {
                words: total,
                lanes: nlanes,
                budget: MAX_WORDS,
            });
        }
        let in_budget = |n: u64| usize::try_from(n).expect("within MAX_WORDS");
        let mut states = Arena::new(state_words().map(in_budget));
        for (c, cell) in netlist.cells().iter().enumerate() {
            cell.kind.init_state(nlanes, states.get_mut(c));
        }
        let mut ones = vec![u64::MAX; pw];
        lanes::mask_plane_tail(&mut ones, nlanes);
        Ok(Engine {
            netlist,
            nlanes,
            values: Arena::new(sig_words()),
            driven: vec![0; n_sigs * pw],
            dirty: vec![true; n_sigs],
            outs: Arena::new(out_words()),
            cell_stamp: vec![0; netlist.cells().len()],
            pass: 0,
            states,
            cand: Arena::new(cand_words()),
            ones,
            conflicts: Vec::new(),
            prof: None,
            force_full: false,
            cycle: 0,
            settled: false,
            flat,
        })
    }

    /// The lane count: a constant for the one-lane engine, so its kernels
    /// compile to straight-line code.
    #[inline(always)]
    fn lanes(&self) -> u32 {
        if ONE {
            1
        } else {
            self.nlanes
        }
    }

    /// Words per 1-bit lane plane.
    #[inline(always)]
    fn plane_words(&self) -> usize {
        lanes::plane_words(self.lanes())
    }

    /// The id of the signal named `name`; panics if there is none.
    pub fn signal_named(&self, name: &str) -> SignalId {
        self.netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"))
    }

    /// Pokes `sig` through `write`, which gets the signal's width and
    /// region and reports whether it changed the value: dirty on a change,
    /// the settled state invalidated either way. Panics unless the poked
    /// value's `width` is the signal's.
    #[inline(always)]
    pub fn poke(&mut self, sig: SignalId, width: u32, write: impl FnOnce(&mut [u64]) -> bool) {
        if width != self.flat.widths[sig.index()] {
            let s = &self.netlist.signals()[sig.index()];
            panic!(
                "poke of {} with wrong width: {width} vs {}",
                s.name, s.width
            );
        }
        if write(self.values.get_mut(sig.index())) {
            self.dirty[sig.index()] = true;
        }
        self.settled = false;
    }

    /// Lane `lane` of `sig`'s settled value.
    #[inline(always)]
    pub fn peek(&self, sig: SignalId, lane: u32) -> fil_bits::Value {
        assert!(lane < self.nlanes, "lane {lane} out of range");
        let width = self.flat.widths[sig.index()];
        lanes::get(width, self.values.get(sig.index()), lane)
    }

    /// Whether `sig` was driven in `lane` during the last settle.
    pub fn was_driven(&self, sig: SignalId, lane: u32) -> bool {
        assert!(lane < self.nlanes, "lane {lane} out of range");
        lanes::bit(
            &self.driven[sig.index() * self.plane_words()..],
            lane as usize,
        )
    }

    pub fn enable_profile(&mut self) {
        let plane_words = if ONE { 0 } else { self.plane_words() };
        let cells = self.netlist.cells().len();
        self.prof = Some(Box::new(ProfState::new(cells, plane_words)));
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
        let (netlist, flat, pw, n) = (self.netlist, &*self.flat, self.plane_words(), self.lanes());
        let kind = &netlist.cells()[c].kind;
        let first = self.cell_stamp[c] != self.pass;
        if first {
            self.cell_stamp[c] = self.pass;
            if let Some(p) = &mut self.prof {
                p.cell_evals[c] += 1;
            }
        }
        // Register and multiplier outputs are pure state copies: adopt
        // straight from the state (registers, whose one slot is their
        // whole state, dominate most netlists).
        let changed = if let CellKind::Reg { .. } = kind {
            lanes::copy_changed(self.values.get_mut(si), self.states.get(c))
        } else if let Some(r) = kind.state_output(n) {
            lanes::copy_changed(self.values.get_mut(si), &self.states.get(c)[r])
        } else {
            let o0 = flat.cout_start[c] as usize;
            // State-driven pins reuse this pass's evaluation; comb-dependent
            // pins re-evaluate, because the cell may have been evaluated
            // (for a state-driven sibling pin) before this pin's inputs
            // settled.
            if first || flat.comb_out[o0 + pin] {
                let (inputs, k) = cell_inputs(flat, &self.values, c);
                let outs = self.outs.span_mut(o0, flat.cout_start[c + 1] as usize);
                kind.eval(n, &inputs[..k], self.states.get(c), outs);
            }
            lanes::copy_changed(self.values.get_mut(si), self.outs.get(o0 + pin))
        };
        // Cell outputs are driven in every lane from their first settle on,
        // so one word tells whether the plane is already set.
        if self.driven[si * pw] != self.ones[0] {
            self.driven[si * pw..(si + 1) * pw].copy_from_slice(&self.ones);
        }
        changed
    }

    /// Resolves the guarded assignments `flat.assign_lists[run]` into
    /// signal `si`, whose candidate region is `cand[class]`; returns
    /// whether its value changed.
    #[inline(always)]
    fn resolve(&mut self, si: usize, run: Range<usize>, class: usize) -> bool {
        let (netlist, flat, pw, n) = (self.netlist, &*self.flat, self.plane_words(), self.lanes());
        if let Some(p) = &mut self.prof {
            p.assign_resolves += 1;
        }
        let assigns = &flat.assign_lists[run];
        let (values, ones) = (&self.values, &self.ones[..]);
        let guard = |ai: u32| match netlist.assigns()[ai as usize].guard {
            None => ones,
            Some(g) => values.get(g.index()),
        };
        // Word `w` of assignment `ai`'s guard plane.
        let active = |ai: u32, w: usize| match netlist.assigns()[ai as usize].guard {
            None => ones[w],
            Some(g) => values.word(g.index(), w),
        };
        let src = |ai: u32| netlist.assigns()[ai as usize].src.index();
        // A lone unguarded assignment is a wire: every lane takes its source.
        if let [ai] = *assigns {
            if netlist.assigns()[ai as usize].guard.is_none() {
                self.driven[si * pw..(si + 1) * pw].copy_from_slice(ones);
                return self.values.copy(src(ai), si);
            }
        }
        // Per plane word (64 lanes): the driven plane (some assignment
        // active), the conflict plane (two active), and whether one
        // assignment alone drives every lane.
        let (mut first, mut sole, mut conflict_lane) = (None, true, None);
        for (w, &all) in ones[..pw].iter().enumerate() {
            let (mut drv, mut confl) = (0, 0);
            for &ai in assigns {
                let active = active(ai, w);
                if active != 0 {
                    confl |= active & drv;
                    drv |= active;
                    sole &= *first.get_or_insert(ai) == ai;
                }
            }
            if confl != 0 {
                conflict_lane.get_or_insert(id32(w * 64) + confl.trailing_zeros());
            }
            sole &= drv == all;
            self.driven[si * pw + w] = drv;
        }
        if let Some(lane) = conflict_lane {
            // Record and keep settling; the winner is chosen after the pass,
            // and the signal stays dirty so a retried settle reports it again.
            let mut active = assigns
                .iter()
                .filter(|&&ai| lanes::bit(guard(ai), lane as usize));
            let (a, b) = (active.next(), active.next());
            self.conflicts.push(Conflict {
                sig: id32(si),
                a: *a.expect("a conflict lane has two active assignments"),
                b: *b.expect("a conflict lane has two active assignments"),
                lane: (!ONE).then_some(lane),
            });
            self.dirty[si] = true;
        }
        match first {
            // Undriven in every lane: two-state zero.
            None => lanes::clear(self.values.get_mut(si)),
            Some(ai) if sole => self.values.copy(src(ai), si),
            // Lanes differ: build the candidate. Undriven lanes stay zero,
            // lanes with one active assignment take its source, and
            // conflicted lanes keep their old value.
            Some(_) => {
                let width = flat.widths[si];
                let cb = self.cand.get_mut(class);
                cb.fill(0);
                for w in 0..pw {
                    let (mut drv, mut confl) = (0, 0);
                    for &ai in assigns {
                        let active = active(ai, w);
                        confl |= active & drv;
                        drv |= active;
                        lanes::copy_masked_word(n, width, cb, values.get(src(ai)), w, active);
                    }
                    lanes::copy_masked_word(n, width, cb, values.get(si), w, confl);
                }
                lanes::copy_changed(self.values.get_mut(si), self.cand.get(class))
            }
        }
    }

    pub fn tick(&mut self) -> Result<(), SimError> {
        if !self.settled {
            self.settle()?;
        }
        let (flat, n) = (&*self.flat, self.lanes());
        for &ci in &flat.seq_cells {
            let c = ci as usize;
            let (inputs, k) = cell_inputs(flat, &self.values, c);
            let kind = &self.netlist.cells()[c].kind;
            kind.tick(n, &inputs[..k], self.states.get_mut(c));
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
