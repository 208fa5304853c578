//! Batched simulation: B independent stimulus lanes per graph traversal.
//!
//! [`BatchSim`] drives the same netlist as [`Sim`](crate::Sim), but every
//! signal holds a [`LaneBuf`] — an array of B independent lane values —
//! instead of a single [`Value`]. One settle pass evaluates each cell once
//! for all B lanes: 1-bit control signals pack 64 lanes per machine word
//! (bit-sliced planes), wider signals use a word per lane. Traversal
//! bookkeeping (dirty tracking, driver dispatch, dependency propagation)
//! is paid once per signal rather than once per signal *per trace*, which
//! is where the >10× throughput over B sequential runs comes from.
//!
//! Lane semantics are exactly scalar semantics: lane `l` of a batched run
//! is bit-identical to a scalar run driven with lane `l`'s stimulus —
//! including [`BatchSim::was_driven`] flags and write-conflict errors
//! (reported per lane). The determinism suite in `crates/designs`
//! cross-checks this lane by lane.
//!
//! Batched simulation supports signals up to 64 bits wide; wider designs
//! are rejected at construction with [`SimError::BatchWidth`].
//!
//! # Examples
//!
//! ```
//! use fil_bits::Value;
//! use rtl_sim::{BatchSim, CellKind, Netlist};
//!
//! let mut n = Netlist::new("adder");
//! let a = n.add_input("a", 8);
//! let b = n.add_input("b", 8);
//! let sum = n.add_signal("sum", 8);
//! n.add_cell("add0", CellKind::Add { width: 8 }, vec![a, b], vec![sum]);
//! n.mark_output(sum);
//!
//! // Four traces in lockstep: sum[l] = a[l] + b[l].
//! let mut sim = BatchSim::new(&n, 4)?;
//! for l in 0..4 {
//!     sim.poke(a, l, Value::from_u64(8, 10 * l as u64));
//!     sim.poke(b, l, Value::from_u64(8, l as u64));
//! }
//! sim.settle()?;
//! assert_eq!(sim.peek(sum, 3).to_u64(), 33);
//! # Ok::<(), rtl_sim::SimError>(())
//! ```

use crate::cell::CellKind;
use crate::graph::{Driver, FlatGraph};
use crate::netlist::{Netlist, PortDir, SignalId};
use crate::sim::{conflict_error, Conflict, SimError};
use fil_bits::{lanes, LaneBuf, Value};
use std::sync::Arc;

/// A recorded per-lane write conflict.
#[derive(Debug, Clone, Copy)]
struct LaneConflict {
    c: Conflict,
    lane: u32,
}

/// Index of the lowest lane with a conflict bit set in a plane.
fn first_set_lane(words: &[u64]) -> u32 {
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            return i as u32 * 64 + w.trailing_zeros();
        }
    }
    unreachable!("no set lane in a nonzero conflict plane")
}

/// A batched simulation: B independent traces over one borrowed
/// [`Netlist`], settled in lockstep. See the module docs.
pub struct BatchSim<'n> {
    netlist: &'n Netlist,
    pub(crate) flat: Arc<FlatGraph>,
    nlanes: u32,
    /// Words per 1-bit lane plane (`ceil(lanes / 64)`).
    pw: usize,
    values: Vec<LaneBuf>,
    /// Per-signal driven planes, `pw` words each, in one arena.
    driven: Vec<u64>,
    dirty: Vec<bool>,
    out_buf: Vec<LaneBuf>,
    cell_stamp: Vec<u64>,
    pass: u64,
    states: Vec<Vec<LaneBuf>>,
    /// Pre-sized candidate buffer per assignment-driven signal…
    cand: Vec<LaneBuf>,
    /// …located via this per-signal index (`u32::MAX` if cell/ext-driven).
    cand_of: Vec<u32>,
    /// Scratch planes for the sequential assign resolver.
    s_active: Vec<u64>,
    s_drv: Vec<u64>,
    s_confl: Vec<u64>,
    /// The all-lanes-set plane (tail-masked).
    ones: Vec<u64>,
    dummy: LaneBuf,
    conflicts: Vec<LaneConflict>,
    /// Profiling counters; `None` (the default) keeps the hot paths at
    /// a single untaken branch. See [`BatchSim::enable_profile`].
    prof: Option<Box<crate::profile::ProfState>>,
    force_full: bool,
    cycle: u64,
    settled: bool,
}

impl<'n> BatchSim<'n> {
    /// Elaborates a netlist for batched simulation with `nlanes`
    /// independent stimulus lanes.
    ///
    /// # Errors
    ///
    /// [`SimError::Netlist`] / [`SimError::CombLoop`] as for
    /// [`Sim::new`](crate::Sim::new), plus [`SimError::BatchWidth`] if any
    /// signal is wider than 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `nlanes == 0`.
    pub fn new(netlist: &'n Netlist, nlanes: u32) -> Result<Self, SimError> {
        let flat = netlist.flat_graph()?;
        for s in netlist.signals() {
            if s.width > 64 {
                return Err(SimError::BatchWidth {
                    signal: s.name.clone(),
                    width: s.width,
                });
            }
        }
        assert!(nlanes > 0, "batch needs at least one lane");
        let pw = lanes::plane_words(nlanes);
        let n_sigs = flat.n_sigs();
        let n_cells = netlist.cells().len();
        let values: Vec<LaneBuf> = netlist
            .signals()
            .iter()
            .map(|s| LaneBuf::zero(s.width, nlanes))
            .collect();
        let out_buf = flat
            .out_widths
            .iter()
            .map(|&w| LaneBuf::zero(w, nlanes))
            .collect();
        // Broadcast each cell's scalar power-on state across all lanes.
        let states = netlist
            .cells()
            .iter()
            .map(|c| {
                c.kind
                    .initial_state()
                    .iter()
                    .map(|v| {
                        let mut b = LaneBuf::zero(v.width(), nlanes);
                        b.broadcast(v.to_u64());
                        b
                    })
                    .collect()
            })
            .collect();
        let mut cand = Vec::new();
        let mut cand_of = vec![u32::MAX; n_sigs];
        for (si, d) in flat.drivers.iter().enumerate() {
            if matches!(d, Driver::Assigns { .. }) {
                cand_of[si] = cand.len() as u32;
                cand.push(LaneBuf::zero(netlist.signals()[si].width, nlanes));
            }
        }
        let mut ones = vec![u64::MAX; pw];
        lanes::mask_plane_tail(&mut ones, nlanes);
        Ok(BatchSim {
            netlist,
            flat,
            nlanes,
            pw,
            values,
            driven: vec![0; n_sigs * pw],
            dirty: vec![true; n_sigs],
            out_buf,
            cell_stamp: vec![0; n_cells],
            pass: 0,
            states,
            cand,
            cand_of,
            s_active: vec![0; pw],
            s_drv: vec![0; pw],
            s_confl: vec![0; pw],
            ones,
            dummy: LaneBuf::zero(1, nlanes),
            conflicts: Vec::new(),
            prof: None,
            force_full: false,
            cycle: 0,
            settled: false,
        })
    }

    /// The number of stimulus lanes.
    pub fn lanes(&self) -> u32 {
        self.nlanes
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Disables (or re-enables) change propagation, as
    /// [`Sim::set_force_full_settle`](crate::Sim::set_force_full_settle).
    pub fn set_force_full_settle(&mut self, on: bool) {
        self.force_full = on;
        self.settled = false;
    }

    /// Turns on profiling, as [`Sim::enable_profile`](crate::Sim::enable_profile);
    /// batch sims additionally track lane occupancy (which stimulus lanes
    /// were ever poked). All counter storage is allocated here — enabled
    /// profiling still does zero allocations per cycle.
    pub fn enable_profile(&mut self) {
        self.prof = Some(Box::new(crate::profile::ProfState::new(
            self.netlist.cells().len(),
            self.pw,
        )));
    }

    /// Snapshot of the profiling counters; `None` until
    /// [`BatchSim::enable_profile`] is called.
    pub fn profile(&self) -> Option<crate::ProfileReport> {
        self.prof
            .as_ref()
            .map(|p| crate::profile::ProfileReport::build(p, self.netlist, self.nlanes))
    }

    /// Drives one lane of a top-level input for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or an out-of-range lane.
    pub fn poke(&mut self, sig: SignalId, lane: u32, value: Value) {
        let idx = sig.index();
        assert_eq!(
            value.width(),
            self.netlist.signals()[idx].width,
            "poke of {} with wrong width",
            self.netlist.signals()[idx].name
        );
        assert!(lane < self.nlanes, "lane {lane} out of range");
        if let Some(p) = &mut self.prof {
            p.lane_poked[lane as usize / 64] |= 1 << (lane % 64);
        }
        let v = value.to_u64();
        if self.values[idx].get(lane) != v {
            self.values[idx].set(lane, v);
            self.dirty[idx] = true;
        }
        self.settled = false;
    }

    /// Drives every lane of an input with the same value.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn poke_all(&mut self, sig: SignalId, value: Value) {
        let idx = sig.index();
        assert_eq!(
            value.width(),
            self.netlist.signals()[idx].width,
            "poke of {} with wrong width",
            self.netlist.signals()[idx].name
        );
        if let Some(p) = &mut self.prof {
            for (w, o) in p.lane_poked.iter_mut().zip(&self.ones) {
                *w |= *o;
            }
        }
        let v = value.to_u64();
        if (0..self.nlanes).any(|l| self.values[idx].get(l) != v) {
            self.values[idx].broadcast(v);
            self.dirty[idx] = true;
        }
        self.settled = false;
    }

    /// Convenience: poke one lane by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn poke_by_name(&mut self, name: &str, lane: u32, value: Value) {
        let sig = self
            .netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"));
        self.poke(sig, lane, value);
    }

    /// Reads one lane of a signal's settled value.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane.
    pub fn peek(&self, sig: SignalId, lane: u32) -> Value {
        assert!(lane < self.nlanes, "lane {lane} out of range");
        let idx = sig.index();
        Value::from_u64(
            self.netlist.signals()[idx].width,
            self.values[idx].get(lane),
        )
    }

    /// Convenience: peek one lane by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn peek_by_name(&self, name: &str, lane: u32) -> Value {
        let sig = self
            .netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"));
        self.peek(sig, lane)
    }

    /// True if the signal was actively driven in this lane during the last
    /// settle.
    pub fn was_driven(&self, sig: SignalId, lane: u32) -> bool {
        assert!(lane < self.nlanes, "lane {lane} out of range");
        let w = self.driven[sig.index() * self.pw + lane as usize / 64];
        (w >> (lane % 64)) & 1 != 0
    }

    /// Evaluates combinational logic for all lanes of the current cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::WriteConflict`] (with its `lane` field set) if two
    /// active assignments drive the same signal in the same lane; the
    /// winning report is the lowest signal id, then the lowest lane —
    /// identical from every engine. Conflicted lanes keep their previous
    /// value; other lanes of the same signal still update.
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
            let changed;
            let mut conflicted = false;
            match self.flat.drivers[si] {
                Driver::External => {
                    let d = &mut self.driven[si * self.pw..(si + 1) * self.pw];
                    if self.netlist.signals()[si].dir == PortDir::Input {
                        d.copy_from_slice(&self.ones);
                    } else {
                        d.fill(0);
                    }
                    changed = true;
                }
                Driver::Cell { cell, pin } => {
                    let c = cell as usize;
                    // Register outputs are pure state copies: adopt straight
                    // from the state plane, skipping the out_buf staging
                    // (registers dominate most netlists, so this trims two
                    // full plane passes off the hottest settle arm).
                    if let CellKind::Reg { .. } = self.netlist.cells()[c].kind {
                        // The fast path skips the stamp, so count the
                        // visit directly: reg outputs are never re-dirtied
                        // within a settle, so this is once per settle —
                        // the same metric as the stamp transition.
                        if let Some(p) = &mut self.prof {
                            p.cell_evals[c] += 1;
                        }
                        let BatchSim { values, states, .. } = self;
                        changed = lanes::copy_changed(&mut values[si], &states[c][0]);
                        if self.driven[si * self.pw] != self.ones[0] {
                            self.driven[si * self.pw..(si + 1) * self.pw]
                                .copy_from_slice(&self.ones);
                        }
                        self.dirty[si] = false;
                        if changed {
                            for &t in self.flat.deps(si) {
                                self.dirty[t as usize] = true;
                            }
                        }
                        continue;
                    }
                    let o0 = self.flat.cout_start[c] as usize;
                    let slot = o0 + pin as usize;
                    let first = self.cell_stamp[c] != self.pass;
                    if self.flat.comb_out[slot] || first {
                        self.cell_stamp[c] = self.pass;
                        if first {
                            if let Some(p) = &mut self.prof {
                                p.cell_evals[c] += 1;
                            }
                        }
                        let o1 = self.flat.cout_start[c + 1] as usize;
                        let BatchSim {
                            values,
                            out_buf,
                            states,
                            flat,
                            netlist,
                            dummy,
                            ..
                        } = self;
                        let pins = flat.cell_pins(c);
                        let mut inputs: [&LaneBuf; CellKind::MAX_INPUT_PINS] =
                            [&*dummy; CellKind::MAX_INPUT_PINS];
                        for (k, &s) in pins.iter().enumerate() {
                            inputs[k] = &values[s as usize];
                        }
                        netlist.cells()[c].kind.eval_lanes(
                            &inputs[..pins.len()],
                            &states[c],
                            &mut out_buf[o0..o1],
                        );
                    }
                    let BatchSim {
                        values, out_buf, ..
                    } = self;
                    let out = &mut out_buf[slot];
                    let dst = &mut values[si];
                    // Adopt by O(1) buffer swap: the compare early-exits on
                    // the first differing word, and the stale plane left in
                    // out_buf is overwritten by the next eval (each signal
                    // is visited once per sequential settle).
                    changed = dst.words() != out.words();
                    if changed {
                        std::mem::swap(dst, out);
                    }
                    // Cell outputs are driven in every lane, monotonically:
                    // the plane flips zero → all-ones once, so one word
                    // tells whether the copy already happened.
                    if self.driven[si * self.pw] != self.ones[0] {
                        self.driven[si * self.pw..(si + 1) * self.pw].copy_from_slice(&self.ones);
                    }
                }
                Driver::Assigns { start, len } => {
                    if let Some(p) = &mut self.prof {
                        p.assign_resolves += 1;
                    }
                    let BatchSim {
                        netlist,
                        flat,
                        values,
                        s_active,
                        s_drv,
                        s_confl,
                        ones,
                        cand,
                        cand_of,
                        pw,
                        conflicts,
                        driven,
                        ..
                    } = self;
                    let pw = *pw;
                    let assign_at =
                        |k: u32| netlist.assigns()[flat.assign_lists[k as usize] as usize];
                    // Phase 1: per-lane active/driven/conflict planes.
                    s_drv.fill(0);
                    s_confl.fill(0);
                    for k in start..start + len {
                        let a = assign_at(k);
                        match a.guard {
                            None => s_active.copy_from_slice(ones),
                            Some(g) => s_active.copy_from_slice(values[g.index()].words()),
                        }
                        for w in 0..pw {
                            s_confl[w] |= s_active[w] & s_drv[w];
                            s_drv[w] |= s_active[w];
                        }
                    }
                    // Phase 2: build the candidate value. Conflicted lanes
                    // keep the old value; lanes with no active assignment
                    // stay zero (two-state undriven); all others get their
                    // unique active source.
                    let cb = &mut cand[cand_of[si] as usize];
                    cb.fill_zero();
                    let any_confl = s_confl.iter().any(|&w| w != 0);
                    if any_confl {
                        lanes::copy_masked(cb, &values[si], s_confl);
                    }
                    for k in start..start + len {
                        let a = assign_at(k);
                        match a.guard {
                            None => s_active.copy_from_slice(ones),
                            Some(g) => s_active.copy_from_slice(values[g.index()].words()),
                        }
                        if any_confl {
                            for w in 0..pw {
                                s_active[w] &= !s_confl[w];
                            }
                        }
                        lanes::copy_masked(cb, &values[a.src.index()], s_active);
                    }
                    if any_confl {
                        let lane = first_set_lane(s_confl);
                        let mut first: Option<u32> = None;
                        let mut pair: Option<(u32, u32)> = None;
                        for k in start..start + len {
                            let ai = flat.assign_lists[k as usize];
                            let a = netlist.assigns()[ai as usize];
                            let act = match a.guard {
                                None => true,
                                Some(g) => values[g.index()].get(lane) != 0,
                            };
                            if act {
                                match first {
                                    None => first = Some(ai),
                                    Some(f) => {
                                        pair = Some((f, ai));
                                        break;
                                    }
                                }
                            }
                        }
                        let (a, b) = pair.expect("conflict lane has two active assigns");
                        conflicts.push(LaneConflict {
                            c: Conflict {
                                sig: si as u32,
                                a,
                                b,
                            },
                            lane,
                        });
                        conflicted = true;
                    }
                    driven[si * pw..(si + 1) * pw].copy_from_slice(s_drv);
                    // The candidate is rebuilt from scratch on every visit,
                    // so adoption can swap instead of copy.
                    let dst = &mut values[si];
                    changed = dst.words() != cb.words();
                    if changed {
                        std::mem::swap(dst, cb);
                    }
                }
            }
            self.dirty[si] = conflicted;
            if changed {
                for &t in self.flat.deps(si) {
                    self.dirty[t as usize] = true;
                }
            }
        }
        if let Some(lc) = self.conflicts.iter().copied().min_by_key(|lc| lc.c.sig) {
            return Err(conflict_error(
                self.netlist,
                self.cycle,
                lc.c,
                Some(lc.lane),
            ));
        }
        if let Some(p) = &mut self.prof {
            p.settles += 1;
        }
        self.settled = true;
        Ok(())
    }

    /// Advances the clock for all lanes. Settles first if needed.
    ///
    /// # Errors
    ///
    /// Propagates settle errors.
    pub fn tick(&mut self) -> Result<(), SimError> {
        if !self.settled {
            self.settle()?;
        }
        let BatchSim {
            values,
            states,
            netlist,
            flat,
            dirty,
            dummy,
            ..
        } = self;
        for &ci in flat.seq_cells.iter() {
            let c = ci as usize;
            let pins = flat.cell_pins(c);
            let mut inputs: [&LaneBuf; CellKind::MAX_INPUT_PINS] =
                [&*dummy; CellKind::MAX_INPUT_PINS];
            for (k, &s) in pins.iter().enumerate() {
                inputs[k] = &values[s as usize];
            }
            netlist.cells()[c]
                .kind
                .tick_lanes(&inputs[..pins.len()], &mut states[c]);
            for &sig in
                &flat.cout_sigs[flat.cout_start[c] as usize..flat.cout_start[c + 1] as usize]
            {
                dirty[sig as usize] = true;
            }
        }
        if let Some(p) = &mut self.prof {
            p.ticks += 1;
        }
        self.cycle += 1;
        self.settled = false;
        Ok(())
    }

    /// Settle then tick: one full clock cycle for all lanes.
    ///
    /// # Errors
    ///
    /// Propagates settle errors.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.settle()?;
        self.tick()
    }

    /// Runs `n` full cycles with the currently poked inputs.
    ///
    /// # Errors
    ///
    /// Propagates settle errors.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }
}
