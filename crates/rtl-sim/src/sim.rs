//! The cycle-accurate simulator.
//!
//! # Hot-path architecture
//!
//! Elaboration ([`FlatGraph`], built once per netlist and shared by every
//! simulator over it) flattens the netlist into CSR index arrays:
//! per-signal dependent lists, per-cell input/output pin lists, and
//! per-signal assignment candidate lists. The settle loop then runs over
//! flat `u32` arrays and a flat pre-sized output-value buffer — no
//! per-cycle allocation for designs whose signals are at most 64 bits wide
//! (see `fil_bits::Value`'s inline representation).
//!
//! Settling is *change-propagating*: a signal is re-evaluated only when
//! marked dirty (an input changed, or a sequential cell ticked), and a
//! recomputed value equal to the previous one does not mark its dependents
//! dirty. Steady-state regions of deep pipelines therefore cost almost
//! nothing per cycle. [`Sim::set_force_full_settle`] disables the
//! optimization (every settle re-evaluates everything) as a debugging
//! cross-check; both modes produce identical values, [`Sim::was_driven`]
//! flags, and [`SimError::WriteConflict`] errors.
//!
//! A write conflict is *recorded* rather than aborting the pass: the rest
//! of the design still settles, and the conflict on the lowest signal id is
//! reported afterwards, so the error does not depend on evaluation order.

use crate::cell::{CellKind, CellState};
use crate::graph::{Driver, FlatGraph};
use crate::netlist::{Netlist, NetlistError, PortDir, SignalId};
use crate::profile::{ProfState, ProfileReport};
use fil_bits::Value;
use std::fmt;
use std::sync::Arc;

/// Errors raised while elaborating or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The netlist failed structural validation.
    Netlist(NetlistError),
    /// A combinational cycle exists through the listed signals.
    CombLoop {
        /// Names of signals on the cycle (unordered witness set).
        signals: Vec<String>,
    },
    /// Two guarded assignments drove the same signal in the same cycle —
    /// the dynamic manifestation of a structural hazard (Section 4 of the
    /// paper: "Writes do not conflict").
    ///
    /// When several signals conflict in one cycle, the one with the lowest
    /// signal id is reported — independent of evaluation order, so scalar
    /// and batched runs produce identical errors.
    WriteConflict {
        /// The conflicted signal's name.
        signal: String,
        /// The cycle (since simulation start) of the conflict.
        cycle: u64,
        /// The first offending assignment, rendered `dst = guard ? src`.
        first: String,
        /// The second offending assignment.
        second: String,
        /// The batch lane the conflict occurred in (`None` for scalar
        /// simulation).
        lane: Option<u32>,
    },
    /// The batched simulator only lays out signals up to 64 bits wide
    /// (see `fil_bits::lanes`); this design has a wider one.
    BatchWidth {
        /// The offending signal's name.
        signal: String,
        /// Its width.
        width: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Netlist(e) => write!(f, "netlist error: {e}"),
            SimError::CombLoop { signals } => {
                write!(f, "combinational loop through: {}", signals.join(", "))
            }
            SimError::WriteConflict {
                signal,
                cycle,
                first,
                second,
                lane,
            } => {
                write!(f, "conflicting writes to {signal} in cycle {cycle}")?;
                if let Some(l) = lane {
                    write!(f, " (lane {l})")?;
                }
                write!(f, ": `{first}` vs `{second}`")
            }
            SimError::BatchWidth { signal, width } => write!(
                f,
                "batched simulation supports signals up to 64 bits, but {signal} is {width} bits"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<NetlistError> for SimError {
    fn from(e: NetlistError) -> Self {
        SimError::Netlist(e)
    }
}

/// A recorded write conflict: the destination signal and the two offending
/// global assignment indices (in assignment-list order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Conflict {
    pub sig: u32,
    pub a: u32,
    pub b: u32,
}

/// Builds the user-facing error for the winning (lowest-signal-id) conflict.
pub(crate) fn conflict_error(
    netlist: &Netlist,
    cycle: u64,
    c: Conflict,
    lane: Option<u32>,
) -> SimError {
    SimError::WriteConflict {
        signal: netlist.signals()[c.sig as usize].name.clone(),
        cycle,
        first: netlist.describe_assign(c.a as usize),
        second: netlist.describe_assign(c.b as usize),
        lane,
    }
}

/// Picks the deterministic winner among recorded conflicts: lowest signal
/// id (ties cannot occur — one record per signal).
pub(crate) fn min_conflict(conflicts: &[Conflict]) -> Option<Conflict> {
    conflicts.iter().copied().min_by_key(|c| c.sig)
}

/// Copies `values[src]` into `values[dst]` without allocating, returning
/// whether `dst`'s value changed.
fn copy_signal(values: &mut [Value], src: usize, dst: usize) -> bool {
    debug_assert_ne!(src, dst, "self-assignment is a comb loop");
    let (s, d) = if src < dst {
        let (a, b) = values.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = values.split_at_mut(src);
        (&b[0], &mut a[dst])
    };
    if *d == *s {
        return false;
    }
    d.clone_from(s);
    true
}

/// A running simulation over a borrowed [`Netlist`].
///
/// Drive inputs with [`Sim::poke`], evaluate combinational logic with
/// [`Sim::settle`], observe with [`Sim::peek`], and advance the clock with
/// [`Sim::tick`] (or use [`Sim::step`] for settle-then-tick).
///
/// # Examples
///
/// ```
/// use fil_bits::Value;
/// use rtl_sim::{CellKind, Netlist, Sim};
///
/// // A 1-cycle delay register.
/// let mut n = Netlist::new("delay");
/// let d = n.add_input("d", 4);
/// let q = n.add_signal("q", 4);
/// n.add_cell("r", CellKind::Reg { width: 4, init: 0, has_en: false }, vec![d], vec![q]);
/// n.mark_output(q);
///
/// let mut sim = Sim::new(&n)?;
/// sim.poke(d, Value::from_u64(4, 9));
/// sim.step()?;                       // clock edge captures 9
/// sim.settle()?;
/// assert_eq!(sim.peek(q).to_u64(), 9);
/// # Ok::<(), rtl_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Sim<'n> {
    netlist: &'n Netlist,
    pub(crate) flat: Arc<FlatGraph>,
    values: Vec<Value>,
    driven: Vec<bool>,
    /// Signals needing re-evaluation in the next settle pass.
    dirty: Vec<bool>,
    /// Flat pre-sized per-cell output value buffers.
    out_buf: Vec<Value>,
    /// Settle-pass stamp per cell: cell already evaluated this pass.
    cell_stamp: Vec<u64>,
    pass: u64,
    states: Vec<CellState>,
    /// Placeholder borrow target for the fixed-size input-pin buffer.
    dummy: Value,
    /// Conflicts recorded during a settle.
    conflicts: Vec<Conflict>,
    /// Profiling counters; `None` (the default) keeps the hot paths at
    /// a single untaken branch. See [`Sim::enable_profile`].
    prof: Option<Box<ProfState>>,
    force_full: bool,
    cycle: u64,
    settled: bool,
}

impl<'n> Sim<'n> {
    /// Elaborates a netlist for single-threaded simulation: validates it,
    /// resolves drivers, flattens the graph into CSR arrays, and computes a
    /// topological evaluation order. The netlist keeps that flattened graph,
    /// so later simulators over it (scalar or batched) only allocate their
    /// value storage, until the netlist is next mutated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for structural problems and
    /// [`SimError::CombLoop`] if the combinational dependency graph is
    /// cyclic.
    pub fn new(netlist: &'n Netlist) -> Result<Self, SimError> {
        let flat = netlist.flat_graph()?;
        let n_sigs = flat.n_sigs();
        let n_cells = netlist.cells().len();
        let values = netlist
            .signals()
            .iter()
            .map(|s| Value::zero(s.width))
            .collect();
        let out_buf = flat.out_widths.iter().map(|&w| Value::zero(w)).collect();
        let states = netlist
            .cells()
            .iter()
            .map(|c| c.kind.initial_state())
            .collect();
        Ok(Sim {
            netlist,
            flat,
            values,
            driven: vec![false; n_sigs],
            dirty: vec![true; n_sigs],
            out_buf,
            cell_stamp: vec![0; n_cells],
            pass: 0,
            states,
            dummy: Value::zero(1),
            conflicts: Vec::new(),
            prof: None,
            force_full: false,
            cycle: 0,
            settled: false,
        })
    }

    /// Forwards to [`Sim::new`]; `_jobs` is ignored.
    ///
    /// Kept only because the `perfbench` benchmark crate calls it for its
    /// per-layer `rtl-sim.shard_j2_over_j1` probe.
    #[doc(hidden)]
    pub fn new_with_jobs(netlist: &'n Netlist, _jobs: usize) -> Result<Self, SimError> {
        Self::new(netlist)
    }

    /// Turns on profiling: settle and tick counts and per-[`CellKind`]
    /// eval totals, snapshotted by [`Sim::profile`]. All counter storage
    /// is allocated here, so even enabled profiling does zero allocations
    /// per cycle; when never called, the simulation paths are untouched.
    pub fn enable_profile(&mut self) {
        self.prof = Some(Box::new(ProfState::new(self.netlist.cells().len(), 0)));
    }

    /// Snapshot of the profiling counters; `None` until
    /// [`Sim::enable_profile`] is called.
    pub fn profile(&self) -> Option<ProfileReport> {
        self.prof
            .as_ref()
            .map(|p| ProfileReport::build(p, self.netlist, 1))
    }

    /// The current cycle count (number of clock edges so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Disables (or re-enables) change propagation: with `on == true` every
    /// [`Sim::settle`] re-evaluates every signal, exactly like the
    /// pre-optimization simulator. Useful as a debugging cross-check; both
    /// modes are observably identical.
    pub fn set_force_full_settle(&mut self, on: bool) {
        self.force_full = on;
        self.settled = false;
    }

    /// Drives a top-level input (or any externally-driven signal) for the
    /// current cycle.
    ///
    /// Poking a value equal to the signal's current value is a no-op for
    /// change propagation but still invalidates [`Sim::settle`]'s cache
    /// conservatively.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the signal width.
    pub fn poke(&mut self, sig: SignalId, value: Value) {
        let want = self.netlist.signals()[sig.index()].width;
        assert_eq!(
            value.width(),
            want,
            "poke of {} with wrong width",
            self.netlist.signals()[sig.index()].name
        );
        let idx = sig.index();
        if self.values[idx] != value {
            self.values[idx] = value;
            self.dirty[idx] = true;
        }
        self.settled = false;
    }

    /// Convenience: poke by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn poke_by_name(&mut self, name: &str, value: Value) {
        let sig = self
            .netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"));
        self.poke(sig, value);
    }

    /// Reads a signal's settled value for the current cycle.
    pub fn peek(&self, sig: SignalId) -> &Value {
        &self.values[sig.index()]
    }

    /// Convenience: peek by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn peek_by_name(&self, name: &str) -> &Value {
        let sig = self
            .netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("no signal named {name}"));
        self.peek(sig)
    }

    /// True if the signal was actively driven (by a cell or an assignment
    /// with a true guard) during the last [`Sim::settle`].
    pub fn was_driven(&self, sig: SignalId) -> bool {
        self.driven[sig.index()]
    }

    /// Evaluates combinational logic for the current cycle, re-evaluating
    /// only signals whose inputs changed (unless
    /// [`Sim::set_force_full_settle`] is on).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WriteConflict`] if two active assignments drive
    /// the same signal. Conflicted signals keep their previous value, stay
    /// dirty (a retried settle reports the same conflict until an input
    /// changes), and read as driven; the rest of the design still settles,
    /// and when several signals conflict the lowest signal id wins — the
    /// same answer from every engine.
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
                    // Poke only marks dirty on an actual change, so the
                    // value is (conservatively) treated as changed.
                    self.driven[si] = self.netlist.signals()[si].dir == PortDir::Input;
                    changed = true;
                }
                Driver::Cell { cell, pin } => {
                    let c = cell as usize;
                    let o0 = self.flat.cout_start[c] as usize;
                    let slot = o0 + pin as usize;
                    // State-driven pins reuse this pass's evaluation;
                    // comb-dependent pins re-evaluate, because the cell may
                    // have been evaluated (for a state-driven sibling pin)
                    // before this pin's inputs settled.
                    let first = self.cell_stamp[c] != self.pass;
                    if self.flat.comb_out[slot] || first {
                        self.cell_stamp[c] = self.pass;
                        if first {
                            if let Some(p) = &mut self.prof {
                                p.cell_evals[c] += 1;
                            }
                        }
                        let o1 = self.flat.cout_start[c + 1] as usize;
                        let Sim {
                            values,
                            out_buf,
                            states,
                            flat,
                            netlist,
                            dummy,
                            ..
                        } = self;
                        let pins = flat.cell_pins(c);
                        let mut inputs: [&Value; CellKind::MAX_INPUT_PINS] =
                            [&*dummy; CellKind::MAX_INPUT_PINS];
                        for (k, &s) in pins.iter().enumerate() {
                            inputs[k] = &values[s as usize];
                        }
                        netlist.cells()[c].kind.eval_into(
                            &inputs[..pins.len()],
                            &states[c],
                            &mut out_buf[o0..o1],
                        );
                    }
                    let Sim {
                        values, out_buf, ..
                    } = self;
                    let out = &out_buf[slot];
                    let dst = &mut values[si];
                    changed = *dst != *out;
                    if changed {
                        dst.clone_from(out);
                    }
                    self.driven[si] = true;
                }
                Driver::Assigns { start, len } => {
                    if let Some(p) = &mut self.prof {
                        p.assign_resolves += 1;
                    }
                    let mut chosen: Option<u32> = None;
                    let mut conflict: Option<(u32, u32)> = None;
                    for k in start..start + len {
                        let ai = self.flat.assign_lists[k as usize];
                        let a = self.netlist.assigns()[ai as usize];
                        let active = match a.guard {
                            None => true,
                            Some(g) => self.values[g.index()].as_bool(),
                        };
                        if active {
                            match chosen {
                                None => chosen = Some(ai),
                                Some(first) => {
                                    conflict = Some((first, ai));
                                    break;
                                }
                            }
                        }
                    }
                    if let Some((a, b)) = conflict {
                        // Record and continue settling: the winner is
                        // chosen deterministically after the pass. The
                        // signal keeps its old value and stays dirty.
                        self.conflicts.push(Conflict {
                            sig: si as u32,
                            a,
                            b,
                        });
                        self.driven[si] = true;
                        changed = false;
                        conflicted = true;
                    } else {
                        match chosen {
                            Some(ai) => {
                                let src = self.netlist.assigns()[ai as usize].src;
                                changed = copy_signal(&mut self.values, src.index(), si);
                                self.driven[si] = true;
                            }
                            None => {
                                // Undriven this cycle: two-state zero.
                                changed = !self.values[si].is_zero();
                                if changed {
                                    self.values[si].set_zero();
                                }
                                self.driven[si] = false;
                            }
                        }
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
        if let Some(c) = min_conflict(&self.conflicts) {
            return Err(conflict_error(self.netlist, self.cycle, c, None));
        }
        if let Some(p) = &mut self.prof {
            p.settles += 1;
        }
        self.settled = true;
        Ok(())
    }

    /// Advances the clock: every sequential cell captures its settled
    /// inputs. Settles first if needed.
    ///
    /// # Errors
    ///
    /// Propagates settle errors.
    pub fn tick(&mut self) -> Result<(), SimError> {
        if !self.settled {
            self.settle()?;
        }
        let Sim {
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
            let mut inputs: [&Value; CellKind::MAX_INPUT_PINS] =
                [&*dummy; CellKind::MAX_INPUT_PINS];
            for (k, &s) in pins.iter().enumerate() {
                inputs[k] = &values[s as usize];
            }
            netlist.cells()[c]
                .kind
                .tick(&inputs[..pins.len()], &mut states[c]);
            // New state may surface on the cell's outputs next settle.
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

    /// Settle then tick: one full clock cycle.
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
