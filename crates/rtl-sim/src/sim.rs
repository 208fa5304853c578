//! The simulator's public faces: [`Sim`] (one lane) and [`BatchSim`]
//! (B lanes), both the one engine of `engine.rs` over its one lane
//! storage, at any signal width, plus the errors they raise.

use crate::engine::{engine_verbs, Engine};
use crate::netlist::{Netlist, NetlistError, SignalId};
use fil_bits::{lanes, Value};
use std::fmt;

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
    /// The design's value storage at this lane count is over the
    /// simulator's budget (`MAX_WORDS` words); nothing was allocated.
    TooLarge {
        /// Words the design needs (saturating).
        words: u64,
        /// The lane count asked for.
        lanes: u32,
        /// The budget.
        budget: u64,
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
            SimError::TooLarge {
                words,
                lanes,
                budget,
            } => write!(
                f,
                "design too large to simulate: {words} words of storage at \
                 {lanes} lane(s), over the budget of {budget}"
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
pub struct Sim<'n>(pub(crate) Engine<'n, true>);

impl<'n> Sim<'n> {
    /// Elaborates a netlist for single-threaded simulation: validates it,
    /// resolves drivers, flattens the graph into CSR arrays, and computes a
    /// topological evaluation order. The netlist keeps that flattened graph,
    /// so later simulators over it (scalar or batched) only allocate their
    /// value storage, until the netlist is next mutated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for structural problems,
    /// [`SimError::CombLoop`] if the combinational dependency graph is
    /// cyclic, and [`SimError::TooLarge`] if its signals are over the
    /// storage budget.
    pub fn new(netlist: &'n Netlist) -> Result<Self, SimError> {
        Engine::new(netlist, 1).map(Sim)
    }

    /// Forwards to [`Sim::new`]; `_jobs` is ignored.
    ///
    /// Kept only because the `perfbench` benchmark crate calls it for its
    /// per-layer `rtl-sim.shard_j2_over_j1` probe.
    #[doc(hidden)]
    pub fn new_with_jobs(netlist: &'n Netlist, _jobs: usize) -> Result<Self, SimError> {
        Self::new(netlist)
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
        let width = value.width();
        self.0
            .poke(sig, width, |w| lanes::set(width, w, 0, value.limbs()));
    }

    /// Convenience: poke by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn poke_by_name(&mut self, name: &str, value: Value) {
        self.poke(self.0.signal_named(name), value);
    }

    /// Reads a signal's settled value for the current cycle.
    #[inline]
    pub fn peek(&self, sig: SignalId) -> Value {
        self.0.peek(sig, 0)
    }

    /// Convenience: peek by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn peek_by_name(&self, name: &str) -> Value {
        self.peek(self.0.signal_named(name))
    }

    /// True if the signal was actively driven (by a cell or an assignment
    /// with a true guard) during the last [`Sim::settle`].
    pub fn was_driven(&self, sig: SignalId) -> bool {
        self.0.was_driven(sig, 0)
    }
}

engine_verbs!(Sim);

/// A batched simulation: B independent traces over one borrowed
/// [`Netlist`], settled in lockstep.
///
/// Every signal holds B lane values in the lane layout of
/// [`fil_bits::lanes`], at any width, so one settle pass evaluates each
/// cell once for all B lanes. Lane `l` is bit-identical to a [`Sim`]
/// driven with lane `l`'s stimulus, including [`BatchSim::was_driven`]
/// flags and write-conflict errors (which name their lane).
///
/// # Examples
///
/// ```
/// use fil_bits::Value;
/// use rtl_sim::{BatchSim, CellKind, Netlist};
///
/// let mut n = Netlist::new("adder");
/// let a = n.add_input("a", 8);
/// let b = n.add_input("b", 8);
/// let sum = n.add_signal("sum", 8);
/// n.add_cell("add0", CellKind::Add { width: 8 }, vec![a, b], vec![sum]);
/// n.mark_output(sum);
///
/// // Four traces in lockstep: sum[l] = a[l] + b[l].
/// let mut sim = BatchSim::new(&n, 4)?;
/// for l in 0..4 {
///     sim.poke(a, l, Value::from_u64(8, 10 * l as u64));
///     sim.poke(b, l, Value::from_u64(8, l as u64));
/// }
/// sim.settle()?;
/// assert_eq!(sim.peek(sum, 3).to_u64(), 33);
/// # Ok::<(), rtl_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct BatchSim<'n>(pub(crate) Engine<'n, false>);

impl<'n> BatchSim<'n> {
    /// Elaborates a netlist for batched simulation with `nlanes`
    /// independent stimulus lanes.
    ///
    /// # Errors
    ///
    /// As for [`Sim::new`]; the storage budget counts every lane.
    ///
    /// # Panics
    ///
    /// Panics if `nlanes == 0`.
    pub fn new(netlist: &'n Netlist, nlanes: u32) -> Result<Self, SimError> {
        Engine::new(netlist, nlanes).map(BatchSim)
    }

    /// The number of stimulus lanes.
    pub fn lanes(&self) -> u32 {
        self.0.nlanes
    }

    /// Drives one lane of a top-level input for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or an out-of-range lane.
    pub fn poke(&mut self, sig: SignalId, lane: u32, value: Value) {
        assert!(lane < self.0.nlanes, "lane {lane} out of range");
        if let Some(p) = &mut self.0.prof {
            p.lane_poked[lane as usize / 64] |= 1 << (lane % 64);
        }
        let width = value.width();
        self.0
            .poke(sig, width, |w| lanes::set(width, w, lane, value.limbs()));
    }

    /// Drives every lane of an input with the same value.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn poke_all(&mut self, sig: SignalId, value: Value) {
        let e = &mut self.0;
        if let Some(p) = &mut e.prof {
            for (w, o) in p.lane_poked.iter_mut().zip(&e.ones) {
                *w |= *o;
            }
        }
        let (width, n) = (value.width(), e.nlanes);
        e.poke(sig, width, |w| lanes::broadcast(n, width, w, value.limbs()));
    }

    /// Convenience: poke one lane by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn poke_by_name(&mut self, name: &str, lane: u32, value: Value) {
        self.poke(self.0.signal_named(name), lane, value);
    }

    /// Reads one lane of a signal's settled value.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane.
    pub fn peek(&self, sig: SignalId, lane: u32) -> Value {
        self.0.peek(sig, lane)
    }

    /// Convenience: peek one lane by signal name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has this name.
    pub fn peek_by_name(&self, name: &str, lane: u32) -> Value {
        self.peek(self.0.signal_named(name), lane)
    }

    /// True if the signal was actively driven in this lane during the last
    /// settle.
    pub fn was_driven(&self, sig: SignalId, lane: u32) -> bool {
        self.0.was_driven(sig, lane)
    }
}

engine_verbs!(BatchSim);
