//! Opt-in simulator profiling: settle and tick counts,
//! per-[`CellKind`](crate::CellKind) eval totals, and batch-lane occupancy.
//!
//! Profiling is off by default and costs nothing when off: the engines
//! hold an `Option<Box<ProfState>>` that stays `None`, so the per-cycle
//! hot paths only pay an untaken branch. `Sim::enable_profile()` /
//! `BatchSim::enable_profile()` pre-allocate every counter up front, so
//! even *enabled* profiling does zero allocations per cycle — the
//! `alloc_free.rs` counting-allocator tests pin both properties.
//!
//! # What counts as an "eval"
//!
//! A cell is counted at most once per settle, on its first visit (the
//! `cell_stamp != pass` transition) — so the count is *work actually
//! done*, not a model of it. Under `set_force_full_settle(true)` every
//! engine evaluates every cell once per settle, so [`Sim`](crate::Sim) and
//! [`BatchSim`](crate::BatchSim) totals agree exactly, cell by cell. The
//! register fast path (shared by both) copies a register's state straight
//! to its output instead of evaluating the cell, but still takes the stamp,
//! so a register counts like any other cell. Assign *resolutions*
//! (guarded-assign group evaluations) are reported as a separate counter.

use crate::netlist::Netlist;

/// Pre-allocated counter state, boxed behind `Option` in the engines.
#[derive(Debug, Clone)]
pub(crate) struct ProfState {
    /// Evals per cell (indexed by cell id), aggregated per kind at
    /// report time.
    pub cell_evals: Vec<u64>,
    /// Guarded-assign group resolutions.
    pub assign_resolves: u64,
    /// Completed settles.
    pub settles: u64,
    /// Completed ticks.
    pub ticks: u64,
    /// Batch only: bitmask of lanes that have been poked, one bit per
    /// lane over `plane_words` u64s. Empty for scalar sims.
    pub lane_poked: Vec<u64>,
}

impl ProfState {
    pub fn new(cells: usize, plane_words: usize) -> Self {
        ProfState {
            cell_evals: vec![0; cells],
            assign_resolves: 0,
            settles: 0,
            ticks: 0,
            lane_poked: vec![0; plane_words],
        }
    }
}

/// A snapshot of the profile counters, with per-cell evals rolled up by
/// [`CellKind`](crate::CellKind). Returned by `Sim::profile()` /
/// `BatchSim::profile()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Completed settles.
    pub settles: u64,
    /// Completed ticks.
    pub ticks: u64,
    /// Total cell evals.
    pub total_evals: u64,
    /// Guarded-assign group resolutions.
    pub assign_resolves: u64,
    /// Evals per cell kind, hottest first.
    pub kind_evals: Vec<(&'static str, u64)>,
    /// Batch lane count (1 for scalar sims).
    pub lanes: u32,
    /// Batch lanes poked at least once (equals `lanes` for scalar sims).
    pub lanes_poked: u32,
}

impl ProfileReport {
    pub(crate) fn build(state: &ProfState, netlist: &Netlist, lanes: u32) -> ProfileReport {
        let mut kind_evals: Vec<(&'static str, u64)> = Vec::new();
        for (c, cell) in netlist.cells().iter().enumerate() {
            let n = state.cell_evals[c];
            if n == 0 {
                continue;
            }
            let label = cell.kind.label();
            match kind_evals.iter_mut().find(|(l, _)| *l == label) {
                Some(slot) => slot.1 += n,
                None => kind_evals.push((label, n)),
            }
        }
        kind_evals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let lanes_poked = if state.lane_poked.is_empty() {
            lanes
        } else {
            state.lane_poked.iter().map(|w| w.count_ones()).sum()
        };
        ProfileReport {
            settles: state.settles,
            ticks: state.ticks,
            total_evals: state.cell_evals.iter().sum(),
            assign_resolves: state.assign_resolves,
            kind_evals,
            lanes,
            lanes_poked,
        }
    }

    /// Plain-text rendering for terminal use (`filament sim --profile`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "sim profile: {} settles, {} ticks, {} cell evals, {} assign resolutions\n",
            self.settles, self.ticks, self.total_evals, self.assign_resolves
        );
        if self.lanes > 1 {
            out.push_str(&format!(
                "  lanes poked: {} of {}\n",
                self.lanes_poked, self.lanes
            ));
        }
        out.push_str("  evals by cell kind:\n");
        for (label, n) in &self.kind_evals {
            out.push_str(&format!("    {label:<10} {n}\n"));
        }
        out
    }

    /// One-line JSON rendering (hand-rolled, same dialect as the
    /// `sim_speed`/`compile_time` probes).
    pub fn to_json(&self) -> String {
        let kinds: Vec<String> = self
            .kind_evals
            .iter()
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect();
        format!(
            "{{\"settles\": {}, \"ticks\": {}, \"total_evals\": {}, \
             \"assign_resolves\": {}, \"kind_evals\": {{{}}}, \
             \"lanes\": {}, \"lanes_poked\": {}}}",
            self.settles,
            self.ticks,
            self.total_evals,
            self.assign_resolves,
            kinds.join(", "),
            self.lanes,
            self.lanes_poked
        )
    }
}

/// Compile-time assertion helper: `CellKind::label` is total (every
/// variant maps somewhere); exercised by unit tests below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn report_rolls_up_kinds_hottest_first() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let s = n.add_signal("s", 8);
        let d = n.add_signal("d", 8);
        n.add_cell("add", CellKind::Add { width: 8 }, vec![a, b], vec![s]);
        n.add_cell("sub", CellKind::Sub { width: 8 }, vec![a, b], vec![d]);
        let mut p = ProfState::new(n.cells().len(), 0);
        p.cell_evals[0] = 3; // add
        p.cell_evals[1] = 7; // sub
        let report = ProfileReport::build(&p, &n, 1);
        assert_eq!(report.total_evals, 10);
        assert_eq!(report.kind_evals, vec![("Sub", 7), ("Add", 3)]);
        assert_eq!(report.lanes_poked, 1, "scalar: occupancy pinned to lanes");
        let json = report.to_json();
        assert!(json.contains("\"Sub\": 7"), "{json}");
        assert!(report.render().contains("Sub"));
    }
}
