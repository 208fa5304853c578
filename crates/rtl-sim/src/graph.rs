//! Shared elaboration: the netlist flattened into CSR index arrays.
//!
//! Both simulators — the scalar [`Sim`](crate::Sim) and the batched
//! [`BatchSim`](crate::BatchSim) — consume the same flattened form of a
//! netlist: resolved drivers, combinational dependency edges, per-cell pin
//! lists, and a topological evaluation order. This module computes it once
//! per netlist (the [`Netlist`] caches it until its next mutation), and
//! the one engine runs over it at either value storage.

use crate::cell::CellKind;
use crate::netlist::{id32, Netlist, SignalId};
use crate::sim::SimError;

/// What drives a signal, resolved at elaboration.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Driver {
    /// Top-level input or undriven internal wire.
    External,
    /// Output pin `pin` of cell `cell`.
    Cell { cell: u32, pin: u32 },
    /// A run of entries in [`FlatGraph::assign_lists`] naming the (guarded)
    /// assignments that may drive this signal, whose width is entry `class`
    /// of [`FlatGraph::assign_widths`].
    Assigns { start: u32, len: u32, class: u32 },
}

/// A netlist flattened into CSR arrays plus a topological evaluation order.
///
/// All fields are indexes into the source [`Netlist`]'s signal/cell/assign
/// tables; the graph holds no values and is immutable after construction.
#[derive(Debug)]
pub(crate) struct FlatGraph {
    pub drivers: Vec<Driver>,
    /// CSR payload for [`Driver::Assigns`] runs (global assign indices).
    pub assign_lists: Vec<u32>,
    /// The distinct widths of assignment-driven signals.
    pub assign_widths: Vec<u32>,
    /// CSR: `dep_list[dep_start[s]..dep_start[s+1]]` are the signals that
    /// combinationally depend on signal `s`.
    pub dep_start: Vec<u32>,
    pub dep_list: Vec<u32>,
    /// CSR: `cin_list[cin_start[c]..cin_start[c+1]]` are cell `c`'s input
    /// pin signals.
    pub cin_start: Vec<u32>,
    pub cin_list: Vec<u32>,
    /// CSR: cell `c`'s output pins occupy `cout_start[c]..cout_start[c+1]`
    /// in `cout_sigs`, `comb_out`, and the engines' output buffers.
    pub cout_start: Vec<u32>,
    /// Output pin signal ids, parallel to the engines' output buffers.
    pub cout_sigs: Vec<u32>,
    /// True for output pins that depend combinationally on an input pin
    /// (these bypass the per-pass eval cache).
    pub comb_out: Vec<bool>,
    /// Width of each signal (dense, for the engines' hot lookups).
    pub widths: Vec<u32>,
    /// Sequential cell indices, for the tick loop.
    pub seq_cells: Vec<u32>,
    /// Signal evaluation order (topological over combinational deps).
    pub order: Vec<u32>,
}

impl FlatGraph {
    /// Flattens a netlist: validates it, resolves drivers, builds the CSR
    /// arrays, and computes a topological evaluation order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for structural problems and
    /// [`SimError::CombLoop`] if the combinational dependency graph is
    /// cyclic.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        netlist.validate()?;
        let n_sigs = netlist.signals().len();
        let n_cells = netlist.cells().len();

        // Group assignment indices by destination signal (CSR).
        let mut per_sig: Vec<Vec<u32>> = vec![Vec::new(); n_sigs];
        for (ai, assign) in netlist.assigns().iter().enumerate() {
            per_sig[assign.dst.index()].push(id32(ai));
        }
        let mut drivers = vec![Driver::External; n_sigs];
        let (mut assign_lists, mut assign_widths) = (Vec::new(), Vec::new());
        for (si, list) in per_sig.iter().enumerate() {
            if !list.is_empty() {
                let w = netlist.signals()[si].width;
                let class = assign_widths.iter().position(|&x| x == w);
                drivers[si] = Driver::Assigns {
                    start: id32(assign_lists.len()),
                    len: id32(list.len()),
                    class: id32(class.unwrap_or_else(|| {
                        assign_widths.push(w);
                        assign_widths.len() - 1
                    })),
                };
                assign_lists.extend_from_slice(list);
            }
        }
        for (ci, cell) in netlist.cells().iter().enumerate() {
            for (pin, &out) in cell.outputs.iter().enumerate() {
                drivers[out.index()] = Driver::Cell {
                    cell: id32(ci),
                    pin: id32(pin),
                };
            }
        }

        // Combinational dependency edges between signals, twice over the
        // netlist: count, then fill (CSR without intermediate Vec<Vec<_>>).
        let mut dep_start = vec![0u32; n_sigs + 1];
        let for_each_edge = |mut f: Box<dyn FnMut(SignalId, SignalId) + '_>| {
            for cell in netlist.cells() {
                for (ipin, opin) in cell.kind.comb_deps() {
                    f(cell.inputs[ipin], cell.outputs[opin]);
                }
            }
            for assign in netlist.assigns() {
                f(assign.src, assign.dst);
                if let Some(g) = assign.guard {
                    f(g, assign.dst);
                }
            }
        };
        for_each_edge(Box::new(|from, _| dep_start[from.index() + 1] += 1));
        for i in 0..n_sigs {
            dep_start[i + 1] += dep_start[i];
        }
        let mut cursor = dep_start.clone();
        let mut dep_list = vec![0u32; dep_start[n_sigs] as usize];
        let mut indegree = vec![0u32; n_sigs];
        for_each_edge(Box::new(|from, to| {
            dep_list[cursor[from.index()] as usize] = to.0;
            cursor[from.index()] += 1;
            indegree[to.index()] += 1;
        }));

        // Kahn's algorithm over the CSR edges.
        let mut order: Vec<u32> = Vec::with_capacity(n_sigs);
        let mut queue: Vec<u32> = (0..id32(n_sigs))
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        while let Some(s) = queue.pop() {
            order.push(s);
            let (d0, d1) = (
                dep_start[s as usize] as usize,
                dep_start[s as usize + 1] as usize,
            );
            for &t in &dep_list[d0..d1] {
                indegree[t as usize] -= 1;
                if indegree[t as usize] == 0 {
                    queue.push(t);
                }
            }
        }
        if order.len() != n_sigs {
            let signals = (0..n_sigs)
                .filter(|&i| indegree[i] > 0)
                .map(|i| netlist.signals()[i].name.clone())
                .collect();
            return Err(SimError::CombLoop { signals });
        }

        // Per-cell input/output pin CSR and the comb-dependent-pin marks.
        let mut cin_start = Vec::with_capacity(n_cells + 1);
        let mut cin_list = Vec::new();
        let mut cout_start = Vec::with_capacity(n_cells + 1);
        let mut cout_sigs = Vec::new();
        let mut comb_out = Vec::new();
        let mut seq_cells = Vec::new();
        cin_start.push(0u32);
        cout_start.push(0u32);
        for (ci, cell) in netlist.cells().iter().enumerate() {
            assert!(
                cell.inputs.len() <= CellKind::MAX_INPUT_PINS,
                "cell {} has more input pins than the fixed eval buffer",
                cell.name
            );
            cin_list.extend(cell.inputs.iter().map(|s| s.0));
            cin_start.push(id32(cin_list.len()));
            let comb_pins: Vec<usize> = cell.kind.comb_deps().iter().map(|&(_, o)| o).collect();
            for (pin, &out) in cell.outputs.iter().enumerate() {
                cout_sigs.push(out.0);
                comb_out.push(comb_pins.contains(&pin));
            }
            cout_start.push(id32(cout_sigs.len()));
            if cell.kind.is_sequential() {
                seq_cells.push(id32(ci));
            }
        }

        Ok(FlatGraph {
            drivers,
            assign_lists,
            assign_widths,
            dep_start,
            dep_list,
            cin_start,
            cin_list,
            cout_start,
            cout_sigs,
            comb_out,
            widths: netlist.signals().iter().map(|s| s.width).collect(),
            seq_cells,
            order,
        })
    }

    /// Number of signals in the flattened netlist.
    pub fn n_sigs(&self) -> usize {
        self.drivers.len()
    }

    /// The combinational dependents of signal `s` (global signal ids).
    #[inline]
    pub fn deps(&self, s: usize) -> &[u32] {
        &self.dep_list[self.dep_start[s] as usize..self.dep_start[s + 1] as usize]
    }

    /// Cell `c`'s input pin signals (global signal ids).
    #[inline]
    pub fn cell_pins(&self, c: usize) -> &[u32] {
        &self.cin_list[self.cin_start[c] as usize..self.cin_start[c + 1] as usize]
    }
}
