//! The structural netlist IR: signals, cells, and guarded assignments.

use crate::cell::CellKind;
use crate::graph::FlatGraph;
use crate::names::NameIndex;
use crate::sim::SimError;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a signal (wire) within a [`Netlist`].
/// A table index as a netlist id: signals, cells and assignments are
/// indexed by `u32`, and a netlist past 2^32 entries is a builder bug.
pub(crate) fn id32(i: usize) -> u32 {
    u32::try_from(i).expect("netlist tables are indexed by u32")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

/// Identifies a cell instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl SignalId {
    /// The raw index of this signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// The raw index of this cell.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of a top-level port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven by the testbench.
    Input,
    /// Observed by the testbench.
    Output,
    /// An internal wire.
    Internal,
}

/// A named signal with a fixed bit width.
#[derive(Debug, Clone)]
pub struct Signal {
    /// Hierarchical name (e.g. `main.A.out`).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Whether this signal is a top-level port.
    pub dir: PortDir,
}

/// A primitive cell instance.
#[derive(Debug, Clone)]
pub struct CellInst {
    /// Instance name.
    pub name: String,
    /// The primitive this cell instantiates.
    pub kind: CellKind,
    /// Input pins, in the order defined by [`CellKind::input_widths`].
    pub inputs: Vec<SignalId>,
    /// Output pins, in the order defined by [`CellKind::output_widths`].
    pub outputs: Vec<SignalId>,
}

/// A guarded assignment `dst = guard ? src` (Section 5.1 of the paper).
///
/// With `guard == None` the assignment is unconditional. When the guard is
/// low the destination is *undriven* by this assignment; if no assignment
/// drives a signal in a cycle its value is zero (two-state simulation).
#[derive(Debug, Clone, Copy)]
pub struct Assign {
    /// Destination signal.
    pub dst: SignalId,
    /// Source signal.
    pub src: SignalId,
    /// Optional 1-bit guard signal.
    pub guard: Option<SignalId>,
}

/// Errors detected when validating a netlist's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// An assignment or cell pin connects signals of different widths.
    WidthMismatch {
        /// Human-readable description of the connection site.
        site: String,
        /// Expected width.
        expected: u32,
        /// Actual width.
        actual: u32,
    },
    /// A guard signal is wider than one bit.
    GuardWidth {
        /// The guard signal's name.
        signal: String,
        /// The offending width.
        width: u32,
    },
    /// A signal is driven by more than one cell output, or by both a cell
    /// output and an assignment.
    MultipleDrivers {
        /// The signal's name.
        signal: String,
    },
    /// A cell was instantiated with the wrong number of pins.
    PinCount {
        /// The cell's name.
        cell: String,
        /// Description of the mismatch.
        detail: String,
    },
    /// A top-level input is also driven from inside the netlist.
    DrivenInput {
        /// The signal's name.
        signal: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::WidthMismatch {
                site,
                expected,
                actual,
            } => write!(
                f,
                "width mismatch at {site}: expected {expected}, got {actual}"
            ),
            NetlistError::GuardWidth { signal, width } => {
                write!(f, "guard {signal} must be 1 bit wide, got {width}")
            }
            NetlistError::MultipleDrivers { signal } => {
                write!(f, "signal {signal} has multiple structural drivers")
            }
            NetlistError::PinCount { cell, detail } => {
                write!(f, "cell {cell}: {detail}")
            }
            NetlistError::DrivenInput { signal } => {
                write!(f, "top-level input {signal} is driven inside the netlist")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat structural netlist: the simulator's input and the area/timing
/// model's subject.
///
/// Built either by hand (tests, substrate generators) or by elaborating a
/// [`calyx-lite`](https://example.invalid) program compiled from Filament.
#[derive(Clone, Default)]
pub struct Netlist {
    name: String,
    signals: Vec<Signal>,
    /// Signal names → ids, reading names from `signals`.
    by_name: NameIndex,
    cells: Vec<CellInst>,
    assigns: Vec<Assign>,
    /// The flattened graph (or its validation error), built by the first
    /// simulator over this netlist and shared by every later one; each
    /// mutator resets it.
    flat: OnceLock<Result<Arc<FlatGraph>, SimError>>,
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("signals", &self.signals)
            .field("cells", &self.cells)
            .field("assigns", &self.assigns)
            .finish_non_exhaustive()
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an internal signal and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or `width == 0`.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        self.add_signal_dir(name, width, PortDir::Internal)
    }

    /// Adds a top-level input port.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or `width == 0`.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        self.add_signal_dir(name, width, PortDir::Input)
    }

    fn add_signal_dir(&mut self, name: impl Into<String>, width: u32, dir: PortDir) -> SignalId {
        self.try_add_signal(name, width, dir)
            .unwrap_or_else(|old| panic!("duplicate signal name {}", self.signal(old).name))
    }

    /// Adds a signal, or returns the id of the signal that already has its
    /// name. The name is stored once and hashed once.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn try_add_signal(
        &mut self,
        name: impl Into<String>,
        width: u32,
        dir: PortDir,
    ) -> Result<SignalId, SignalId> {
        let name = name.into();
        assert!(width > 0, "signal {name} must have width >= 1");
        let id = id32(self.signals.len());
        let signals = &self.signals;
        self.by_name
            .insert(&name, id, |i| signals[i as usize].name.as_str())
            .map_err(SignalId)?;
        self.flat.take();
        self.signals.push(Signal { name, width, dir });
        Ok(SignalId(id))
    }

    /// Marks an existing signal as a top-level output.
    pub fn mark_output(&mut self, id: SignalId) {
        self.flat.take();
        self.signals[id.index()].dir = PortDir::Output;
    }

    /// Adds a cell instance; returns its id.
    ///
    /// Pin counts and widths are checked later by [`Netlist::validate`].
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<SignalId>,
        outputs: Vec<SignalId>,
    ) -> CellId {
        self.flat.take();
        let id = CellId(id32(self.cells.len()));
        self.cells.push(CellInst {
            name: name.into(),
            kind,
            inputs,
            outputs,
        });
        id
    }

    /// Adds an unconditional assignment `dst = src`.
    pub fn connect(&mut self, dst: SignalId, src: SignalId) {
        self.flat.take();
        self.assigns.push(Assign {
            dst,
            src,
            guard: None,
        });
    }

    /// Adds a guarded assignment `dst = guard ? src`.
    pub fn connect_guarded(&mut self, dst: SignalId, src: SignalId, guard: SignalId) {
        self.flat.take();
        self.assigns.push(Assign {
            dst,
            src,
            guard: Some(guard),
        });
    }

    /// The flattened graph both simulation engines run on: validated,
    /// CSR-indexed and topologically ordered once per netlist.
    ///
    /// # Errors
    ///
    /// The [`FlatGraph::new`] error, cached like the graph itself.
    pub(crate) fn flat_graph(&self) -> Result<Arc<FlatGraph>, SimError> {
        self.flat
            .get_or_init(|| FlatGraph::new(self).map(Arc::new))
            .clone()
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        let signals = &self.signals;
        self.by_name
            .get(name, |i| signals[i as usize].name.as_str())
            .map(SignalId)
    }

    /// The signal table.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// A signal's metadata.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// The cell table.
    pub fn cells(&self) -> &[CellInst] {
        &self.cells
    }

    /// The assignment table.
    pub fn assigns(&self) -> &[Assign] {
        &self.assigns
    }

    /// Renders assignment `idx` with signal names, for diagnostics:
    /// `dst = src` or `dst = guard ? src`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn describe_assign(&self, idx: usize) -> String {
        let a = &self.assigns[idx];
        let name = |s: SignalId| self.signals[s.index()].name.as_str();
        match a.guard {
            None => format!("{} = {}", name(a.dst), name(a.src)),
            Some(g) => format!("{} = {} ? {}", name(a.dst), name(g), name(a.src)),
        }
    }

    /// Top-level inputs in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dir == PortDir::Input)
            .map(|(i, _)| SignalId(id32(i)))
    }

    /// Top-level outputs in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dir == PortDir::Output)
            .map(|(i, _)| SignalId(id32(i)))
    }

    /// Checks structural well-formedness: pin counts, widths, single drivers.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        // Cell pins.
        for cell in &self.cells {
            let in_widths = cell.kind.input_widths();
            let out_widths = cell.kind.output_widths();
            if cell.inputs.len() != in_widths.len() {
                return Err(NetlistError::PinCount {
                    cell: cell.name.clone(),
                    detail: format!(
                        "expected {} inputs, got {}",
                        in_widths.len(),
                        cell.inputs.len()
                    ),
                });
            }
            if cell.outputs.len() != out_widths.len() {
                return Err(NetlistError::PinCount {
                    cell: cell.name.clone(),
                    detail: format!(
                        "expected {} outputs, got {}",
                        out_widths.len(),
                        cell.outputs.len()
                    ),
                });
            }
            for (i, (&sig, &w)) in cell.inputs.iter().zip(&in_widths).enumerate() {
                let actual = self.signals[sig.index()].width;
                if actual != w {
                    return Err(NetlistError::WidthMismatch {
                        site: format!("{} input pin {i}", cell.name),
                        expected: w,
                        actual,
                    });
                }
            }
            for (i, (&sig, &w)) in cell.outputs.iter().zip(&out_widths).enumerate() {
                let actual = self.signals[sig.index()].width;
                if actual != w {
                    return Err(NetlistError::WidthMismatch {
                        site: format!("{} output pin {i}", cell.name),
                        expected: w,
                        actual,
                    });
                }
            }
        }
        // Assign widths and guard widths.
        for a in &self.assigns {
            let (dw, sw) = (
                self.signals[a.dst.index()].width,
                self.signals[a.src.index()].width,
            );
            if dw != sw {
                return Err(NetlistError::WidthMismatch {
                    site: format!(
                        "assignment {} = {}",
                        self.signals[a.dst.index()].name,
                        self.signals[a.src.index()].name
                    ),
                    expected: dw,
                    actual: sw,
                });
            }
            if let Some(g) = a.guard {
                let gw = self.signals[g.index()].width;
                if gw != 1 {
                    return Err(NetlistError::GuardWidth {
                        signal: self.signals[g.index()].name.clone(),
                        width: gw,
                    });
                }
            }
        }
        // Driver uniqueness: each signal driven by at most one cell output,
        // and cell-driven signals may not also be assignment targets.
        let mut cell_driven = vec![false; self.signals.len()];
        for cell in &self.cells {
            for &out in &cell.outputs {
                if cell_driven[out.index()] {
                    return Err(NetlistError::MultipleDrivers {
                        signal: self.signals[out.index()].name.clone(),
                    });
                }
                cell_driven[out.index()] = true;
            }
        }
        for a in &self.assigns {
            if cell_driven[a.dst.index()] {
                return Err(NetlistError::MultipleDrivers {
                    signal: self.signals[a.dst.index()].name.clone(),
                });
            }
            if self.signals[a.dst.index()].dir == PortDir::Input {
                return Err(NetlistError::DrivenInput {
                    signal: self.signals[a.dst.index()].name.clone(),
                });
            }
        }
        for cell in &self.cells {
            for &out in &cell.outputs {
                if self.signals[out.index()].dir == PortDir::Input {
                    return Err(NetlistError::DrivenInput {
                        signal: self.signals[out.index()].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Total number of state bits held in sequential cells — the "Registers"
    /// column of the paper's Table 2.
    pub fn state_bits(&self) -> u64 {
        self.cells.iter().map(|c| c.kind.state_bits()).sum()
    }
}
