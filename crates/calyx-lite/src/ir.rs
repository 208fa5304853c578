//! The Calyx-lite IR: programs, components, cells, guarded assignments.

use fil_bits::Value;
use rtl_sim::CellKind;
use std::collections::HashMap;
use std::fmt;

/// Errors produced while building, checking, or elaborating programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalyxError {
    /// Reference to an unknown component.
    UnknownComponent(String),
    /// Reference to an unknown cell within a component.
    UnknownCell {
        /// Enclosing component.
        component: String,
        /// The missing cell name.
        cell: String,
    },
    /// Reference to an unknown port.
    UnknownPort {
        /// Enclosing component.
        component: String,
        /// The `cell.port` path that failed to resolve.
        port: String,
    },
    /// Width disagreement in an assignment.
    WidthMismatch {
        /// Enclosing component.
        component: String,
        /// Description of the assignment.
        site: String,
        /// Destination width.
        dst: u32,
        /// Source width.
        src: u32,
    },
    /// Instantiation cycle (a component transitively containing itself).
    RecursiveComponent(String),
    /// Duplicate definition.
    Duplicate(String),
    /// Error from netlist construction.
    Netlist(String),
}

impl fmt::Display for CalyxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalyxError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            CalyxError::UnknownCell { component, cell } => {
                write!(f, "unknown cell {cell} in component {component}")
            }
            CalyxError::UnknownPort { component, port } => {
                write!(f, "unknown port {port} in component {component}")
            }
            CalyxError::WidthMismatch {
                component,
                site,
                dst,
                src,
            } => write!(
                f,
                "width mismatch in {component} at {site}: destination {dst} vs source {src}"
            ),
            CalyxError::RecursiveComponent(c) => {
                write!(f, "recursive instantiation of component {c}")
            }
            CalyxError::Duplicate(d) => write!(f, "duplicate definition of {d}"),
            CalyxError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for CalyxError {}

/// A pin list: `(port_name, width)` pairs in pin order.
pub type PortList = Vec<(&'static str, u32)>;

/// Canonical port names and widths for a primitive cell: `(inputs, outputs)`.
///
/// These are the names Low Filament assignments use (`A.left`, `Gf._0`, …).
/// Every name is static: a shift FSM's `_i` outputs come from a process-wide
/// table that grows to the longest FSM seen, so no call allocates a name.
pub fn primitive_ports(kind: &CellKind) -> (PortList, PortList) {
    use CellKind::*;
    let named = |names: &[&'static str], widths: Vec<u32>| -> PortList {
        names.iter().copied().zip(widths).collect()
    };
    let ins = kind.input_widths();
    let outs = kind.output_widths();
    match kind {
        Const { .. } => (vec![], named(&["out"], outs)),
        Add { .. }
        | Sub { .. }
        | MulComb { .. }
        | And { .. }
        | Or { .. }
        | Xor { .. }
        | ShlDyn { .. }
        | ShrDyn { .. }
        | Eq { .. }
        | Lt { .. }
        | Ge { .. }
        | MultPipe { .. } => (named(&["left", "right"], ins), named(&["out"], outs)),
        Not { .. }
        | ShlConst { .. }
        | ShrConst { .. }
        | ReduceOr { .. }
        | ReduceAnd { .. }
        | Clz { .. }
        | Slice { .. }
        | ZeroExt { .. }
        | SBox => (named(&["in"], ins), named(&["out"], outs)),
        Concat { .. } => (named(&["hi", "lo"], ins), named(&["out"], outs)),
        Mux { .. } => (named(&["sel", "in0", "in1"], ins), named(&["out"], outs)),
        Reg { has_en, .. } => {
            if *has_en {
                (named(&["en", "in"], ins), named(&["out"], outs))
            } else {
                (named(&["in"], ins), named(&["out"], outs))
            }
        }
        ShiftFsm { n } => {
            static NAMES: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
            let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
            for i in names.len()..*n as usize {
                names.push(Box::leak(format!("_{i}").into_boxed_str()));
            }
            (named(&["go"], ins), named(&names[..*n as usize], outs))
        }
        MultSeq { .. } => (named(&["go", "left", "right"], ins), named(&["out"], outs)),
        Dsp48 { .. } => (named(&["a", "b", "c", "pcin"], ins), named(&["p"], outs)),
    }
}

/// What a cell instantiates: a leaf primitive or another component.
#[derive(Debug, Clone)]
pub enum CellProto {
    /// A primitive from the [`rtl_sim`] cell library.
    Primitive(CellKind),
    /// A sub-component, by name.
    Component(String),
}

/// A named cell instance inside a component.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// What it instantiates.
    pub proto: CellProto,
}

/// A reference to a port: either `cell.port` or a port of the enclosing
/// component (`cell == None`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The owning cell, or `None` for the enclosing component's ports.
    pub cell: Option<String>,
    /// The port name.
    pub port: String,
}

impl PortRef {
    /// A port on a cell: `cell.port`.
    pub fn cell(cell: impl Into<String>, port: impl Into<String>) -> Self {
        PortRef {
            cell: Some(cell.into()),
            port: port.into(),
        }
    }

    /// A port of the enclosing component.
    pub fn this(port: impl Into<String>) -> Self {
        PortRef {
            cell: None,
            port: port.into(),
        }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cell {
            Some(c) => write!(f, "{c}.{}", self.port),
            None => write!(f, "{}", self.port),
        }
    }
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Src {
    /// Another port.
    Port(PortRef),
    /// A constant value.
    Const(Value),
}

impl Src {
    /// Shorthand for a port source.
    pub fn port(p: PortRef) -> Self {
        Src::Port(p)
    }

    /// Shorthand for a port of the enclosing component.
    pub fn this(port: impl Into<String>) -> Self {
        Src::Port(PortRef::this(port))
    }

    /// Shorthand for a constant source.
    pub fn konst(v: Value) -> Self {
        Src::Const(v)
    }
}

/// An assignment guard: a disjunction of 1-bit ports (Section 5.2's
/// synthesized guards `Gf._s || … || Gf._e`), or the trivially-true guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Always active (a continuous wire).
    True,
    /// Active when any of these 1-bit ports is high.
    Any(Vec<PortRef>),
}

impl Guard {
    /// Guard from a single port.
    pub fn port(p: PortRef) -> Self {
        Guard::Any(vec![p])
    }

    /// True if this is the trivial guard.
    pub fn is_true(&self) -> bool {
        matches!(self, Guard::True) || matches!(self, Guard::Any(v) if v.is_empty())
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::True => write!(f, "1"),
            Guard::Any(ports) => {
                let parts: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
                write!(f, "{}", parts.join(" || "))
            }
        }
    }
}

/// A guarded assignment `dst = guard ? src`.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Destination port.
    pub dst: PortRef,
    /// Source port or constant.
    pub src: Src,
    /// Activation guard.
    pub guard: Guard,
}

/// A Calyx-lite component: ports, cells, and wires (guarded assignments).
///
/// The `control` section of real Calyx is always empty for Filament output
/// (Figure 6), so it is omitted entirely.
#[derive(Debug, Clone)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Input ports `(name, width)`.
    pub inputs: Vec<(String, u32)>,
    /// Output ports `(name, width)`.
    pub outputs: Vec<(String, u32)>,
    /// Cell instances.
    pub cells: Vec<Cell>,
    /// Guarded assignments.
    pub assigns: Vec<Assign>,
}

impl Component {
    /// Creates an empty component.
    pub fn new(name: impl Into<String>) -> Self {
        Component {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            cells: Vec::new(),
            assigns: Vec::new(),
        }
    }

    /// Declares an input port.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) {
        self.inputs.push((name.into(), width));
    }

    /// Declares an output port.
    pub fn add_output(&mut self, name: impl Into<String>, width: u32) {
        self.outputs.push((name.into(), width));
    }

    /// Adds a primitive cell.
    pub fn add_primitive(&mut self, name: impl Into<String>, kind: CellKind) {
        self.cells.push(Cell {
            name: name.into(),
            proto: CellProto::Primitive(kind),
        });
    }

    /// Adds a sub-component cell.
    pub fn add_subcomponent(&mut self, name: impl Into<String>, component: impl Into<String>) {
        self.cells.push(Cell {
            name: name.into(),
            proto: CellProto::Component(component.into()),
        });
    }

    /// Adds an unguarded assignment.
    pub fn assign(&mut self, dst: PortRef, src: Src) {
        self.assigns.push(Assign {
            dst,
            src,
            guard: Guard::True,
        });
    }

    /// Adds a guarded assignment.
    pub fn assign_guarded(&mut self, dst: PortRef, src: Src, guard: Guard) {
        self.assigns.push(Assign { dst, src, guard });
    }

    /// Finds a cell by name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name == name)
    }
}

/// A program: a set of components, one of which is elaborated as the top.
#[derive(Debug, Clone, Default)]
pub struct Program {
    components: Vec<Component>,
    by_name: HashMap<String, usize>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component definition.
    ///
    /// # Panics
    ///
    /// Panics on duplicate component names.
    pub fn add_component(&mut self, c: Component) {
        assert!(
            !self.by_name.contains_key(&c.name),
            "duplicate component {}",
            c.name
        );
        self.by_name.insert(c.name.clone(), self.components.len());
        self.components.push(c);
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.by_name.get(name).map(|&i| &self.components[i])
    }

    /// All components in insertion order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Mutable access to every component, in insertion order.
    ///
    /// A slice (not `&mut Vec`) so callers can rewrite component *bodies*
    /// (what the optimizer does) but cannot add, remove, or reorder
    /// definitions, which would desynchronize the name index. Renaming a
    /// component through this handle would too — don't.
    pub fn components_mut(&mut self) -> &mut [Component] {
        &mut self.components
    }

    /// Flattens the hierarchy rooted at `top` into a simulatable netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`CalyxError`] for unresolved references, width mismatches,
    /// or recursive instantiation.
    pub fn elaborate(&self, top: &str) -> Result<rtl_sim::Netlist, CalyxError> {
        crate::elaborate::elaborate(self, top)
    }
}
