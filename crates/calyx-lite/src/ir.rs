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

/// The most states a [`CellKind::ShiftFsm`] may have: 2^16. An FSM is a
/// shift register with one output pin, wire and Verilog net per state
/// (and [`primitive_ports`] keeps one name per state for good), so
/// `lower` refuses a longer one and the decoder rejects it.
pub const MAX_FSM_STATES: u32 = 1 << 16;

/// What a cell instantiates: a leaf primitive or another component.
#[derive(Debug, Clone)]
pub enum CellProto {
    /// A primitive from the [`rtl_sim`] cell library.
    Primitive(CellKind),
    /// A sub-component, by name.
    Component(String),
}

/// A name in a [`Component`]'s symbol table, [`Names`]: a cell, a port,
/// or a name that no cell or port of the component has (elaboration
/// reports it as unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The position of this name in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A component's symbol table: each cell and port name it mentions, once,
/// in first-mention order. It is the only place a component keeps names;
/// cells, port lists and assignments hold [`Sym`]s into it.
#[derive(Clone, Default)]
pub struct Names {
    /// Every name, back to back; name `i` ends at `ends[i]`.
    text: String,
    ends: Vec<u32>,
    index: rtl_sim::NameIndex,
}

impl Names {
    /// The symbol of `name`, added if the table lacks it.
    ///
    /// # Panics
    ///
    /// Panics if the table's text would reach 4 GiB.
    pub fn intern(&mut self, name: &str) -> Sym {
        let id = u32::try_from(self.ends.len()).expect("symbol tables hold under 2^32 names");
        let (text, ends) = (&self.text, &self.ends);
        match self
            .index
            .insert(name, id, |i| slice(text, ends, i as usize))
        {
            Err(old) => Sym(old),
            Ok(()) => {
                self.text.push_str(name);
                let end = u32::try_from(self.text.len()).expect("symbol tables hold under 4 GiB");
                self.ends.push(end);
                Sym(id)
            }
        }
    }

    /// The symbol of `name`, if the table has it.
    pub fn get(&self, name: &str) -> Option<Sym> {
        let (text, ends) = (&self.text, &self.ends);
        self.index
            .get(name, |i| slice(text, ends, i as usize))
            .map(Sym)
    }

    /// The number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every name, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| slice(&self.text, &self.ends, i))
    }

    /// `cell.port`, or `port` alone for the component's own ports.
    pub fn port(&self, p: PortRef) -> String {
        match p.cell {
            Some(c) => format!("{}.{}", &self[c], &self[p.port]),
            None => self[p.port].to_owned(),
        }
    }
}

/// Name `i` of a table's `text` and `ends`.
fn slice<'t>(text: &'t str, ends: &[u32], i: usize) -> &'t str {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &text[start..ends[i] as usize]
}

impl std::ops::Index<Sym> for Names {
    type Output = str;
    fn index(&self, s: Sym) -> &str {
        slice(&self.text, &self.ends, s.index())
    }
}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A named cell instance inside a component.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name.
    pub name: Sym,
    /// What it instantiates.
    pub proto: CellProto,
}

/// A reference to a port: either `cell.port` or a port of the enclosing
/// component (`cell == None`), both names in the component's [`Names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The owning cell, or `None` for the enclosing component's ports.
    pub cell: Option<Sym>,
    /// The port name.
    pub port: Sym,
}

impl PortRef {
    /// A port on a cell: `cell.port`.
    pub fn cell(cell: Sym, port: Sym) -> Self {
        PortRef {
            cell: Some(cell),
            port,
        }
    }

    /// A port of the enclosing component.
    pub fn this(port: Sym) -> Self {
        PortRef { cell: None, port }
    }
}

/// A port named for [`Component`]'s builder: a port of the component by
/// name (`"x"`), a cell's port by names (`("add0", "out")`), or a
/// [`PortRef`] as it is.
pub trait IntoPort {
    /// The reference, interning its names into `names`.
    fn into_port(self, names: &mut Names) -> PortRef;
}

impl IntoPort for PortRef {
    fn into_port(self, _: &mut Names) -> PortRef {
        self
    }
}

impl IntoPort for &str {
    fn into_port(self, names: &mut Names) -> PortRef {
        PortRef::this(names.intern(self))
    }
}

impl<C: AsRef<str>, P: AsRef<str>> IntoPort for (C, P) {
    fn into_port(self, names: &mut Names) -> PortRef {
        PortRef::cell(names.intern(self.0.as_ref()), names.intern(self.1.as_ref()))
    }
}

/// A source for [`Component`]'s builder: any [`IntoPort`], a constant
/// [`Value`], or a [`Src`].
pub trait IntoSrc {
    /// The source, interning its names into `names`.
    fn into_src(self, names: &mut Names) -> Src;
}

impl<T: IntoPort> IntoSrc for T {
    fn into_src(self, names: &mut Names) -> Src {
        Src::Port(self.into_port(names))
    }
}

impl IntoSrc for Value {
    fn into_src(self, _: &mut Names) -> Src {
        Src::Const(self)
    }
}

impl IntoSrc for Src {
    fn into_src(self, _: &mut Names) -> Src {
        self
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
    /// The disjuncts; empty for the trivially-true guard (both
    /// `Guard::True` and an empty `Guard::Any`).
    pub fn ports(&self) -> &[PortRef] {
        match self {
            Guard::True => &[],
            Guard::Any(ports) => ports,
        }
    }

    /// True if this is the trivial guard.
    pub fn is_true(&self) -> bool {
        self.ports().is_empty()
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

/// A Calyx-lite component: ports, cells, and wires (guarded assignments),
/// over one symbol table.
///
/// The `control` section of real Calyx is always empty for Filament output
/// (Figure 6), so it is omitted entirely.
#[derive(Debug, Clone)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Every cell and port name the component mentions.
    pub names: Names,
    /// Input ports `(name, width)`.
    pub inputs: Vec<(Sym, u32)>,
    /// Output ports `(name, width)`.
    pub outputs: Vec<(Sym, u32)>,
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
            names: Names::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            cells: Vec::new(),
            assigns: Vec::new(),
        }
    }

    /// Declares an input port.
    pub fn add_input(&mut self, name: impl AsRef<str>, width: u32) -> Sym {
        let sym = self.names.intern(name.as_ref());
        self.inputs.push((sym, width));
        sym
    }

    /// Declares an output port.
    pub fn add_output(&mut self, name: impl AsRef<str>, width: u32) -> Sym {
        let sym = self.names.intern(name.as_ref());
        self.outputs.push((sym, width));
        sym
    }

    /// Adds a primitive cell.
    pub fn add_primitive(&mut self, name: impl AsRef<str>, kind: CellKind) -> Sym {
        self.add_cell(name, CellProto::Primitive(kind))
    }

    /// Adds a sub-component cell.
    pub fn add_subcomponent(&mut self, name: impl AsRef<str>, component: impl Into<String>) -> Sym {
        self.add_cell(name, CellProto::Component(component.into()))
    }

    fn add_cell(&mut self, name: impl AsRef<str>, proto: CellProto) -> Sym {
        let name = self.names.intern(name.as_ref());
        self.cells.push(Cell { name, proto });
        name
    }

    /// Adds an unguarded assignment.
    pub fn assign(&mut self, dst: impl IntoPort, src: impl IntoSrc) {
        let (dst, src) = (
            dst.into_port(&mut self.names),
            src.into_src(&mut self.names),
        );
        self.assigns.push(Assign {
            dst,
            src,
            guard: Guard::True,
        });
    }

    /// Adds an assignment guarded by the disjunction of `guard`.
    pub fn assign_guarded<P: IntoPort>(
        &mut self,
        dst: impl IntoPort,
        src: impl IntoSrc,
        guard: impl IntoIterator<Item = P>,
    ) {
        let (dst, src) = (
            dst.into_port(&mut self.names),
            src.into_src(&mut self.names),
        );
        let guard = Guard::Any(
            guard
                .into_iter()
                .map(|p| p.into_port(&mut self.names))
                .collect(),
        );
        self.assigns.push(Assign { dst, src, guard });
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
