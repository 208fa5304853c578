//! The workspace's byte codec ([`Writer`]/[`Reader`]), and the versioned
//! binary serialization of Calyx-lite components and netlists built on it.
//!
//! The `fil-build` driver persists each compiled unit's lowered
//! [`Component`] to a cross-session artifact cache, so the format must be
//! (a) **deterministic** — the same component always encodes to the same
//! bytes, making artifacts content-comparable across `-j1`/`-jN` and
//! cold/warm builds — and (b) **corruption-safe** — decoding untrusted
//! bytes (truncated files, flipped bits, stale format versions) must fail
//! with a [`DecodeError`], never panic, and never produce a component that
//! silently differs from what was encoded (every length is bounds-checked
//! against the remaining input and every tag is validated).
//!
//! The encoding is little-endian throughout: `u32`/`u64` fixed-width,
//! strings as a `u32` length prefix plus UTF-8 bytes, sequences as a `u32`
//! count prefix, and one tag byte per enum variant. A [`FORMAT_VERSION`]
//! header guards layout changes: bump it whenever the encoding of any type
//! below changes, and old artifacts simply decode as
//! [`DecodeError::Version`] (the driver treats that as a cache miss).

use crate::ir::{Assign, Cell, CellProto, Component, Guard, PortRef, Src, Sym, MAX_FSM_STATES};
use fil_bits::Value;
use rtl_sim::CellKind;
use std::fmt;

/// Version of the binary layout. Decoders reject anything else.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every encoded component.
const MAGIC: [u8; 4] = *b"CLC1";

/// Widest [`Value`], port or pin the decoder will materialize (a corrupted
/// width prefix must not allocate unbounded memory).
const MAX_VALUE_WIDTH: u32 = 1 << 20;

/// The cell field of a [`PortRef`] to a port of the component itself.
const NO_CELL: u32 = u32::MAX;

/// Decoding failures. All of them are recoverable: the caller should treat
/// the input as a stale or corrupted artifact and rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value being read was complete.
    Truncated,
    /// The magic header is wrong — not this encoding at all.
    BadMagic,
    /// The format version is not the one this build reads (for
    /// components and netlists, [`FORMAT_VERSION`]).
    Version {
        /// The version found in the input.
        found: u32,
    },
    /// An enum tag byte is out of range.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A structurally invalid value (non-UTF-8 string, zero/oversized
    /// width, length prefix larger than the remaining input).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::Version { found } => write!(f, "unsupported format version {found}"),
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn bad_tag(what: &'static str, tag: u8) -> DecodeError {
    DecodeError::BadTag { what, tag }
}

// ------------------------------------------------------------------ codec

/// The workspace's one byte writer: little-endian integers, strings behind
/// a `u32` length prefix, one tag byte per option. Components and netlists
/// here, and `fil-build`'s artifacts, AST codec and wire protocol, all
/// encode through it and decode through [`Reader`].
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer { out }
    }
    /// The buffer written to, for nested encoders that take one.
    #[inline]
    pub fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }
    /// Bytes as they are, with no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    /// A `u32` length or count prefix.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`. Every prefix counts a name, list
    /// or table already in memory, and none comes near 2^32 entries: wire
    /// frames are at most `MAX_FRAME_LEN` (2^26) bytes, a component holds
    /// at most `mono`'s 2^20 commands, and netlist tables are indexed by
    /// `u32` ids.
    #[inline]
    pub fn len_prefix(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("length prefixes stay below 2^32"));
    }
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.raw(s.as_bytes());
    }
    /// Tag `0`, or tag `1` and the string.
    pub fn opt_str(&mut self, s: Option<&str>) {
        self.u8(u8::from(s.is_some()));
        if let Some(s) = s {
            self.str(s);
        }
    }
}

/// The bounds-checked reader for [`Writer`]'s encodings: every read checks
/// the remaining input first, so bad bytes give a [`DecodeError`], never a
/// panic or an oversized allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }
    /// The unread input, for nested decoders (skip what they used with
    /// [`Reader::take`]).
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }
    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_ref().map(str::to_owned)
    }
    /// A string, validated in place and borrowed from the input.
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::Invalid("string"))
    }
    pub fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            tag => Err(bad_tag("option", tag)),
        }
    }
    /// Checks a `magic` + `version` header.
    pub fn header(&mut self, magic: [u8; 4], version: u32) -> Result<(), DecodeError> {
        if self.take(4)? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.u32()? {
            found if found != version => Err(DecodeError::Version { found }),
            _ => Ok(()),
        }
    }
    /// A sequence count, validated against the remaining input so a
    /// corrupted prefix cannot trigger a huge allocation (`min_elem_size`
    /// is a lower bound on the encoding of one element).
    #[inline]
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.buf.len() - self.pos {
            return Err(DecodeError::Invalid("sequence length"));
        }
        Ok(n)
    }
}

// --------------------------------------------------------------- encoding

impl Writer<'_> {
    fn value(&mut self, v: &Value) {
        self.u32(v.width());
        // Limb count is implied by the width; limbs are stored masked
        // (Value's invariant), keeping the encoding canonical.
        for limb in v.limbs() {
            self.u64(*limb);
        }
    }
    fn port_ref(&mut self, p: PortRef) {
        self.u32(p.cell.map_or(NO_CELL, |c| c.0));
        self.u32(p.port.0);
    }
    fn src(&mut self, s: &Src) {
        match s {
            Src::Port(p) => {
                self.u8(0);
                self.port_ref(*p);
            }
            Src::Const(v) => {
                self.u8(1);
                self.value(v);
            }
        }
    }
    fn guard(&mut self, g: &Guard) {
        match g {
            Guard::True => self.u8(0),
            Guard::Any(ports) => {
                self.u8(1);
                self.len_prefix(ports.len());
                for &p in ports {
                    self.port_ref(p);
                }
            }
        }
    }
    #[allow(clippy::too_many_lines)] // One arm per CellKind variant.
    fn cell_kind(&mut self, k: &CellKind) {
        use CellKind::*;
        match k {
            Const { value } => {
                self.u8(0);
                self.value(value);
            }
            Add { width } => self.tagged(1, &[*width]),
            Sub { width } => self.tagged(2, &[*width]),
            MulComb { width } => self.tagged(3, &[*width]),
            And { width } => self.tagged(4, &[*width]),
            Or { width } => self.tagged(5, &[*width]),
            Xor { width } => self.tagged(6, &[*width]),
            Not { width } => self.tagged(7, &[*width]),
            ShlDyn { width } => self.tagged(8, &[*width]),
            ShrDyn { width } => self.tagged(9, &[*width]),
            ShlConst { width, amount } => self.tagged(10, &[*width, *amount]),
            ShrConst { width, amount } => self.tagged(11, &[*width, *amount]),
            Eq { width } => self.tagged(12, &[*width]),
            Lt { width } => self.tagged(13, &[*width]),
            Ge { width } => self.tagged(14, &[*width]),
            Mux { width } => self.tagged(15, &[*width]),
            Slice { in_width, hi, lo } => self.tagged(16, &[*in_width, *hi, *lo]),
            Concat { hi_width, lo_width } => self.tagged(17, &[*hi_width, *lo_width]),
            ZeroExt {
                in_width,
                out_width,
            } => self.tagged(18, &[*in_width, *out_width]),
            ReduceOr { width } => self.tagged(19, &[*width]),
            ReduceAnd { width } => self.tagged(20, &[*width]),
            Clz { width } => self.tagged(21, &[*width]),
            SBox => self.u8(22),
            Reg {
                width,
                init,
                has_en,
            } => {
                self.tagged(23, &[*width]);
                self.u64(*init);
                self.u8(*has_en as u8);
            }
            ShiftFsm { n } => self.tagged(24, &[*n]),
            MultSeq { width, latency } => self.tagged(25, &[*width, *latency]),
            MultPipe { width, latency } => self.tagged(26, &[*width, *latency]),
            Dsp48 {
                width,
                use_c,
                use_pcin,
            } => {
                self.tagged(27, &[*width]);
                self.u8(*use_c as u8);
                self.u8(*use_pcin as u8);
            }
        }
    }
    /// A cell-kind tag followed by its `u32` fields.
    fn tagged(&mut self, tag: u8, fields: &[u32]) {
        self.u8(tag);
        for &f in fields {
            self.u32(f);
        }
    }
}

/// Appends the canonical encoding of `c` to `out`: the symbol table once,
/// then every port, cell and reference as `u32` symbols into it.
pub fn encode_component(c: &Component, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    w.raw(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(&c.name);
    w.len_prefix(c.names.len());
    for name in c.names.iter() {
        w.str(name);
    }
    for ports in [&c.inputs, &c.outputs] {
        w.len_prefix(ports.len());
        for &(name, width) in ports {
            w.u32(name.0);
            w.u32(width);
        }
    }
    w.len_prefix(c.cells.len());
    for cell in &c.cells {
        w.u32(cell.name.0);
        match &cell.proto {
            CellProto::Primitive(kind) => {
                w.u8(0);
                w.cell_kind(kind);
            }
            CellProto::Component(name) => {
                w.u8(1);
                w.str(name);
            }
        }
    }
    w.len_prefix(c.assigns.len());
    for a in &c.assigns {
        w.port_ref(a.dst);
        w.src(&a.src);
        w.guard(&a.guard);
    }
}

// --------------------------------------------------------------- decoding

/// `s` as a symbol of a table of `names` entries.
fn sym_in(s: u32, names: usize) -> Result<Sym, DecodeError> {
    if (s as usize) < names {
        Ok(Sym(s))
    } else {
        Err(DecodeError::Invalid("symbol"))
    }
}

impl Reader<'_> {
    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(bad_tag("bool", tag)),
        }
    }
    fn value(&mut self) -> Result<Value, DecodeError> {
        let width = self.u32()?;
        if width == 0 || width > MAX_VALUE_WIDTH {
            return Err(DecodeError::Invalid("value width"));
        }
        let limbs = width.div_ceil(64) as usize;
        let mut v = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            v.push(self.u64()?);
        }
        let value = Value::from_limbs(width, &v);
        // from_limbs masks the top limb; a canonical encoding stores
        // already-masked limbs, so a mismatch means corruption.
        if value.limbs() != v.as_slice() {
            return Err(DecodeError::Invalid("value limbs"));
        }
        Ok(value)
    }
    /// A symbol of a table of `names` entries.
    fn sym(&mut self, names: usize) -> Result<Sym, DecodeError> {
        sym_in(self.u32()?, names)
    }
    /// A port or pin width.
    fn width(&mut self) -> Result<u32, DecodeError> {
        match self.u32()? {
            w if (1..=MAX_VALUE_WIDTH).contains(&w) => Ok(w),
            _ => Err(DecodeError::Invalid("port width")),
        }
    }
    fn port_ref(&mut self, names: usize) -> Result<PortRef, DecodeError> {
        let cell = match self.u32()? {
            NO_CELL => None,
            cell => Some(sym_in(cell, names)?),
        };
        Ok(PortRef {
            cell,
            port: self.sym(names)?,
        })
    }
    fn src(&mut self, names: usize) -> Result<Src, DecodeError> {
        match self.u8()? {
            0 => Ok(Src::Port(self.port_ref(names)?)),
            1 => Ok(Src::Const(self.value()?)),
            tag => Err(bad_tag("src", tag)),
        }
    }
    fn guard(&mut self, names: usize) -> Result<Guard, DecodeError> {
        match self.u8()? {
            0 => Ok(Guard::True),
            1 => {
                let n = self.count(8)?;
                let mut ports = Vec::with_capacity(n);
                for _ in 0..n {
                    ports.push(self.port_ref(names)?);
                }
                Ok(Guard::Any(ports))
            }
            tag => Err(bad_tag("guard", tag)),
        }
    }
    /// A cell kind that elaboration, emission and the optimizer take as
    /// it is: every pin 1 to [`MAX_VALUE_WIDTH`] bits wide, a slice
    /// inside its input, and an FSM of at most [`MAX_FSM_STATES`] states.
    fn cell_kind(&mut self) -> Result<CellKind, DecodeError> {
        use CellKind::*;
        let kind = self.any_cell_kind()?;
        let sound = match kind {
            Slice { in_width, hi, lo } => lo <= hi && hi < in_width,
            Concat { hi_width, lo_width } => hi_width.max(lo_width) <= MAX_VALUE_WIDTH,
            ShiftFsm { n } => n <= MAX_FSM_STATES,
            _ => true,
        };
        let widths = || kind.input_widths().into_iter().chain(kind.output_widths());
        if sound && widths().all(|w| (1..=MAX_VALUE_WIDTH).contains(&w)) {
            Ok(kind)
        } else {
            Err(DecodeError::Invalid("cell kind"))
        }
    }
    fn any_cell_kind(&mut self) -> Result<CellKind, DecodeError> {
        use CellKind::*;
        Ok(match self.u8()? {
            0 => Const {
                value: self.value()?,
            },
            1 => Add { width: self.u32()? },
            2 => Sub { width: self.u32()? },
            3 => MulComb { width: self.u32()? },
            4 => And { width: self.u32()? },
            5 => Or { width: self.u32()? },
            6 => Xor { width: self.u32()? },
            7 => Not { width: self.u32()? },
            8 => ShlDyn { width: self.u32()? },
            9 => ShrDyn { width: self.u32()? },
            10 => ShlConst {
                width: self.u32()?,
                amount: self.u32()?,
            },
            11 => ShrConst {
                width: self.u32()?,
                amount: self.u32()?,
            },
            12 => Eq { width: self.u32()? },
            13 => Lt { width: self.u32()? },
            14 => Ge { width: self.u32()? },
            15 => Mux { width: self.u32()? },
            16 => Slice {
                in_width: self.u32()?,
                hi: self.u32()?,
                lo: self.u32()?,
            },
            17 => Concat {
                hi_width: self.u32()?,
                lo_width: self.u32()?,
            },
            18 => ZeroExt {
                in_width: self.u32()?,
                out_width: self.u32()?,
            },
            19 => ReduceOr { width: self.u32()? },
            20 => ReduceAnd { width: self.u32()? },
            21 => Clz { width: self.u32()? },
            22 => SBox,
            23 => Reg {
                width: self.u32()?,
                init: self.u64()?,
                has_en: self.bool()?,
            },
            24 => ShiftFsm { n: self.u32()? },
            25 => MultSeq {
                width: self.u32()?,
                latency: self.u32()?,
            },
            26 => MultPipe {
                width: self.u32()?,
                latency: self.u32()?,
            },
            27 => Dsp48 {
                width: self.u32()?,
                use_c: self.bool()?,
                use_pcin: self.bool()?,
            },
            tag => return Err(bad_tag("cell kind", tag)),
        })
    }
}

/// Decodes one component from the front of `bytes`, returning it together
/// with the number of bytes consumed (so callers can embed encoded
/// components inside larger artifacts).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, corrupted, or version-skewed
/// input. Never panics on any byte sequence.
pub fn decode_component(bytes: &[u8]) -> Result<(Component, usize), DecodeError> {
    let mut r = Reader::new(bytes);
    r.header(MAGIC, FORMAT_VERSION)?;
    let mut c = Component::new(r.str()?);
    let names = r.count(4)?;
    for i in 0..names {
        if c.names.intern(r.str_ref()?).index() != i {
            return Err(DecodeError::Invalid("duplicate name"));
        }
    }
    for ports in [&mut c.inputs, &mut c.outputs] {
        for _ in 0..r.count(8)? {
            ports.push((r.sym(names)?, r.width()?));
        }
    }
    for _ in 0..r.count(5)? {
        let name = r.sym(names)?;
        let proto = match r.u8()? {
            0 => CellProto::Primitive(r.cell_kind()?),
            1 => CellProto::Component(r.str()?),
            tag => return Err(bad_tag("cell proto", tag)),
        };
        c.cells.push(Cell { name, proto });
    }
    for _ in 0..r.count(18)? {
        let dst = r.port_ref(names)?;
        let src = r.src(names)?;
        let guard = r.guard(names)?;
        c.assigns.push(Assign { dst, src, guard });
    }
    Ok((c, r.pos()))
}

// ------------------------------------------------------- netlist encoding

/// Magic bytes opening every encoded netlist.
const NETLIST_MAGIC: [u8; 4] = *b"CLN1";

/// A signal index as encoded: netlist ids are `u32` inside `rtl_sim`, so
/// this never fails.
fn id(index: usize) -> u32 {
    u32::try_from(index).expect("signal ids are u32")
}

/// Appends the canonical encoding of an elaborated netlist to `out`.
///
/// The compile-farm daemon serves post-[`crate::ir::Program::elaborate`]
/// netlists over its wire protocol, so the netlist needs the same
/// deterministic, corruption-safe treatment as [`encode_component`]:
/// signals as `(name, width, dir)` records, cells as their [`CellKind`]
/// plus pin lists of signal *indices* (signal ids are dense, in insertion
/// order), assignments as `(dst, src, guard?)` index triples. The shared
/// [`FORMAT_VERSION`] guards both layouts — a [`CellKind`] change bumps it
/// once for components and netlists alike.
pub fn encode_netlist(n: &rtl_sim::Netlist, out: &mut Vec<u8>) {
    use rtl_sim::PortDir;
    let mut w = Writer::new(out);
    w.raw(&NETLIST_MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(n.name());
    w.len_prefix(n.signals().len());
    for s in n.signals() {
        w.str(&s.name);
        w.u32(s.width);
        w.u8(match s.dir {
            PortDir::Input => 0,
            PortDir::Output => 1,
            PortDir::Internal => 2,
        });
    }
    w.len_prefix(n.cells().len());
    for c in n.cells() {
        w.str(&c.name);
        w.cell_kind(&c.kind);
        for pins in [&c.inputs, &c.outputs] {
            w.len_prefix(pins.len());
            for &s in pins {
                w.u32(id(s.index()));
            }
        }
    }
    w.len_prefix(n.assigns().len());
    for a in n.assigns() {
        w.u32(id(a.dst.index()));
        w.u32(id(a.src.index()));
        match a.guard {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                w.u32(id(g.index()));
            }
        }
    }
}

/// Decodes one netlist from the front of `bytes`, returning it together
/// with the number of bytes consumed.
///
/// The netlist is rebuilt through [`rtl_sim::Netlist`]'s public builder
/// API (signal ids are re-issued densely, matching the encoded indices)
/// and then structurally revalidated with [`rtl_sim::Netlist::validate`],
/// so a decoded netlist is always safe to hand to the simulator.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, corrupted, or version-skewed
/// input — including duplicate signal names, zero widths, out-of-range
/// signal indices, and structurally invalid results. Never panics on any
/// byte sequence.
pub fn decode_netlist(bytes: &[u8]) -> Result<(rtl_sim::Netlist, usize), DecodeError> {
    let mut r = Reader::new(bytes);
    r.header(NETLIST_MAGIC, FORMAT_VERSION)?;
    let mut net = rtl_sim::Netlist::new(r.str()?);
    let n_signals = r.count(9)?;
    let mut ids = Vec::with_capacity(n_signals);
    let mut outputs = Vec::new();
    for _ in 0..n_signals {
        let name = r.str()?;
        let width = r.u32()?;
        let dir = r.u8()?;
        // The builder panics on duplicates and zero widths; decoding must
        // not, so both become recoverable errors here.
        if width == 0 {
            return Err(DecodeError::Invalid("signal width"));
        }
        if net.signal_by_name(&name).is_some() {
            return Err(DecodeError::Invalid("duplicate signal name"));
        }
        let id = match dir {
            0 => net.add_input(name, width),
            1 | 2 => net.add_signal(name, width),
            tag => return Err(bad_tag("signal dir", tag)),
        };
        if dir == 1 {
            outputs.push(id);
        }
        ids.push(id);
    }
    for id in outputs {
        net.mark_output(id);
    }
    let signal = |idx: u32| {
        ids.get(idx as usize)
            .copied()
            .ok_or(DecodeError::Invalid("signal index"))
    };
    let pins = |r: &mut Reader<'_>| -> Result<Vec<_>, DecodeError> {
        let n = r.count(4)?;
        (0..n).map(|_| signal(r.u32()?)).collect()
    };
    for _ in 0..r.count(10)? {
        let (name, kind) = (r.str()?, r.cell_kind()?);
        let (inputs, cell_outputs) = (pins(&mut r)?, pins(&mut r)?);
        net.add_cell(name, kind, inputs, cell_outputs);
    }
    for _ in 0..r.count(9)? {
        let dst = signal(r.u32()?)?;
        let src = signal(r.u32()?)?;
        match r.u8()? {
            0 => net.connect(dst, src),
            1 => {
                let guard = signal(r.u32()?)?;
                net.connect_guarded(dst, src, guard);
            }
            tag => return Err(bad_tag("assign guard", tag)),
        }
    }
    net.validate()
        .map_err(|_| DecodeError::Invalid("netlist structure"))?;
    Ok((net, r.pos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;

    fn sample() -> Component {
        let mut c = Component::new("main");
        c.add_input("go", 1);
        c.add_input("x", 8);
        c.add_output("o", 200);
        c.add_primitive("add0", CellKind::Add { width: 8 });
        c.add_primitive(
            "k",
            CellKind::Const {
                value: Value::from_limbs(200, &[u64::MAX, 42, 7, 1]),
            },
        );
        c.add_primitive(
            "r",
            CellKind::Reg {
                width: 8,
                init: 3,
                has_en: true,
            },
        );
        c.add_subcomponent("sub0", "Inner_8");
        c.assign(("add0", "left"), "x");
        c.assign_guarded(
            ("r", "in"),
            Value::from_u64(8, 41),
            [("G_fsm", "_0"), ("G_fsm", "_2")],
        );
        c.assign("o", ("k", "out"));
        c
    }

    fn assert_component_eq(a: &Component, b: &Component) {
        // Component has no PartialEq; compare via the canonical encoding.
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        encode_component(a, &mut ea);
        encode_component(b, &mut eb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn roundtrips_and_is_deterministic() {
        let c = sample();
        let mut bytes = Vec::new();
        encode_component(&c, &mut bytes);
        let mut again = Vec::new();
        encode_component(&c, &mut again);
        assert_eq!(bytes, again, "encoding is deterministic");
        let (back, used) = decode_component(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_component_eq(&c, &back);
        // The decoded component still elaborates like the original when
        // embedded in a program (name/ports/cells all intact).
        assert_eq!(back.name, "main");
        assert_eq!(back.cells.len(), 4);
        assert_eq!(back.assigns.len(), 3);
    }

    #[test]
    fn every_cell_kind_roundtrips() {
        use CellKind::*;
        let kinds = vec![
            Const {
                value: Value::from_u64(64, u64::MAX),
            },
            Add { width: 1 },
            Sub { width: 2 },
            MulComb { width: 3 },
            And { width: 4 },
            Or { width: 5 },
            Xor { width: 6 },
            Not { width: 7 },
            ShlDyn { width: 8 },
            ShrDyn { width: 9 },
            ShlConst {
                width: 10,
                amount: 2,
            },
            ShrConst {
                width: 11,
                amount: 3,
            },
            Eq { width: 12 },
            Lt { width: 13 },
            Ge { width: 14 },
            Mux { width: 15 },
            Slice {
                in_width: 16,
                hi: 7,
                lo: 1,
            },
            Concat {
                hi_width: 17,
                lo_width: 4,
            },
            ZeroExt {
                in_width: 18,
                out_width: 36,
            },
            // A narrowing zero-extension truncates.
            ZeroExt {
                in_width: 36,
                out_width: 18,
            },
            ReduceOr { width: 19 },
            ReduceAnd { width: 20 },
            Clz { width: 21 },
            SBox,
            Reg {
                width: 22,
                init: 9,
                has_en: false,
            },
            ShiftFsm { n: 23 },
            MultSeq {
                width: 24,
                latency: 2,
            },
            MultPipe {
                width: 25,
                latency: 3,
            },
            Dsp48 {
                width: 26,
                use_c: true,
                use_pcin: false,
            },
        ];
        let mut c = Component::new("kinds");
        for (i, k) in kinds.into_iter().enumerate() {
            c.add_primitive(format!("c{i}"), k);
        }
        let mut bytes = Vec::new();
        encode_component(&c, &mut bytes);
        let (back, _) = decode_component(&bytes).unwrap();
        assert_component_eq(&c, &back);
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        encode_component(&sample(), &mut bytes);
        for n in 0..bytes.len() {
            let err = decode_component(&bytes[..n]);
            assert!(err.is_err(), "decoding {n}/{} bytes succeeded", bytes.len());
        }
    }

    #[test]
    fn single_byte_corruption_never_panics_or_misparses_silently_wrong_sizes() {
        let mut bytes = Vec::new();
        encode_component(&sample(), &mut bytes);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                // Either an error, or a component that decodes cleanly —
                // what matters is that no input panics or over-allocates.
                let _ = decode_component(&bad);
            }
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = Vec::new();
        encode_component(&sample(), &mut bytes);
        bytes[4] = bytes[4].wrapping_add(1);
        assert_eq!(
            decode_component(&bytes).unwrap_err(),
            DecodeError::Version {
                found: FORMAT_VERSION + 1
            }
        );
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert_eq!(
            decode_component(&bad_magic).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn huge_length_prefix_is_rejected_without_allocating() {
        // Magic + version + a name whose length prefix claims 4 GiB.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CLC1");
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_component(&bytes).is_err());
    }

    #[test]
    fn decoded_component_elaborates() {
        let mut inner = Component::new("Inner_8");
        inner.add_input("x", 8);
        inner.add_output("o", 8);
        inner.assign("o", "x");
        let mut outer = Component::new("Top");
        outer.add_input("x", 8);
        outer.add_output("o", 8);
        outer.add_subcomponent("i0", "Inner_8");
        outer.assign(("i0", "x"), "x");
        outer.assign("o", ("i0", "o"));
        let mut bytes = Vec::new();
        encode_component(&outer, &mut bytes);
        encode_component(&inner, &mut bytes);
        let (outer2, used) = decode_component(&bytes).unwrap();
        let (inner2, used2) = decode_component(&bytes[used..]).unwrap();
        assert_eq!(used + used2, bytes.len());
        let mut p = Program::new();
        p.add_component(outer2);
        p.add_component(inner2);
        assert!(p.elaborate("Top").is_ok());
    }

    fn sample_netlist() -> rtl_sim::Netlist {
        let mut net = rtl_sim::Netlist::new("Top");
        let x = net.add_input("x", 8);
        let en = net.add_input("en", 1);
        let sum = net.add_signal("add0.out", 8);
        let q = net.add_signal("r0.out", 8);
        let o = net.add_signal("o", 8);
        net.mark_output(o);
        net.add_cell("add0", CellKind::Add { width: 8 }, vec![x, x], vec![sum]);
        net.add_cell(
            "r0",
            CellKind::Reg {
                width: 8,
                init: 0,
                has_en: true,
            },
            vec![en, sum],
            vec![q],
        );
        net.connect_guarded(o, q, en);
        net.validate().expect("sample netlist is well-formed");
        net
    }

    #[test]
    fn netlist_roundtrips_and_is_deterministic() {
        let net = sample_netlist();
        let mut bytes = Vec::new();
        encode_netlist(&net, &mut bytes);
        let mut again = Vec::new();
        encode_netlist(&net, &mut again);
        assert_eq!(bytes, again, "netlist encoding is deterministic");
        let (back, used) = decode_netlist(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let mut reenc = Vec::new();
        encode_netlist(&back, &mut reenc);
        assert_eq!(bytes, reenc, "decode is the inverse of encode");
        assert_eq!(back.name(), "Top");
        assert_eq!(back.signals().len(), net.signals().len());
        assert_eq!(back.cells().len(), 2);
        assert_eq!(back.assigns().len(), 1);
        assert!(back.signal_by_name("add0.out").is_some());
        // Port directions survive: the simulator can drive the decoded
        // netlist directly.
        assert!(rtl_sim::Sim::new(&back).is_ok());
    }

    #[test]
    fn netlist_truncation_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        encode_netlist(&sample_netlist(), &mut bytes);
        for n in 0..bytes.len() {
            assert!(
                decode_netlist(&bytes[..n]).is_err(),
                "decoding {n}/{} bytes succeeded",
                bytes.len()
            );
        }
    }

    #[test]
    fn netlist_corruption_never_panics() {
        let mut bytes = Vec::new();
        encode_netlist(&sample_netlist(), &mut bytes);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                // Either an error or a structurally valid netlist — what
                // matters is no panic and no unbounded allocation.
                let _ = decode_netlist(&bad);
            }
        }
    }

    #[test]
    fn netlist_version_and_magic_are_checked() {
        let mut bytes = Vec::new();
        encode_netlist(&sample_netlist(), &mut bytes);
        let mut skewed = bytes.clone();
        skewed[4] = skewed[4].wrapping_add(1);
        assert_eq!(
            decode_netlist(&skewed).unwrap_err(),
            DecodeError::Version {
                found: FORMAT_VERSION + 1
            }
        );
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert_eq!(
            decode_netlist(&bad_magic).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn netlist_bad_signal_index_is_rejected() {
        let mut bytes = Vec::new();
        encode_netlist(&sample_netlist(), &mut bytes);
        // The final assignment's dst index lives near the end; poke an
        // obviously out-of-range index over it and expect a clean error.
        let n = bytes.len();
        bytes[n - 9..n - 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_netlist(&bytes).is_err());
    }
}
