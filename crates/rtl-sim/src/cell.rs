//! The primitive cell library: behavioral models of every leaf circuit.
//!
//! This is the reproduction's counterpart of the paper's Verilog standard
//! library (Section 7: "341 lines of Verilog for the standard library
//! primitives"). Each [`CellKind`] defines its pin widths, combinational
//! behavior (`CellKind::eval`), sequential behavior (`CellKind::tick`), both
//! over the [lane layout](fil_bits::lanes) at any width and lane count, and
//! which output pins depend combinationally on which input pins (used for
//! topological scheduling and combinational-loop detection).

use fil_bits::{lanes, Value};

/// The AES S-box, used by the PipelineC AES import (Appendix B.2).
pub const AES_SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// A primitive circuit: the leaves of every netlist.
///
/// Pin conventions are documented per variant; `eval` computes output
/// pin values from input pin values and state, `tick` advances state at a
/// clock edge (with standard nonblocking semantics: all new state is computed
/// from *old* state and the settled input values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Constant driver. Pins: `[] -> [out]`.
    Const {
        /// The constant value (also fixes the output width).
        value: Value,
    },
    /// Wrapping adder. Pins: `[a, b] -> [out]`.
    Add {
        /// Operand width.
        width: u32,
    },
    /// Wrapping subtractor. Pins: `[a, b] -> [out]`.
    Sub {
        /// Operand width.
        width: u32,
    },
    /// Single-cycle (combinational) multiplier, truncating. Pins: `[a, b] -> [out]`.
    MulComb {
        /// Operand width.
        width: u32,
    },
    /// Bitwise AND. Pins: `[a, b] -> [out]`.
    And {
        /// Operand width.
        width: u32,
    },
    /// Bitwise OR. Pins: `[a, b] -> [out]`.
    Or {
        /// Operand width.
        width: u32,
    },
    /// Bitwise XOR. Pins: `[a, b] -> [out]`.
    Xor {
        /// Operand width.
        width: u32,
    },
    /// Bitwise NOT. Pins: `[a] -> [out]`.
    Not {
        /// Operand width.
        width: u32,
    },
    /// Dynamic logical left shift. Pins: `[a, amount] -> [out]`.
    ShlDyn {
        /// Operand width (both pins).
        width: u32,
    },
    /// Dynamic logical right shift. Pins: `[a, amount] -> [out]`.
    ShrDyn {
        /// Operand width (both pins).
        width: u32,
    },
    /// Constant left shift. Pins: `[a] -> [out]`.
    ShlConst {
        /// Operand width.
        width: u32,
        /// Shift amount.
        amount: u32,
    },
    /// Constant right shift. Pins: `[a] -> [out]`.
    ShrConst {
        /// Operand width.
        width: u32,
        /// Shift amount.
        amount: u32,
    },
    /// Equality comparator. Pins: `[a, b] -> [out(1)]`.
    Eq {
        /// Operand width.
        width: u32,
    },
    /// Unsigned less-than. Pins: `[a, b] -> [out(1)]`.
    Lt {
        /// Operand width.
        width: u32,
    },
    /// Unsigned greater-or-equal. Pins: `[a, b] -> [out(1)]`.
    Ge {
        /// Operand width.
        width: u32,
    },
    /// Two-way multiplexer, `out = sel ? in1 : in0`.
    /// Pins: `[sel(1), in0, in1] -> [out]`.
    Mux {
        /// Data width.
        width: u32,
    },
    /// Bit-field extraction `a[hi:lo]`. Pins: `[a] -> [out(hi-lo+1)]`.
    Slice {
        /// Input width.
        in_width: u32,
        /// High bit index (inclusive).
        hi: u32,
        /// Low bit index (inclusive).
        lo: u32,
    },
    /// Concatenation `{hi, lo}`. Pins: `[hi, lo] -> [out]`.
    Concat {
        /// Width of the high part.
        hi_width: u32,
        /// Width of the low part.
        lo_width: u32,
    },
    /// Zero extension (or truncation if narrower). Pins: `[a] -> [out]`.
    ZeroExt {
        /// Input width.
        in_width: u32,
        /// Output width.
        out_width: u32,
    },
    /// OR-reduction. Pins: `[a] -> [out(1)]`.
    ReduceOr {
        /// Input width.
        width: u32,
    },
    /// AND-reduction. Pins: `[a] -> [out(1)]`.
    ReduceAnd {
        /// Input width.
        width: u32,
    },
    /// Count leading zeros (within the width). Pins: `[a] -> [out(width)]`.
    Clz {
        /// Operand width.
        width: u32,
    },
    /// AES S-box lookup. Pins: `[a(8)] -> [out(8)]`.
    SBox,
    /// Register with optional write enable: `out` is the stored value.
    /// Pins: `[en(1), in] -> [out]` when `has_en`, else `[in] -> [out]`.
    ///
    /// This one cell implements the paper's `Register`, `Delay`
    /// (`has_en = false`), and `Prev`/`ContPrev` primitives — they differ
    /// only in their Filament *signatures*, exactly as Section 7.2 notes
    /// ("the Verilog implementation of `Prev` is simply a register").
    Reg {
        /// Data width.
        width: u32,
        /// Power-on contents.
        init: u64,
        /// Whether pin 0 is a write enable.
        has_en: bool,
    },
    /// Pipelined FSM shift register (Section 5.1 `fsm F[n](trigger)`).
    /// Pins: `[trigger(1)] -> [_0, _1, …, _{n-1}]` (all 1 bit).
    /// `_0` equals `trigger` combinationally; `_i` is `trigger` delayed by
    /// `i` cycles.
    ShiftFsm {
        /// Number of states (output pins).
        n: u32,
    },
    /// Iterative (sequential, non-pipelined) multiplier with an explicit
    /// trigger: the paper's `Mult<T: 3>` with output at `[T+2, T+3)`.
    /// Pins: `[go(1), a, b] -> [out]`.
    ///
    /// Asserting `go` while a computation is in flight *restarts* it — the
    /// earlier result is silently lost, which is precisely the data
    /// corruption Filament's conflict-freedom rules out statically
    /// (Section 3.4).
    MultSeq {
        /// Operand width.
        width: u32,
        /// Cycles from inputs to output validity (the paper's `Mult` has 2).
        latency: u32,
    },
    /// Fully pipelined multiplier (the paper's `FastMult` at latency 2 and
    /// the Xilinx LogiCORE multiplier at latency 3). Pins: `[a, b] -> [out]`.
    MultPipe {
        /// Operand width.
        width: u32,
        /// Pipeline depth: output appears `latency` cycles after inputs.
        latency: u32,
    },
    /// DSP48E2-style multiply-accumulate slice with cascade input, used by
    /// the Reticle import (Section 7.2, Figure 8c).
    /// Pins: `[a, b, c, pcin] -> [p]`; `p = reg(reg(a)·reg(b) + C + PCIN)`,
    /// a 3-stage path (A/B regs, M reg, P reg).
    Dsp48 {
        /// Datapath width (the model is width-uniform).
        width: u32,
        /// Whether the `c` input participates in the P accumulation.
        use_c: bool,
        /// Whether the cascade input `pcin` participates.
        use_pcin: bool,
    },
}

impl CellKind {
    /// Widths of the input pins, in pin order.
    pub fn input_widths(&self) -> Vec<u32> {
        use CellKind::*;
        match *self {
            Const { .. } => vec![],
            Add { width }
            | Sub { width }
            | MulComb { width }
            | And { width }
            | Or { width }
            | Xor { width }
            | ShlDyn { width }
            | ShrDyn { width }
            | Eq { width }
            | Lt { width }
            | Ge { width } => {
                vec![width, width]
            }
            Not { width }
            | ShlConst { width, .. }
            | ShrConst { width, .. }
            | ReduceOr { width }
            | ReduceAnd { width }
            | Clz { width } => vec![width],
            Mux { width } => vec![1, width, width],
            Slice { in_width, .. } => vec![in_width],
            Concat { hi_width, lo_width } => vec![hi_width, lo_width],
            ZeroExt { in_width, .. } => vec![in_width],
            SBox => vec![8],
            Reg { width, has_en, .. } => {
                if has_en {
                    vec![1, width]
                } else {
                    vec![width]
                }
            }
            ShiftFsm { .. } => vec![1],
            MultSeq { width, .. } => vec![1, width, width],
            MultPipe { width, .. } => vec![width, width],
            Dsp48 { width, .. } => vec![width, width, width, width],
        }
    }

    /// Widths of the output pins, in pin order.
    pub fn output_widths(&self) -> Vec<u32> {
        use CellKind::*;
        match *self {
            Const { ref value } => vec![value.width()],
            Add { width }
            | Sub { width }
            | MulComb { width }
            | And { width }
            | Or { width }
            | Xor { width }
            | Not { width }
            | ShlDyn { width }
            | ShrDyn { width }
            | ShlConst { width, .. }
            | ShrConst { width, .. }
            | Mux { width }
            | Clz { width } => {
                vec![width]
            }
            Eq { .. } | Lt { .. } | Ge { .. } | ReduceOr { .. } | ReduceAnd { .. } => vec![1],
            Slice { hi, lo, .. } => vec![hi - lo + 1],
            Concat { hi_width, lo_width } => vec![hi_width + lo_width],
            ZeroExt { out_width, .. } => vec![out_width],
            SBox => vec![8],
            Reg { width, .. } => vec![width],
            ShiftFsm { n } => vec![1; n as usize],
            MultSeq { width, .. } | MultPipe { width, .. } => vec![width],
            Dsp48 { width, .. } => vec![width],
        }
    }

    /// Pairs `(input_pin, output_pin)` with a combinational dependency.
    pub fn comb_deps(&self) -> Vec<(usize, usize)> {
        use CellKind::*;
        match *self {
            // Pure combinational cells: every output depends on every input.
            Const { .. }
            | Add { .. }
            | Sub { .. }
            | MulComb { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Not { .. }
            | ShlDyn { .. }
            | ShrDyn { .. }
            | ShlConst { .. }
            | ShrConst { .. }
            | Eq { .. }
            | Lt { .. }
            | Ge { .. }
            | Mux { .. }
            | Slice { .. }
            | Concat { .. }
            | ZeroExt { .. }
            | ReduceOr { .. }
            | ReduceAnd { .. }
            | Clz { .. }
            | SBox => {
                let ins = self.input_widths().len();
                let outs = self.output_widths().len();
                (0..ins)
                    .flat_map(|i| (0..outs).map(move |o| (i, o)))
                    .collect()
            }
            // Sequential cells: outputs come from state...
            Reg { .. } | MultSeq { .. } | MultPipe { .. } | Dsp48 { .. } => vec![],
            // ...except the FSM's `_0` pin, which mirrors `trigger`.
            ShiftFsm { .. } => vec![(0, 0)],
        }
    }

    /// True if the cell holds state across clock edges.
    pub fn is_sequential(&self) -> bool {
        use CellKind::*;
        matches!(
            self,
            Reg { .. } | ShiftFsm { .. } | MultSeq { .. } | MultPipe { .. } | Dsp48 { .. }
        )
    }

    /// Number of flip-flop bits this cell synthesizes to (the "Registers"
    /// resource column of Table 2).
    pub fn state_bits(&self) -> u64 {
        use CellKind::*;
        match *self {
            Reg { width, .. } => width as u64,
            ShiftFsm { n } => (n as u64).saturating_sub(1),
            // Operand latches + result register + step counter.
            MultSeq { width, latency } => {
                3 * width as u64 + (64 - u64::from(latency + 1).leading_zeros()) as u64
            }
            MultPipe { width, latency } => width as u64 * latency as u64,
            // A/B input registers, M register, P register.
            Dsp48 { width, .. } => 4 * width as u64,
            _ => 0,
        }
    }

    /// Maximum number of *input* pins any primitive has (`Dsp48`'s 4), so
    /// the simulator can gather borrowed inputs into a fixed-size on-stack
    /// array. Output pin counts are unbounded (`ShiftFsm` has `n`) and go
    /// through a dynamically sized buffer instead.
    pub const MAX_INPUT_PINS: usize = 4;

    /// Words of state this cell holds across `lanes` lanes, its slots in
    /// the lane layout one after another (saturating, for the simulator's
    /// size budget): a register's value; an FSM's `n - 1` delayed
    /// triggers; a `MultSeq`'s operand latches, result and 32-bit count; a
    /// `MultPipe`'s stages; a `Dsp48`'s A, B, M and P registers.
    pub(crate) fn state_words(&self, lanes: u32) -> u64 {
        use CellKind::*;
        let words = |w: u32| lanes::words(w, lanes) as u64;
        match *self {
            Reg { width, .. } => words(width),
            ShiftFsm { n } => u64::from(n.saturating_sub(1)).saturating_mul(words(1)),
            MultSeq { width, .. } => words(width).saturating_mul(3).saturating_add(words(32)),
            MultPipe { width, latency } => words(width).saturating_mul(u64::from(latency)),
            Dsp48 { width, .. } => words(width).saturating_mul(4),
            _ => 0,
        }
    }

    /// The word range, within its state, of the state slot a register or
    /// multiplier shows on its one output at `n` lanes: slot 0 of a
    /// register, a `MultSeq`'s result, the last stage of a `MultPipe` and
    /// a `Dsp48`'s P register. `None` for every other kind.
    #[inline(always)]
    pub(crate) fn state_output(&self, n: u32) -> Option<std::ops::Range<usize>> {
        use CellKind::*;
        let (width, slot) = match *self {
            Reg { width, .. } => (width, 0),
            MultSeq { width, .. } => (width, 2),
            MultPipe { width, latency } => (width, latency as usize - 1),
            Dsp48 { width, .. } => (width, 3),
            _ => return None,
        };
        let k = lanes::words(width, n);
        Some(slot * k..(slot + 1) * k)
    }

    /// Writes the power-on state across `n` lanes into `state` (zeroed,
    /// [`CellKind::state_words`] long): a register's `init` in every lane;
    /// every other state starts at zero.
    pub(crate) fn init_state(&self, n: u32, state: &mut [u64]) {
        if let CellKind::Reg { width, init, .. } = *self {
            if init != 0 {
                lanes::broadcast(n, width, state, Value::from_u64(width, init).limbs());
            }
        }
    }

    /// Computes every output pin across `n` lanes, in the
    /// [lane layout](fil_bits::lanes): `inputs` are the input pins in pin
    /// order, `state` the state slots one after another, and `outs` the
    /// output pins one after another, pre-sized by the caller. Lane `l` of
    /// every output depends only on lane `l` of the inputs and state.
    ///
    /// This is the simulator's per-signal hot path and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a region is shorter than its pin's width takes.
    #[inline(always)]
    pub(crate) fn eval(&self, n: u32, ins: &[&[u64]], state: &[u64], outs: &mut [u64]) {
        use CellKind::*;
        match *self {
            Const { ref value } => {
                lanes::broadcast(n, value.width(), outs, value.limbs());
            }
            Add { width } => lanes::add(n, width, ins[0], ins[1], outs),
            Sub { width } => lanes::sub(n, width, ins[0], ins[1], outs),
            MulComb { width } => lanes::mul(n, width, ins[0], ins[1], outs),
            And { width } => lanes::and(n, width, ins[0], ins[1], outs),
            Or { width } => lanes::or(n, width, ins[0], ins[1], outs),
            Xor { width } => lanes::xor(n, width, ins[0], ins[1], outs),
            Not { width } => lanes::not(n, width, ins[0], outs),
            ShlDyn { width } => lanes::shl_dyn(n, width, ins[0], ins[1], outs),
            ShrDyn { width } => lanes::shr_dyn(n, width, ins[0], ins[1], outs),
            ShlConst { width, amount } => lanes::shl_const(n, width, ins[0], amount, outs),
            ShrConst { width, amount } => lanes::shr_const(n, width, ins[0], amount, outs),
            Eq { width } => lanes::eq(n, width, ins[0], ins[1], outs),
            Lt { width } => lanes::lt(n, width, ins[0], ins[1], outs),
            Ge { width } => lanes::ge(n, width, ins[0], ins[1], outs),
            // Pin order is [sel, in0, in1] with out = sel ? in1 : in0.
            Mux { width } => lanes::mux(n, width, ins[0], ins[1], ins[2], outs),
            Slice { in_width, hi, lo } => lanes::slice(n, in_width, ins[0], hi, lo, outs),
            Concat { hi_width, lo_width } => {
                lanes::concat(n, hi_width, lo_width, ins[0], ins[1], outs);
            }
            ZeroExt {
                in_width,
                out_width,
            } => lanes::resize(n, in_width, out_width, ins[0], outs),
            ReduceOr { width } => lanes::reduce(n, width, ins[0], false, outs),
            ReduceAnd { width } => lanes::reduce(n, width, ins[0], true, outs),
            Clz { width } => lanes::clz(n, width, ins[0], outs),
            SBox => {
                for (o, &x) in outs.iter_mut().zip(&ins[0][..n as usize]) {
                    *o = u64::from(AES_SBOX[(x & 0xff) as usize]);
                }
            }
            // Sequential outputs are state slots: `_0` mirrors the trigger
            // and `_i` is slot `i - 1`; the others show their last slot.
            ShiftFsm { .. } => {
                let pw = lanes::plane_words(n);
                outs[..pw].copy_from_slice(&ins[0][..pw]);
                outs[pw..].copy_from_slice(state);
            }
            Reg { .. } | MultSeq { .. } | MultPipe { .. } | Dsp48 { .. } => {
                let r = self.state_output(n).expect("a state-slot output");
                lanes::copy(outs, &state[r]);
            }
        }
    }

    /// Advances state across `n` lanes at a clock edge (nonblocking: new
    /// state comes from old state and the settled inputs), in the layout
    /// of [`CellKind::eval`].
    #[inline(always)]
    pub(crate) fn tick(&self, n: u32, ins: &[&[u64]], state: &mut [u64]) {
        use CellKind::*;
        match *self {
            Reg { width, has_en, .. } => {
                if has_en {
                    // A register with enable is exactly a masked lane copy.
                    lanes::copy_masked(n, width, state, ins[1], ins[0]);
                } else {
                    lanes::copy(state, ins[0]);
                }
            }
            // Each slot takes the one before it; slot 0 takes the input.
            ShiftFsm { .. } | MultPipe { .. } => {
                let k = match *self {
                    MultPipe { width, .. } => lanes::words(width, n),
                    _ => lanes::plane_words(n),
                };
                if state.is_empty() {
                    return;
                }
                if k == 1 {
                    for i in (1..state.len()).rev() {
                        state[i] = state[i - 1];
                    }
                } else {
                    let len = state.len();
                    state.copy_within(..len - k, k);
                }
                match *self {
                    MultPipe { width, .. } => lanes::mul(n, width, ins[0], ins[1], state),
                    _ => state[..k].copy_from_slice(&ins[0][..k]),
                }
            }
            MultSeq { width, latency } => mult_seq_tick(width, latency, n, ins, state),
            Dsp48 {
                width,
                use_c,
                use_pcin,
            } => {
                // Slots: [A reg, B reg, M reg, P reg].
                let k = lanes::words(width, n);
                let (ab, mp) = state.split_at_mut(2 * k);
                let (m, p) = mp.split_at_mut(k);
                // P <= M (+ C) (+ PCIN), from the old M (free once read).
                match (use_c, use_pcin) {
                    (false, false) => p[..k].copy_from_slice(&m[..k]),
                    (true, true) => {
                        lanes::add(n, width, m, ins[2], p);
                        lanes::add(n, width, p, ins[3], m);
                        p[..k].copy_from_slice(&m[..k]);
                    }
                    _ => lanes::add(n, width, m, ins[if use_c { 2 } else { 3 }], p),
                }
                // M <= A · B, from the old A/B registers.
                let (a, b) = ab.split_at_mut(k);
                lanes::mul(n, width, a, b, m);
                a[..k].copy_from_slice(&ins[0][..k]);
                b[..k].copy_from_slice(&ins[1][..k]);
            }
            _ => {}
        }
    }

    /// Evaluates the cell once, at one lane in its power-on state, on
    /// constant `inputs` (one per input pin): the outputs opt's const-fold
    /// substitutes, computed by the simulator's own kernels.
    ///
    /// # Panics
    ///
    /// Panics if an input is narrower than its pin.
    pub fn eval_values(&self, inputs: &[&Value]) -> Vec<Value> {
        // At one lane every layout is a `Value`'s limbs.
        let words = usize::try_from(self.state_words(1)).expect("a one-lane state fits");
        let mut state = vec![0; words];
        self.init_state(1, &mut state);
        let widths = self.output_widths();
        let mut outs = vec![0; widths.iter().map(|&w| lanes::words(w, 1)).sum()];
        let ins: Vec<&[u64]> = inputs.iter().map(|v| v.limbs()).collect();
        self.eval(1, &ins, &state, &mut outs);
        let mut rest = &outs[..];
        widths
            .iter()
            .map(|&w| {
                let (v, tail) = rest.split_at(lanes::words(w, 1));
                rest = tail;
                Value::from_limbs(w, v)
            })
            .collect()
    }

    /// The variant's bare name, for profile hotspot grouping.
    pub fn label(&self) -> &'static str {
        use CellKind::*;
        match self {
            Const { .. } => "Const",
            Add { .. } => "Add",
            Sub { .. } => "Sub",
            MulComb { .. } => "MulComb",
            And { .. } => "And",
            Or { .. } => "Or",
            Xor { .. } => "Xor",
            Not { .. } => "Not",
            ShlDyn { .. } => "ShlDyn",
            ShrDyn { .. } => "ShrDyn",
            ShlConst { .. } => "ShlConst",
            ShrConst { .. } => "ShrConst",
            Eq { .. } => "Eq",
            Lt { .. } => "Lt",
            Ge { .. } => "Ge",
            Mux { .. } => "Mux",
            Slice { .. } => "Slice",
            Concat { .. } => "Concat",
            ZeroExt { .. } => "ZeroExt",
            ReduceOr { .. } => "ReduceOr",
            ReduceAnd { .. } => "ReduceAnd",
            Clz { .. } => "Clz",
            SBox => "SBox",
            Reg { .. } => "Reg",
            ShiftFsm { .. } => "ShiftFsm",
            MultSeq { .. } => "MultSeq",
            MultPipe { .. } => "MultPipe",
            Dsp48 { .. } => "Dsp48",
        }
    }

    /// Verilog module name for emission.
    pub fn verilog_module(&self) -> &'static str {
        use CellKind::*;
        match self {
            Const { .. } => "std_const",
            Add { .. } => "std_add",
            Sub { .. } => "std_sub",
            MulComb { .. } => "std_mul_comb",
            And { .. } => "std_and",
            Or { .. } => "std_or",
            Xor { .. } => "std_xor",
            Not { .. } => "std_not",
            ShlDyn { .. } => "std_shl",
            ShrDyn { .. } => "std_shr",
            ShlConst { .. } => "std_shl_const",
            ShrConst { .. } => "std_shr_const",
            Eq { .. } => "std_eq",
            Lt { .. } => "std_lt",
            Ge { .. } => "std_ge",
            Mux { .. } => "std_mux",
            Slice { .. } => "std_slice",
            Concat { .. } => "std_concat",
            ZeroExt { .. } => "std_zext",
            ReduceOr { .. } => "std_reduce_or",
            ReduceAnd { .. } => "std_reduce_and",
            Clz { .. } => "std_clz",
            SBox => "aes_sbox",
            Reg { .. } => "std_reg",
            ShiftFsm { .. } => "fsm_shift",
            MultSeq { .. } => "mult_seq",
            MultPipe { .. } => "mult_pipe",
            Dsp48 { .. } => "dsp48e2",
        }
    }
}

/// [`CellKind::tick`] of a `MultSeq`, out of line: the retrigger/countdown
/// control flow diverges per lane, so this cell ticks lane at a time (it is
/// rare and slow by design). Slots: [a latch, b latch, result, count].
#[inline(never)]
fn mult_seq_tick(width: u32, latency: u32, n: u32, ins: &[&[u64]], state: &mut [u64]) {
    let k = lanes::words(width, n);
    let (data, count) = state.split_at_mut(3 * k);
    let slot = |s: usize| s * k..(s + 1) * k;
    let product = |data: &mut [u64], l: u32| {
        let p = lanes::get(width, &data[slot(0)], l).mul(&lanes::get(width, &data[slot(1)], l));
        lanes::set(width, &mut data[slot(2)], l, p.limbs());
    };
    for l in 0..n {
        let (go, c) = (lanes::bit(ins[0], l as usize), count[l as usize]);
        if go {
            // Retriggered mid-computation (count > 0), the
            // datapath latches a mix of old and new operands —
            // silent corruption, exactly what Filament's
            // conflict-freedom rules out statically (Section
            // 3.4).
            for (s, pin) in [(0, 1), (1, 2)] {
                let mut v = lanes::get(width, ins[pin], l);
                if c > 0 {
                    v = v.xor(&lanes::get(width, &data[slot(s)], l));
                }
                lanes::set(width, &mut data[slot(s)], l, v.limbs());
            }
            if latency == 1 {
                product(data, l);
            }
            count[l as usize] = u64::from(latency);
        } else if c > 0 {
            // The busy window is `latency + 1` cycles: the
            // result lands one edge before the countdown
            // expires, visible during cycle `t + latency` for a
            // `go` during cycle `t`.
            if c == 2 {
                product(data, l);
            }
            count[l as usize] = c - 1;
        }
    }
}
