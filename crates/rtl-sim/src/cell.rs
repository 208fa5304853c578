//! The primitive cell library: behavioral models of every leaf circuit.
//!
//! This is the reproduction's counterpart of the paper's Verilog standard
//! library (Section 7: "341 lines of Verilog for the standard library
//! primitives"). Each [`CellKind`] defines its pin widths, combinational
//! behavior ([`CellKind::eval_into`]), sequential behavior ([`CellKind::tick`]),
//! and which output pins depend combinationally on which input pins (used
//! for topological scheduling and combinational-loop detection).

use fil_bits::{lanes, LaneBuf, Value};

/// Internal state of a sequential cell instance (empty for combinational
/// cells). Layout is defined per [`CellKind`]; use [`CellKind::initial_state`]
/// to construct it.
pub type CellState = Vec<Value>;

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
/// Pin conventions are documented per variant; `eval_into` computes output
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

    /// The power-on state for an instance of this cell.
    pub fn initial_state(&self) -> CellState {
        use CellKind::*;
        match *self {
            Reg { width, init, .. } => vec![Value::from_u64(width, init)],
            // state[i] = trigger delayed by i+1 cycles.
            ShiftFsm { n } => vec![Value::zero(1); (n as usize).saturating_sub(1)],
            // [a_latch, b_latch, result, count]
            MultSeq { width, .. } => vec![
                Value::zero(width),
                Value::zero(width),
                Value::zero(width),
                Value::zero(32),
            ],
            MultPipe { width, latency } => vec![Value::zero(width); latency as usize],
            // [areg, breg, mreg, preg]
            Dsp48 { width, .. } => vec![Value::zero(width); 4],
            _ => vec![],
        }
    }

    /// Maximum number of *input* pins any primitive has (`Dsp48`'s 4), so
    /// the simulator can gather borrowed inputs into a fixed-size on-stack
    /// array. Output pin counts are unbounded (`ShiftFsm` has `n`) and go
    /// through a dynamically sized buffer instead.
    pub const MAX_INPUT_PINS: usize = 4;

    /// Computes all output pin values from input pin values and state,
    /// writing them into `outs` (one slot per output pin, pre-sized to the
    /// correct widths by the caller).
    ///
    /// This is the simulator's per-signal hot path: for designs whose
    /// signals are at most 64 bits wide it performs no heap allocation —
    /// inputs are borrowed, results land in the caller's buffer, and all
    /// `fil_bits` operations stay in their inline representation.
    ///
    /// # Panics
    ///
    /// Panics if pin counts or widths disagree with the cell definition
    /// (callers are expected to have validated the netlist).
    pub fn eval_into(&self, inputs: &[&Value], state: &[Value], outs: &mut [Value]) {
        use CellKind::*;
        match *self {
            Const { ref value } => outs[0].clone_from(value),
            Add { .. } => outs[0] = inputs[0].add(inputs[1]),
            Sub { .. } => outs[0] = inputs[0].sub(inputs[1]),
            MulComb { .. } => outs[0] = inputs[0].mul(inputs[1]),
            And { .. } => outs[0] = inputs[0].and(inputs[1]),
            Or { .. } => outs[0] = inputs[0].or(inputs[1]),
            Xor { .. } => outs[0] = inputs[0].xor(inputs[1]),
            Not { .. } => outs[0] = inputs[0].not(),
            ShlDyn { .. } => outs[0] = inputs[0].shl_dyn(inputs[1]),
            ShrDyn { .. } => outs[0] = inputs[0].shr_dyn(inputs[1]),
            ShlConst { amount, .. } => outs[0] = inputs[0].shl(amount),
            ShrConst { amount, .. } => outs[0] = inputs[0].shr(amount),
            Eq { .. } => outs[0] = Value::from_bool(inputs[0] == inputs[1]),
            Lt { .. } => {
                outs[0] = Value::from_bool(inputs[0].ucmp(inputs[1]) == std::cmp::Ordering::Less)
            }
            Ge { .. } => {
                outs[0] = Value::from_bool(inputs[0].ucmp(inputs[1]) != std::cmp::Ordering::Less)
            }
            Mux { .. } => {
                let sel = inputs[0].as_bool();
                outs[0].clone_from(if sel { inputs[2] } else { inputs[1] });
            }
            Slice { hi, lo, .. } => outs[0] = inputs[0].slice(hi, lo),
            Concat { .. } => outs[0] = inputs[0].concat(inputs[1]),
            ZeroExt { out_width, .. } => outs[0] = inputs[0].resize(out_width),
            ReduceOr { .. } => outs[0] = inputs[0].reduce_or(),
            ReduceAnd { .. } => outs[0] = inputs[0].reduce_and(),
            Clz { width } => outs[0] = Value::from_u64(width, inputs[0].leading_zeros() as u64),
            SBox => outs[0] = Value::from_u64(8, AES_SBOX[inputs[0].to_u64() as usize] as u64),
            Reg { .. } => outs[0].clone_from(&state[0]),
            ShiftFsm { .. } => {
                outs[0].clone_from(inputs[0]);
                for (o, s) in outs[1..].iter_mut().zip(state.iter()) {
                    o.clone_from(s);
                }
            }
            MultSeq { .. } => outs[0].clone_from(&state[2]),
            MultPipe { .. } => outs[0].clone_from(state.last().expect("latency >= 1")),
            Dsp48 { .. } => outs[0].clone_from(&state[3]),
        }
    }

    /// Advances state at a clock edge. New state is computed from old state
    /// and the settled input values (nonblocking semantics).
    pub fn tick(&self, inputs: &[&Value], state: &mut [Value]) {
        use CellKind::*;
        match *self {
            Reg { has_en, .. } => {
                let (en, data) = if has_en {
                    (inputs[0].as_bool(), inputs[1])
                } else {
                    (true, inputs[0])
                };
                if en {
                    state[0].clone_from(data);
                }
            }
            ShiftFsm { .. } => {
                // state[i] <= state[i-1]; state[0] <= trigger.
                for i in (1..state.len()).rev() {
                    state[i] = state[i - 1].clone();
                }
                if !state.is_empty() {
                    state[0].clone_from(inputs[0]);
                }
            }
            MultSeq { latency, .. } => {
                // The busy window is `latency + 1` cycles (the paper's
                // `Mult<T: 3>` has latency 2 and delay 3): the countdown is
                // still nonzero when a `go` one cycle early arrives.
                let go = inputs[0].as_bool();
                let count = state[3].to_u64();
                if go {
                    if count > 0 {
                        // Retriggered mid-computation: the datapath latches
                        // a mix of old and new operands — silent corruption,
                        // exactly what Filament's conflict-freedom rules out
                        // statically (Section 3.4).
                        state[0] = inputs[1].xor(&state[0]);
                        state[1] = inputs[2].xor(&state[1]);
                    } else {
                        state[0].clone_from(inputs[1]);
                        state[1].clone_from(inputs[2]);
                    }
                    if latency == 1 {
                        state[2] = state[0].mul(&state[1]);
                    }
                    state[3] = Value::from_u64(32, latency as u64);
                } else if count > 0 {
                    // The result lands in the output register one edge before
                    // the countdown expires, making it visible during cycle
                    // `t + latency` for a `go` during cycle `t`.
                    if count == 2 {
                        state[2] = state[0].mul(&state[1]);
                    }
                    state[3] = Value::from_u64(32, count - 1);
                }
            }
            MultPipe { .. } => {
                for i in (1..state.len()).rev() {
                    state[i] = state[i - 1].clone();
                }
                state[0] = inputs[0].mul(inputs[1]);
            }
            Dsp48 {
                width,
                use_c,
                use_pcin,
            } => {
                let mut p = state[2].clone();
                if use_c {
                    p = p.add(inputs[2]);
                }
                if use_pcin {
                    p = p.add(inputs[3]);
                }
                state[3] = p;
                state[2] = state[0].mul(&state[1]);
                state[0] = inputs[0].resize(width);
                state[1] = inputs[1].resize(width);
            }
            _ => {}
        }
    }

    /// Lane-parallel [`CellKind::eval_into`]: one call settles the cell for
    /// every batch lane at once. `inputs`, `state`, and `outs` hold
    /// [`LaneBuf`]s with matching lane counts; semantics per lane are
    /// exactly those of `eval_into` (the batched engine is cross-checked
    /// against the scalar one lane by lane).
    ///
    /// Only defined for cells whose pins are at most 64 bits wide — the
    /// batched simulator rejects wider designs at construction.
    ///
    /// # Panics
    ///
    /// Panics if pin counts or widths disagree with the cell definition.
    pub fn eval_lanes(&self, inputs: &[&LaneBuf], state: &[LaneBuf], outs: &mut [LaneBuf]) {
        use CellKind::*;
        match *self {
            Const { ref value } => outs[0].broadcast(value.to_u64()),
            Add { .. } => lanes::add(inputs[0], inputs[1], &mut outs[0]),
            Sub { .. } => lanes::sub(inputs[0], inputs[1], &mut outs[0]),
            MulComb { .. } => lanes::mul(inputs[0], inputs[1], &mut outs[0]),
            And { .. } => lanes::and(inputs[0], inputs[1], &mut outs[0]),
            Or { .. } => lanes::or(inputs[0], inputs[1], &mut outs[0]),
            Xor { .. } => lanes::xor(inputs[0], inputs[1], &mut outs[0]),
            Not { .. } => lanes::not(inputs[0], &mut outs[0]),
            ShlDyn { .. } => lanes::shl_dyn(inputs[0], inputs[1], &mut outs[0]),
            ShrDyn { .. } => lanes::shr_dyn(inputs[0], inputs[1], &mut outs[0]),
            ShlConst { amount, .. } => lanes::shl_const(inputs[0], amount, &mut outs[0]),
            ShrConst { amount, .. } => lanes::shr_const(inputs[0], amount, &mut outs[0]),
            Eq { .. } => lanes::eq(inputs[0], inputs[1], &mut outs[0]),
            Lt { .. } => lanes::lt(inputs[0], inputs[1], &mut outs[0]),
            Ge { .. } => lanes::ge(inputs[0], inputs[1], &mut outs[0]),
            // Scalar pin order is [sel, in0, in1] with out = sel ? in1 : in0;
            // lanes::mux(sel, a, b) picks b where sel is set.
            Mux { .. } => lanes::mux(inputs[0], inputs[1], inputs[2], &mut outs[0]),
            Slice { hi, lo, .. } => lanes::slice(inputs[0], hi, lo, &mut outs[0]),
            Concat { .. } => lanes::concat(inputs[0], inputs[1], &mut outs[0]),
            ZeroExt { .. } => lanes::resize(inputs[0], &mut outs[0]),
            ReduceOr { .. } => lanes::reduce_or(inputs[0], &mut outs[0]),
            ReduceAnd { .. } => lanes::reduce_and(inputs[0], &mut outs[0]),
            Clz { .. } => lanes::clz(inputs[0], &mut outs[0]),
            SBox => lanes::lut8(&AES_SBOX, inputs[0], &mut outs[0]),
            Reg { .. } => outs[0].copy_from(&state[0]),
            ShiftFsm { .. } => {
                outs[0].copy_from(inputs[0]);
                for (o, s) in outs[1..].iter_mut().zip(state.iter()) {
                    o.copy_from(s);
                }
            }
            MultSeq { .. } => outs[0].copy_from(&state[2]),
            MultPipe { .. } => outs[0].copy_from(state.last().expect("latency >= 1")),
            Dsp48 { .. } => outs[0].copy_from(&state[3]),
        }
    }

    /// Lane-parallel [`CellKind::tick`]: advances every lane's state at a
    /// clock edge, with per-lane semantics identical to `tick`.
    pub fn tick_lanes(&self, inputs: &[&LaneBuf], state: &mut [LaneBuf]) {
        use CellKind::*;
        match *self {
            Reg { has_en, .. } => {
                if has_en {
                    // A register with enable is exactly a masked lane copy.
                    lanes::copy_masked(&mut state[0], inputs[1], inputs[0].words());
                } else {
                    state[0].copy_from(inputs[0]);
                }
            }
            ShiftFsm { .. } => {
                for i in (1..state.len()).rev() {
                    let (lo, hi) = state.split_at_mut(i);
                    hi[0].copy_from(&lo[i - 1]);
                }
                if !state.is_empty() {
                    state[0].copy_from(inputs[0]);
                }
            }
            MultSeq { width, latency, .. } => {
                // The retrigger/countdown control flow diverges per lane, so
                // this cell ticks lane-at-a-time (it is rare and already
                // slow by design).
                let m = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                for l in 0..state[3].lanes() {
                    let go = inputs[0].get(l) != 0;
                    let count = state[3].get(l);
                    if go {
                        if count > 0 {
                            state[0].set(l, inputs[1].get(l) ^ state[0].get(l));
                            state[1].set(l, inputs[2].get(l) ^ state[1].get(l));
                        } else {
                            state[0].set(l, inputs[1].get(l));
                            state[1].set(l, inputs[2].get(l));
                        }
                        if latency == 1 {
                            state[2].set(l, state[0].get(l).wrapping_mul(state[1].get(l)) & m);
                        }
                        state[3].set(l, latency as u64);
                    } else if count > 0 {
                        if count == 2 {
                            state[2].set(l, state[0].get(l).wrapping_mul(state[1].get(l)) & m);
                        }
                        state[3].set(l, count - 1);
                    }
                }
            }
            MultPipe { .. } => {
                for i in (1..state.len()).rev() {
                    let (lo, hi) = state.split_at_mut(i);
                    hi[0].copy_from(&lo[i - 1]);
                }
                lanes::mul(inputs[0], inputs[1], &mut state[0]);
            }
            Dsp48 {
                use_c, use_pcin, ..
            } => {
                // P <= M (+ C) (+ PCIN), from *old* M.
                {
                    let (lo, hi) = state.split_at_mut(3);
                    hi[0].copy_from(&lo[2]);
                }
                if use_c {
                    lanes::add_assign(&mut state[3], inputs[2]);
                }
                if use_pcin {
                    lanes::add_assign(&mut state[3], inputs[3]);
                }
                // M <= Areg · Breg, from old A/B registers.
                {
                    let (ab, rest) = state.split_at_mut(2);
                    lanes::mul(&ab[0], &ab[1], &mut rest[0]);
                }
                state[0].copy_from(inputs[0]);
                state[1].copy_from(inputs[1]);
            }
            _ => {}
        }
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
