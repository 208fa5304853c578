//! Tests for the netlist IR, primitive cells, and simulator.

use crate::{CellKind, Netlist, NetlistError, Sim, SimError};
use fil_bits::Value;
use proptest::prelude::*;

fn v(width: u32, x: u64) -> Value {
    Value::from_u64(width, x)
}

/// Builds a two-input combinational netlist around one cell.
fn binop_netlist(kind: CellKind) -> (Netlist, [crate::SignalId; 3]) {
    let in_w = kind.input_widths();
    let out_w = kind.output_widths();
    let mut n = Netlist::new("binop");
    let a = n.add_input("a", in_w[0]);
    let b = n.add_input("b", in_w[1]);
    let o = n.add_signal("o", out_w[0]);
    n.add_cell("c", kind, vec![a, b], vec![o]);
    n.mark_output(o);
    (n, [a, b, o])
}

fn eval_binop(kind: CellKind, x: u64, y: u64) -> u64 {
    let (n, [a, b, o]) = binop_netlist(kind.clone());
    let mut sim = Sim::new(&n).unwrap();
    let w = kind.input_widths();
    sim.poke(a, v(w[0], x));
    sim.poke(b, v(w[1], y));
    sim.settle().unwrap();
    sim.peek(o).to_u64()
}

#[test]
fn comb_binops() {
    assert_eq!(eval_binop(CellKind::Add { width: 8 }, 200, 100), 44);
    assert_eq!(eval_binop(CellKind::Sub { width: 8 }, 5, 7), 254);
    assert_eq!(eval_binop(CellKind::MulComb { width: 8 }, 20, 20), 144);
    assert_eq!(
        eval_binop(CellKind::And { width: 8 }, 0b1100, 0b1010),
        0b1000
    );
    assert_eq!(
        eval_binop(CellKind::Or { width: 8 }, 0b1100, 0b1010),
        0b1110
    );
    assert_eq!(
        eval_binop(CellKind::Xor { width: 8 }, 0b1100, 0b1010),
        0b0110
    );
    assert_eq!(eval_binop(CellKind::Eq { width: 8 }, 3, 3), 1);
    assert_eq!(eval_binop(CellKind::Eq { width: 8 }, 3, 4), 0);
    assert_eq!(eval_binop(CellKind::Lt { width: 8 }, 3, 4), 1);
    assert_eq!(eval_binop(CellKind::Lt { width: 8 }, 4, 3), 0);
    assert_eq!(eval_binop(CellKind::Ge { width: 8 }, 4, 3), 1);
    assert_eq!(eval_binop(CellKind::Ge { width: 8 }, 3, 4), 0);
    assert_eq!(eval_binop(CellKind::ShlDyn { width: 8 }, 1, 3), 8);
    assert_eq!(eval_binop(CellKind::ShrDyn { width: 8 }, 8, 3), 1);
    assert_eq!(
        eval_binop(
            CellKind::Concat {
                hi_width: 4,
                lo_width: 4
            },
            0xa,
            0xb
        ),
        0xab
    );
}

#[test]
fn comb_unops() {
    let mut n = Netlist::new("unop");
    let a = n.add_input("a", 8);
    let not = n.add_signal("not", 8);
    let shl = n.add_signal("shl", 8);
    let shr = n.add_signal("shr", 8);
    let red_or = n.add_signal("red_or", 1);
    let red_and = n.add_signal("red_and", 1);
    let clz = n.add_signal("clz", 8);
    let slice = n.add_signal("slice", 4);
    let zext = n.add_signal("zext", 16);
    let sbox = n.add_signal("sbox", 8);
    n.add_cell("n0", CellKind::Not { width: 8 }, vec![a], vec![not]);
    n.add_cell(
        "s0",
        CellKind::ShlConst {
            width: 8,
            amount: 2,
        },
        vec![a],
        vec![shl],
    );
    n.add_cell(
        "s1",
        CellKind::ShrConst {
            width: 8,
            amount: 2,
        },
        vec![a],
        vec![shr],
    );
    n.add_cell("r0", CellKind::ReduceOr { width: 8 }, vec![a], vec![red_or]);
    n.add_cell(
        "r1",
        CellKind::ReduceAnd { width: 8 },
        vec![a],
        vec![red_and],
    );
    n.add_cell("c0", CellKind::Clz { width: 8 }, vec![a], vec![clz]);
    n.add_cell(
        "sl",
        CellKind::Slice {
            in_width: 8,
            hi: 7,
            lo: 4,
        },
        vec![a],
        vec![slice],
    );
    n.add_cell(
        "z0",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 16,
        },
        vec![a],
        vec![zext],
    );
    n.add_cell("sb", CellKind::SBox, vec![a], vec![sbox]);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(a, v(8, 0b0011_0100));
    sim.settle().unwrap();
    assert_eq!(sim.peek(not).to_u64(), 0b1100_1011);
    assert_eq!(sim.peek(shl).to_u64(), 0b1101_0000);
    assert_eq!(sim.peek(shr).to_u64(), 0b0000_1101);
    assert_eq!(sim.peek(red_or).to_u64(), 1);
    assert_eq!(sim.peek(red_and).to_u64(), 0);
    assert_eq!(sim.peek(clz).to_u64(), 2);
    assert_eq!(sim.peek(slice).to_u64(), 0b0011);
    assert_eq!(sim.peek(zext).to_u64(), 0b0011_0100);
    // S-box: sbox(0x34) = 0x18.
    assert_eq!(sim.peek(sbox).to_u64(), 0x18);
}

#[test]
fn sbox_known_answers() {
    // FIPS-197 S-box spot checks.
    assert_eq!(crate::AES_SBOX[0x00], 0x63);
    assert_eq!(crate::AES_SBOX[0x53], 0xed);
    assert_eq!(crate::AES_SBOX[0xff], 0x16);
}

#[test]
fn mux_selects_second_when_high() {
    // Paper convention (Figure 1): `Mux(op, A.out, M.out)` picks `A.out`
    // (pin in0) when op = 0.
    let mut n = Netlist::new("mux");
    let sel = n.add_input("sel", 1);
    let a = n.add_input("a", 8);
    let b = n.add_input("b", 8);
    let o = n.add_signal("o", 8);
    n.add_cell("m", CellKind::Mux { width: 8 }, vec![sel, a, b], vec![o]);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(a, v(8, 30));
    sim.poke(b, v(8, 200));
    sim.poke(sel, v(1, 0));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 30);
    sim.poke(sel, v(1, 1));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 200);
}

#[test]
fn const_cell_drives() {
    let mut n = Netlist::new("k");
    let o = n.add_signal("o", 8);
    n.add_cell("k0", CellKind::Const { value: v(8, 0x5a) }, vec![], vec![o]);
    let mut sim = Sim::new(&n).unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 0x5a);
    assert!(sim.was_driven(o));
}

#[test]
fn register_with_enable_holds() {
    let mut n = Netlist::new("reg");
    let en = n.add_input("en", 1);
    let d = n.add_input("d", 8);
    let q = n.add_signal("q", 8);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 8,
            init: 7,
            has_en: true,
        },
        vec![en, d],
        vec![q],
    );
    let mut sim = Sim::new(&n).unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 7, "init value visible at power-on");
    sim.poke(en, v(1, 1));
    sim.poke(d, v(8, 42));
    sim.step().unwrap();
    sim.poke(en, v(1, 0));
    sim.poke(d, v(8, 99));
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 42, "captured while enabled");
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 42, "held while disabled");
}

#[test]
fn shift_fsm_pulses_travel() {
    // fsm F[3](go): _0 mirrors go; _i is go delayed i cycles (Section 5.1).
    let mut n = Netlist::new("fsm");
    let go = n.add_input("go", 1);
    let s0 = n.add_signal("s0", 1);
    let s1 = n.add_signal("s1", 1);
    let s2 = n.add_signal("s2", 1);
    n.add_cell("f", CellKind::ShiftFsm { n: 3 }, vec![go], vec![s0, s1, s2]);
    let mut sim = Sim::new(&n).unwrap();

    sim.poke(go, v(1, 1));
    sim.settle().unwrap();
    assert_eq!(
        (
            sim.peek(s0).to_u64(),
            sim.peek(s1).to_u64(),
            sim.peek(s2).to_u64()
        ),
        (1, 0, 0)
    );
    sim.tick().unwrap();
    sim.poke(go, v(1, 0));
    sim.settle().unwrap();
    assert_eq!(
        (
            sim.peek(s0).to_u64(),
            sim.peek(s1).to_u64(),
            sim.peek(s2).to_u64()
        ),
        (0, 1, 0)
    );
    sim.tick().unwrap();
    sim.settle().unwrap();
    assert_eq!(
        (
            sim.peek(s0).to_u64(),
            sim.peek(s1).to_u64(),
            sim.peek(s2).to_u64()
        ),
        (0, 0, 1)
    );
    sim.tick().unwrap();
    sim.settle().unwrap();
    assert_eq!(
        (
            sim.peek(s0).to_u64(),
            sim.peek(s1).to_u64(),
            sim.peek(s2).to_u64()
        ),
        (0, 0, 0)
    );
}

#[test]
fn shift_fsm_pipelined_pulses() {
    // Two triggers in consecutive cycles ride the FSM independently.
    let mut n = Netlist::new("fsm2");
    let go = n.add_input("go", 1);
    let s0 = n.add_signal("s0", 1);
    let s1 = n.add_signal("s1", 1);
    n.add_cell("f", CellKind::ShiftFsm { n: 2 }, vec![go], vec![s0, s1]);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(go, v(1, 1));
    sim.step().unwrap();
    // go stays high: both _0 and _1 high now.
    sim.settle().unwrap();
    assert_eq!((sim.peek(s0).to_u64(), sim.peek(s1).to_u64()), (1, 1));
}

#[test]
fn mult_seq_latency_and_restart_corruption() {
    let mut n = Netlist::new("mseq");
    let go = n.add_input("go", 1);
    let a = n.add_input("a", 16);
    let b = n.add_input("b", 16);
    let o = n.add_signal("o", 16);
    n.add_cell(
        "m",
        CellKind::MultSeq {
            width: 16,
            latency: 2,
        },
        vec![go, a, b],
        vec![o],
    );
    let mut sim = Sim::new(&n).unwrap();

    // Trigger with 6 * 7; output must be valid exactly 2 cycles later.
    sim.poke(go, v(1, 1));
    sim.poke(a, v(16, 6));
    sim.poke(b, v(16, 7));
    sim.step().unwrap();
    sim.poke(go, v(1, 0));
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 42);

    // Retrigger every cycle (violating delay 3): the datapath corrupts —
    // neither the first nor the second product ever appears. This is the
    // silent corruption the type system prevents.
    sim.poke(go, v(1, 1));
    sim.poke(a, v(16, 100));
    sim.poke(b, v(16, 100));
    sim.step().unwrap();
    sim.poke(a, v(16, 3));
    sim.poke(b, v(16, 3));
    sim.step().unwrap();
    sim.poke(go, v(1, 0));
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_ne!(sim.peek(o).to_u64(), 10000, "first product was clobbered");
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_ne!(sim.peek(o).to_u64(), 9, "second product is corrupted too");
}

#[test]
fn mult_seq_back_to_back_at_delay_spacing_is_clean() {
    // Transactions spaced `latency + 1` apart (the declared delay) work.
    let mut n = Netlist::new("mseq2");
    let go = n.add_input("go", 1);
    let a = n.add_input("a", 16);
    let b = n.add_input("b", 16);
    let o = n.add_signal("o", 16);
    n.add_cell(
        "m",
        CellKind::MultSeq {
            width: 16,
            latency: 2,
        },
        vec![go, a, b],
        vec![o],
    );
    let mut sim = Sim::new(&n).unwrap();
    let pairs = [(3u64, 4u64), (5, 6), (7, 8)];
    let mut outs = Vec::new();
    for t in 0..11u64 {
        let k = (t / 3) as usize;
        let launch = t % 3 == 0 && k < pairs.len();
        sim.poke(go, v(1, launch as u64));
        if launch {
            sim.poke(a, v(16, pairs[k].0));
            sim.poke(b, v(16, pairs[k].1));
        }
        sim.settle().unwrap();
        if t % 3 == 2 && t / 3 < pairs.len() as u64 {
            outs.push(sim.peek(o).to_u64());
        }
        sim.tick().unwrap();
    }
    assert_eq!(outs, vec![12, 30, 56]);
}

#[test]
fn mult_pipe_is_fully_pipelined() {
    let mut n = Netlist::new("mpipe");
    let a = n.add_input("a", 16);
    let b = n.add_input("b", 16);
    let o = n.add_signal("o", 16);
    n.add_cell(
        "m",
        CellKind::MultPipe {
            width: 16,
            latency: 3,
        },
        vec![a, b],
        vec![o],
    );
    let mut sim = Sim::new(&n).unwrap();
    // Feed a new pair every cycle; products appear 3 cycles later, in order.
    let pairs = [(2u64, 3u64), (4, 5), (6, 7), (8, 9), (10, 11)];
    let mut outputs = Vec::new();
    for cycle in 0..pairs.len() + 3 {
        if cycle < pairs.len() {
            sim.poke(a, v(16, pairs[cycle].0));
            sim.poke(b, v(16, pairs[cycle].1));
        }
        sim.settle().unwrap();
        if cycle >= 3 {
            outputs.push(sim.peek(o).to_u64());
        }
        sim.tick().unwrap();
    }
    assert_eq!(outputs, vec![6, 20, 42, 72, 110]);
}

#[test]
fn dsp48_cascade_dot_product() {
    // y = c + a0*b0 + a1*b1 + a2*b2 with staggered inputs, per the Reticle
    // Tdot signature (Section 7.2): a_i, b_i at cycle i, c at cycle 2,
    // result at cycle 5.
    let w = 16;
    let mut n = Netlist::new("cascade");
    let a = n.add_input("a", w);
    let b = n.add_input("b", w);
    let c = n.add_input("c", w);
    let zero = n.add_signal("zero", w);
    n.add_cell("z", CellKind::Const { value: v(w, 0) }, vec![], vec![zero]);
    let p0 = n.add_signal("p0", w);
    let p1 = n.add_signal("p1", w);
    let p2 = n.add_signal("p2", w);
    n.add_cell(
        "d0",
        CellKind::Dsp48 {
            width: w,
            use_c: true,
            use_pcin: false,
        },
        vec![a, b, c, zero],
        vec![p0],
    );
    n.add_cell(
        "d1",
        CellKind::Dsp48 {
            width: w,
            use_c: false,
            use_pcin: true,
        },
        vec![a, b, zero, p0],
        vec![p1],
    );
    n.add_cell(
        "d2",
        CellKind::Dsp48 {
            width: w,
            use_c: false,
            use_pcin: true,
        },
        vec![a, b, zero, p1],
        vec![p2],
    );
    n.mark_output(p2);
    let mut sim = Sim::new(&n).unwrap();

    // Stagger: cycle 0: (2,3); cycle 1: (4,5); cycle 2: (6,7) and c=100.
    // Wait: all DSPs share the a/b pins here, so each DSP captures whatever
    // is on the bus when its stage needs it — exactly the staggered protocol.
    let feeds = [(2u64, 3u64, 0u64), (4, 5, 0), (6, 7, 100)];
    for &(x, y, cc) in &feeds {
        sim.poke(a, v(w, x));
        sim.poke(b, v(w, y));
        sim.poke(c, v(w, cc));
        sim.step().unwrap();
    }
    sim.poke(a, v(w, 0));
    sim.poke(b, v(w, 0));
    sim.poke(c, v(w, 0));
    sim.run(2).unwrap();
    sim.settle().unwrap();
    // After 5 cycles: 100 + 2*3 + 4*5 + 6*7 = 168.
    assert_eq!(sim.peek(p2).to_u64(), 168);
}

#[test]
fn guarded_assign_muxes() {
    let mut n = Netlist::new("guard");
    let g0 = n.add_input("g0", 1);
    let g1 = n.add_input("g1", 1);
    let x = n.add_input("x", 8);
    let y = n.add_input("y", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, x, g0);
    n.connect_guarded(o, y, g1);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(x, v(8, 11));
    sim.poke(y, v(8, 22));
    sim.poke(g0, v(1, 1));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 11);
    assert!(sim.was_driven(o));
    sim.poke(g0, v(1, 0));
    sim.poke(g1, v(1, 1));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 22);
    // Nobody driving: undriven zero.
    sim.poke(g1, v(1, 0));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 0);
    assert!(!sim.was_driven(o));
}

#[test]
fn conflicting_writes_detected() {
    let mut n = Netlist::new("conflict");
    let g0 = n.add_input("g0", 1);
    let g1 = n.add_input("g1", 1);
    let x = n.add_input("x", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, x, g0);
    n.connect_guarded(o, x, g1);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(g0, v(1, 1));
    sim.poke(g1, v(1, 1));
    let err = sim.settle().unwrap_err();
    assert!(matches!(err, SimError::WriteConflict { .. }));
    assert!(err.to_string().contains('o'));
}

#[test]
fn comb_loop_rejected() {
    let mut n = Netlist::new("loop");
    let a = n.add_signal("a", 8);
    let b = n.add_signal("b", 8);
    let o1 = n.add_signal("o1", 8);
    let o2 = n.add_signal("o2", 8);
    n.add_cell("n1", CellKind::Not { width: 8 }, vec![a], vec![o1]);
    n.add_cell("n2", CellKind::Not { width: 8 }, vec![b], vec![o2]);
    n.connect(b, o1);
    n.connect(a, o2);
    let err = Sim::new(&n).unwrap_err();
    assert!(matches!(err, SimError::CombLoop { .. }));
}

#[test]
fn registers_break_loops() {
    // A feedback loop through a register is fine (an accumulator).
    let mut n = Netlist::new("acc");
    let x = n.add_input("x", 8);
    let sum = n.add_signal("sum", 8);
    let q = n.add_signal("q", 8);
    n.add_cell("add", CellKind::Add { width: 8 }, vec![x, q], vec![sum]);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
        vec![sum],
        vec![q],
    );
    n.mark_output(sum);
    let mut sim = Sim::new(&n).unwrap();
    for _ in 0..5 {
        sim.poke(x, v(8, 10));
        sim.step().unwrap();
    }
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 50);
}

#[test]
fn validate_rejects_width_mismatch() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 8);
    let o = n.add_signal("o", 16);
    n.connect(o, a);
    assert!(matches!(
        n.validate(),
        Err(NetlistError::WidthMismatch { .. })
    ));
}

#[test]
fn validate_rejects_bad_pin_width() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 8);
    let b = n.add_input("b", 16);
    let o = n.add_signal("o", 8);
    n.add_cell("c", CellKind::Add { width: 8 }, vec![a, b], vec![o]);
    assert!(matches!(
        n.validate(),
        Err(NetlistError::WidthMismatch { .. })
    ));
}

#[test]
fn validate_rejects_pin_count() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 8);
    let o = n.add_signal("o", 8);
    n.add_cell("c", CellKind::Add { width: 8 }, vec![a], vec![o]);
    assert!(matches!(n.validate(), Err(NetlistError::PinCount { .. })));
}

#[test]
fn validate_rejects_multiple_cell_drivers() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 8);
    let o = n.add_signal("o", 8);
    n.add_cell("c1", CellKind::Not { width: 8 }, vec![a], vec![o]);
    n.add_cell("c2", CellKind::Not { width: 8 }, vec![a], vec![o]);
    assert!(matches!(
        n.validate(),
        Err(NetlistError::MultipleDrivers { .. })
    ));
}

#[test]
fn validate_rejects_driven_input() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 8);
    let b = n.add_input("b", 8);
    n.connect(a, b);
    assert!(matches!(
        n.validate(),
        Err(NetlistError::DrivenInput { .. })
    ));
}

#[test]
fn validate_rejects_wide_guard() {
    let mut n = Netlist::new("bad");
    let g = n.add_input("g", 2);
    let a = n.add_input("a", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, a, g);
    assert!(matches!(n.validate(), Err(NetlistError::GuardWidth { .. })));
}

#[test]
fn guard_width_one_passes() {
    let mut n = Netlist::new("ok");
    let g = n.add_input("g", 1);
    let a = n.add_input("a", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, a, g);
    assert!(n.validate().is_ok());
}

#[test]
fn state_bits_accounting() {
    let mut n = Netlist::new("bits");
    let a = n.add_input("a", 8);
    let en = n.add_input("en", 1);
    let q = n.add_signal("q", 8);
    let f0 = n.add_signal("f0", 1);
    let f1 = n.add_signal("f1", 1);
    let f2 = n.add_signal("f2", 1);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: true,
        },
        vec![en, a],
        vec![q],
    );
    n.add_cell("f", CellKind::ShiftFsm { n: 3 }, vec![en], vec![f0, f1, f2]);
    assert_eq!(n.state_bits(), 8 + 2);
}

#[test]
fn ascii_wave_renders() {
    let mut n = Netlist::new("wave");
    let a = n.add_input("a", 8);
    let g = n.add_input("g", 1);
    let mut w = crate::AsciiWave::new();
    w.watch("a", a);
    w.watch("g", g);
    let mut sim = Sim::new(&n).unwrap();
    for i in 0..4u64 {
        sim.poke(a, v(8, 0x10 * i));
        sim.poke(g, v(1, i % 2));
        sim.settle().unwrap();
        w.sample(&sim);
        sim.tick().unwrap();
    }
    let s = w.render();
    assert!(s.contains("cycle"));
    assert!(s.contains("30"));
    assert_eq!(w.len(), 4);
    assert!(!w.is_empty());
}

#[test]
fn vcd_writer_produces_header_and_changes() {
    let mut n = Netlist::new("vcd");
    let a = n.add_input("a", 8);
    let mut w = crate::VcdWriter::new();
    w.watch("a", a, 8);
    let mut sim = Sim::new(&n).unwrap();
    for i in 0..3u64 {
        sim.poke(a, v(8, i));
        sim.settle().unwrap();
        w.sample(&sim);
        sim.tick().unwrap();
    }
    let out = w.finish();
    assert!(out.contains("$enddefinitions"));
    assert!(out.contains("$var wire 8"));
    assert!(out.contains("#1"));
}

#[test]
fn poke_by_name_and_peek_by_name() {
    let (n, _) = binop_netlist(CellKind::Add { width: 8 });
    let mut sim = Sim::new(&n).unwrap();
    sim.poke_by_name("a", v(8, 1));
    sim.poke_by_name("b", v(8, 2));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("o").to_u64(), 3);
    assert_eq!(sim.cycle(), 0);
    sim.tick().unwrap();
    assert_eq!(sim.cycle(), 1);
}

proptest! {
    /// The netlist adder agrees with Value::add for random operands.
    #[test]
    fn netlist_add_matches_value(a: u64, b: u64) {
        let got = eval_binop(CellKind::Add { width: 32 }, a & 0xffff_ffff, b & 0xffff_ffff);
        let want = Value::from_u64(32, a).add(&Value::from_u64(32, b)).to_u64();
        prop_assert_eq!(got, want);
    }

    /// A chain of k delay registers delays a stream by exactly k cycles.
    #[test]
    fn delay_chain_shifts_stream(k in 1usize..6, stream in proptest::collection::vec(0u64..256, 1..20)) {
        let mut n = Netlist::new("chain");
        let x = n.add_input("x", 8);
        let mut cur = x;
        for i in 0..k {
            let nxt = n.add_signal(format!("s{i}"), 8);
            n.add_cell(
                format!("r{i}"),
                CellKind::Reg { width: 8, init: 0, has_en: false },
                vec![cur],
                vec![nxt],
            );
            cur = nxt;
        }
        n.mark_output(cur);
        let mut sim = Sim::new(&n).unwrap();
        let mut seen = Vec::new();
        for t in 0..stream.len() + k {
            let input = if t < stream.len() { stream[t] } else { 0 };
            sim.poke(x, v(8, input));
            sim.settle().unwrap();
            if t >= k {
                seen.push(sim.peek(cur).to_u64());
            }
            sim.tick().unwrap();
        }
        prop_assert_eq!(seen, stream);
    }

    /// Pipelined multiplier streams products at full rate for any latency.
    #[test]
    fn mult_pipe_streams(lat in 1u32..5, pairs in proptest::collection::vec((0u64..65536, 0u64..65536), 1..12)) {
        let mut n = Netlist::new("mp");
        let a = n.add_input("a", 32);
        let b = n.add_input("b", 32);
        let o = n.add_signal("o", 32);
        n.add_cell("m", CellKind::MultPipe { width: 32, latency: lat }, vec![a, b], vec![o]);
        let mut sim = Sim::new(&n).unwrap();
        let mut outs = Vec::new();
        for t in 0..pairs.len() + lat as usize {
            if t < pairs.len() {
                sim.poke(a, v(32, pairs[t].0));
                sim.poke(b, v(32, pairs[t].1));
            }
            sim.settle().unwrap();
            if t >= lat as usize {
                outs.push(sim.peek(o).to_u64());
            }
            sim.tick().unwrap();
        }
        let want: Vec<u64> = pairs.iter().map(|&(x, y)| x * y).collect();
        prop_assert_eq!(outs, want);
    }
}

// ------------------------------------------------- driving-protocol contract

/// The module-docs ordering contract: poke → settle → peek observes
/// combinational paths in the same cycle; registered outputs need
/// poke → step → settle; tick and poke both invalidate the settled state.
#[test]
fn ordering_contract_comb_vs_registered() {
    let mut n = Netlist::new("contract");
    let a = n.add_input("a", 8);
    let b = n.add_input("b", 8);
    let sum = n.add_signal("sum", 8);
    let q = n.add_signal("q", 8);
    n.add_cell("add", CellKind::Add { width: 8 }, vec![a, b], vec![sum]);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
        vec![sum],
        vec![q],
    );
    n.mark_output(sum);
    n.mark_output(q);

    let mut sim = Sim::new(&n).unwrap();
    // Combinational: poke → settle → peek, same cycle.
    sim.poke(a, v(8, 30));
    sim.poke(b, v(8, 12));
    sim.settle().unwrap();
    assert_eq!(sim.peek(sum).to_u64(), 42);
    // The register still shows power-on state before any edge.
    assert_eq!(sim.peek(q).to_u64(), 0);

    // Registered: poke → step → settle → peek.
    sim.step().unwrap();
    // After tick but before the re-settle, the register output is stale.
    assert_eq!(
        sim.peek(q).to_u64(),
        0,
        "tick invalidates settle; peek is stale"
    );
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 42);

    // Settle is idempotent: re-settling without poke/tick changes nothing.
    sim.settle().unwrap();
    assert_eq!(sim.peek(sum).to_u64(), 42);
    assert_eq!(sim.peek(q).to_u64(), 42);

    // run(n) leaves the sim un-settled: outputs lag until the final settle.
    sim.poke(a, v(8, 1));
    sim.poke(b, v(8, 2));
    sim.run(1).unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(sum).to_u64(), 3);
    assert_eq!(sim.peek(q).to_u64(), 3);
}

// ------------------------------------------------- change propagation modes

/// Drives the same netlist with the same stimulus in propagating and
/// force-full-settle modes, asserting every signal value and `was_driven`
/// flag is identical each cycle.
fn assert_modes_agree(
    n: &Netlist,
    stimulus: impl Fn(u64) -> Vec<(crate::SignalId, Value)>,
    cycles: u64,
) {
    let mut fast = Sim::new(n).unwrap();
    let mut full = Sim::new(n).unwrap();
    full.set_force_full_settle(true);
    for t in 0..cycles {
        for (sig, val) in stimulus(t) {
            fast.poke(sig, val.clone());
            full.poke(sig, val);
        }
        fast.settle().unwrap();
        full.settle().unwrap();
        for si in 0..n.signals().len() {
            let sig = crate::SignalId(crate::netlist::id32(si));
            assert_eq!(
                fast.peek(sig),
                full.peek(sig),
                "cycle {t}: value of {} diverges",
                n.signals()[si].name
            );
            assert_eq!(
                fast.was_driven(sig),
                full.was_driven(sig),
                "cycle {t}: was_driven of {} diverges",
                n.signals()[si].name
            );
        }
        fast.tick().unwrap();
        full.tick().unwrap();
    }
}

#[test]
fn change_propagation_matches_full_settle_on_guarded_pipeline() {
    // Registers, guarded assignments (including undriven cycles), muxes,
    // and an FSM: every driver kind the settle loop distinguishes.
    let mut n = Netlist::new("modes");
    let go = n.add_input("go", 1);
    let x = n.add_input("x", 8);
    let y = n.add_input("y", 8);
    let fsm0 = n.add_signal("fsm0", 1);
    let fsm1 = n.add_signal("fsm1", 1);
    let fsm2 = n.add_signal("fsm2", 1);
    n.add_cell(
        "fsm",
        CellKind::ShiftFsm { n: 3 },
        vec![go],
        vec![fsm0, fsm1, fsm2],
    );
    let sum = n.add_signal("sum", 8);
    n.add_cell("add", CellKind::Add { width: 8 }, vec![x, y], vec![sum]);
    let q = n.add_signal("q", 8);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 8,
            init: 7,
            has_en: true,
        },
        vec![fsm1, sum],
        vec![q],
    );
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, q, fsm1);
    n.connect_guarded(o, sum, fsm2);
    n.mark_output(o);

    assert_modes_agree(
        &n,
        |t| {
            vec![
                (go, v(1, u64::from(t % 3 == 0))),
                (x, v(8, (t * 37) & 0xff)),
                // Constant input: exercises the "nothing changed" path.
                (y, v(8, 5)),
            ]
        },
        24,
    );
}

#[test]
fn write_conflict_identical_in_both_modes() {
    let mut n = Netlist::new("conflict_modes");
    let g0 = n.add_input("g0", 1);
    let g1 = n.add_input("g1", 1);
    let x = n.add_input("x", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, x, g0);
    n.connect_guarded(o, x, g1);

    let mut fast = Sim::new(&n).unwrap();
    let mut full = Sim::new(&n).unwrap();
    full.set_force_full_settle(true);
    for sim in [&mut fast, &mut full] {
        sim.poke(g0, v(1, 1));
        sim.poke(g1, v(1, 1));
        sim.poke(x, v(8, 3));
        let err = sim.settle().unwrap_err();
        assert!(matches!(err, SimError::WriteConflict { .. }), "{err}");
        // The conflict persists across retries until an input changes...
        let err = sim.settle().unwrap_err();
        assert!(matches!(err, SimError::WriteConflict { .. }), "{err}");
        // ...and clears once one guard drops, in both modes.
        sim.poke(g1, v(1, 0));
        sim.settle().unwrap();
        assert_eq!(sim.peek(o).to_u64(), 3);
        assert!(sim.was_driven(o));
    }
}

#[test]
fn conflict_names_both_assignments() {
    // Two guarded writes to `o` from different sources: detection must see
    // both and the report must name them.
    let mut n = Netlist::new("conflict_pair");
    let g0 = n.add_input("g0", 1);
    let g1 = n.add_input("g1", 1);
    let x = n.add_input("x", 8);
    let y = n.add_input("y", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, x, g0);
    n.connect_guarded(o, y, g1);
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(g0, v(1, 1));
    sim.poke(g1, v(1, 1));
    sim.poke(x, v(8, 7));
    sim.poke(y, v(8, 9));
    let err = sim.settle().unwrap_err();
    match &err {
        SimError::WriteConflict {
            signal,
            first,
            second,
            lane,
            ..
        } => {
            assert_eq!(signal, "o");
            assert_eq!(first, "o = g0 ? x");
            assert_eq!(second, "o = g1 ? y");
            assert_eq!(*lane, None);
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
    // The rendered diagnostic carries both assignments.
    let msg = err.to_string();
    assert!(
        msg.contains("o = g0 ? x") && msg.contains("o = g1 ? y"),
        "{msg}"
    );
    // Force-full settling reports the identical error.
    let mut full = Sim::new(&n).unwrap();
    full.set_force_full_settle(true);
    full.poke(g0, v(1, 1));
    full.poke(g1, v(1, 1));
    full.poke(x, v(8, 7));
    full.poke(y, v(8, 9));
    assert_eq!(full.settle().unwrap_err(), err);
    // Dropping one guard clears the conflict; the other write lands.
    sim.poke(g1, v(1, 0));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o).to_u64(), 7);
}

#[test]
fn conflict_winner_is_lowest_signal_id_in_every_engine() {
    // Two independent conflicts in one cycle: every engine must report the
    // lower signal id ("oa"), regardless of evaluation order.
    let mut n = Netlist::new("conflict_pick");
    let g = n.add_input("g", 1);
    let x = n.add_input("x", 4);
    let oa = n.add_signal("oa", 4);
    let ob = n.add_signal("ob", 4);
    for o in [oa, ob] {
        n.connect_guarded(o, x, g);
        n.connect_guarded(o, x, g);
    }
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(g, v(1, 1));
    sim.poke(x, v(4, 5));
    let err = sim.settle().unwrap_err();
    assert!(matches!(&err, SimError::WriteConflict { signal, .. } if signal == "oa"));

    let mut batch = crate::BatchSim::new(&n, 3).unwrap();
    for l in 0..3 {
        batch.poke(g, l, v(1, 1));
        batch.poke(x, l, v(4, 5));
    }
    match batch.settle().unwrap_err() {
        SimError::WriteConflict { signal, lane, .. } => {
            assert_eq!(signal, "oa");
            assert_eq!(lane, Some(0), "lowest conflicting lane wins");
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
}

#[test]
fn batch_conflict_reports_lane_and_spares_other_lanes() {
    let mut n = Netlist::new("conflict_lane");
    let g0 = n.add_input("g0", 1);
    let g1 = n.add_input("g1", 1);
    let x = n.add_input("x", 8);
    let y = n.add_input("y", 8);
    let o = n.add_signal("o", 8);
    n.connect_guarded(o, x, g0);
    n.connect_guarded(o, y, g1);
    // 70 lanes (two plane words): conflict only in lane 67.
    let mut sim = crate::BatchSim::new(&n, 70).unwrap();
    for l in 0..70 {
        sim.poke(g0, l, v(1, 1));
        sim.poke(g1, l, v(1, u64::from(l == 67)));
        sim.poke(x, l, v(8, 100 + l as u64));
        sim.poke(y, l, v(8, 200));
    }
    match sim.settle().unwrap_err() {
        SimError::WriteConflict {
            signal,
            lane,
            first,
            second,
            ..
        } => {
            assert_eq!(signal, "o");
            assert_eq!(lane, Some(67));
            assert_eq!(first, "o = g0 ? x");
            assert_eq!(second, "o = g1 ? y");
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
    // Non-conflicted lanes settled with their unique active write; the
    // conflicted lane kept its previous (zero) value.
    assert_eq!(sim.peek(o, 3).to_u64(), 103);
    assert_eq!(sim.peek(o, 69).to_u64(), 169);
    assert_eq!(sim.peek(o, 67).to_u64(), 0);
    assert!(sim.was_driven(o, 67));
    // Clearing the extra guard resolves the conflict everywhere.
    sim.poke(g1, 67, v(1, 0));
    sim.settle().unwrap();
    assert_eq!(sim.peek(o, 67).to_u64(), 167);
}

#[test]
fn batch_runs_wide_signals() {
    let mut n = Netlist::new("wide");
    let a = n.add_input("a", 65);
    let o = n.add_signal("o", 65);
    n.connect(o, a);
    let mut sim = crate::BatchSim::new(&n, 4).unwrap();
    let top = Value::from_u128(65, 1 << 64 | 7);
    sim.poke(a, 2, top.clone());
    sim.settle().unwrap();
    assert_eq!(sim.peek(o, 2), top);
    assert_eq!(sim.peek(o, 1), Value::zero(65));
}

#[test]
fn oversized_design_is_refused_before_allocating() {
    // Two 4e9-bit ports and their sum: 500 MB a signal.
    let w = 4_000_000_000;
    let mut n = Netlist::new("huge");
    let a = n.add_input("a", w);
    let b = n.add_input("b", w);
    let s = n.add_signal("s", w);
    n.add_cell("add", CellKind::Add { width: w }, vec![a, b], vec![s]);
    n.mark_output(s);
    // Three signals and the adder's output buffer, plus three driven planes.
    let words = 4 * u64::from(w).div_ceil(64) + 3;
    let want = SimError::TooLarge {
        words,
        lanes: 1,
        budget: crate::MAX_WORDS,
    };
    assert_eq!(Sim::new(&n).err(), Some(want));
    let err = crate::BatchSim::new(&n, 128).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("design too large to simulate: "),
        "{err}"
    );
}

// `Netlist` caches its flattened graph in a `OnceLock`; shared netlists
// (`Arc<Netlist>` across the build cache and worker threads) must stay
// `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Netlist>();
};

/// A one-register netlist, `q <= d` with `q` as the output, plus an
/// unconnected wire `w` and a 1-bit input `g` for tests to wire up.
fn delay_netlist() -> (Netlist, [crate::SignalId; 4]) {
    let mut n = Netlist::new("delay");
    let d = n.add_input("d", 4);
    let q = n.add_signal("q", 4);
    let w = n.add_signal("w", 4);
    let g = n.add_input("g", 1);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 4,
            init: 0,
            has_en: false,
        },
        vec![d],
        vec![q],
    );
    n.mark_output(q);
    (n, [d, q, w, g])
}

#[test]
fn graph_cache_is_reset_by_every_mutator() {
    // A combinational loop closed after an elaboration is seen by the
    // next one.
    let (mut n, [_, _, w, _]) = delay_netlist();
    let a = n.add_signal("a", 4);
    n.connect(w, a);
    Sim::new(&n).unwrap();
    n.connect(a, w);
    assert!(matches!(
        Sim::new(&n).unwrap_err(),
        SimError::CombLoop { .. }
    ));
    assert!(matches!(
        crate::BatchSim::new(&n, 2).err().unwrap(),
        SimError::CombLoop { .. }
    ));

    // Each mutator alone replaces a cached graph.
    type Mutator = fn(&mut Netlist, [crate::SignalId; 4]);
    let mutators: [Mutator; 5] = [
        |n, _| {
            n.add_signal("late", 4);
        },
        |n, [_, _, w, _]| n.mark_output(w),
        |n, [d, _, w, _]| {
            n.add_cell("inv", CellKind::Not { width: 4 }, vec![d], vec![w]);
        },
        |n, [d, _, w, _]| n.connect(w, d),
        |n, [d, _, w, g]| n.connect_guarded(w, d, g),
    ];
    for mutate in mutators {
        let (mut n, sigs) = delay_netlist();
        let before = n.flat_graph().unwrap();
        mutate(&mut n, sigs);
        assert!(!std::sync::Arc::ptr_eq(&before, &n.flat_graph().unwrap()));
    }
}

#[test]
fn graph_cache_keeps_validation_errors() {
    let mut n = Netlist::new("bad");
    let a = n.add_input("a", 4);
    let b = n.add_signal("b", 8);
    n.connect(b, a);
    let first = Sim::new(&n).unwrap_err();
    assert!(matches!(
        first,
        SimError::Netlist(NetlistError::WidthMismatch { .. })
    ));
    assert_eq!(Sim::new(&n).unwrap_err(), first);
    assert_eq!(crate::BatchSim::new(&n, 2).err().unwrap(), first);
    assert_eq!(first, SimError::Netlist(n.validate().unwrap_err()));
}

#[test]
fn graph_cache_is_shared_and_per_clone() {
    let (n, [d, q, ..]) = delay_netlist();
    let sim = Sim::new(&n).unwrap();
    let batch = crate::BatchSim::new(&n, 4).unwrap();
    assert!(std::sync::Arc::ptr_eq(&sim.0.flat, &batch.0.flat));
    assert!(std::sync::Arc::ptr_eq(
        &sim.0.flat,
        &Sim::new(&n).unwrap().0.flat
    ));

    // Mutating a clone re-flattens the clone only.
    let mut c = n.clone();
    let loop_sig = c.add_signal("l", 4);
    c.connect(loop_sig, loop_sig);
    assert!(matches!(
        Sim::new(&c).unwrap_err(),
        SimError::CombLoop { .. }
    ));
    assert!(std::sync::Arc::ptr_eq(
        &sim.0.flat,
        &n.flat_graph().unwrap()
    ));
    let mut sim = Sim::new(&n).unwrap();
    sim.poke(d, v(4, 9));
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek(q).to_u64(), 9);
}
