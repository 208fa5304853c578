//! Cross-engine agreement, cell kind by cell kind: every lane of a
//! [`BatchSim`] must be bit-identical to its own scalar [`Sim`] run —
//! values, `was_driven` flags and errors — cycle by cycle.
//!
//! Every [`CellKind`] variant is built into a one-cell netlist at the
//! widths where lane layouts change (1-bit planes, word-per-lane up to 64
//! bits, multi-limb lanes at 65, 128 and 1280 bits) and at the shift
//! amounts, slices, concatenations and resizes where kernels take their
//! edge paths. Each netlist runs at 1, 64, 65 and 130 lanes: one lane,
//! one full plane word, a ragged tail, and three words. A separate case
//! drives guarded fan-in, including one injected write conflict.
//!
//! Every kind at every width is also checked against a model written
//! with `fil_bits::Value` operations.

use fil_bits::Value;
use rtl_sim::{BatchSim, CellKind, Netlist, SignalId, Sim, SimError};

const LANE_COUNTS: [u32; 4] = [1, 64, 65, 130];
const WIDTHS: [u32; 6] = [1, 2, 7, 32, 63, 64];
const CYCLES: u64 = 10;

/// splitmix64 over (lane, cycle, input): every engine regenerates the same
/// stream independently.
fn hash(lane: u32, t: u64, i: usize) -> u64 {
    let mut x = (lane as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stimulus mixing the values where kernels diverge most: zero, all ones,
/// small numbers (shift amounts, counters) and full-width noise.
fn stim(lane: u32, t: u64, i: usize, width: u32) -> Value {
    let x = hash(lane, t, i);
    if width > 64 {
        // Whole-value classes; small values reach every wide shift amount.
        return match x >> 62 {
            0 => Value::zero(width),
            1 => Value::ones(width),
            2 => Value::from_u64(width, (x >> 8) % u64::from(width + 8)),
            _ => {
                let limbs: Vec<u64> = (0..width.div_ceil(64) as usize)
                    .map(|k| hash(lane, t, i + 1000 * (k + 1)))
                    .collect();
                Value::from_limbs(width, &limbs)
            }
        };
    }
    let raw = match x >> 62 {
        0 => 0,
        1 => u64::MAX,
        2 => (x >> 8) & 0x7f,
        _ => x,
    };
    Value::from_u64(width, raw & mask(width))
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// A dense tag per variant. The match has no wildcard arm, so a new
/// variant does not compile until this test covers it.
fn tag(kind: &CellKind) -> usize {
    use CellKind::*;
    match kind {
        Const { .. } => 0,
        Add { .. } => 1,
        Sub { .. } => 2,
        MulComb { .. } => 3,
        And { .. } => 4,
        Or { .. } => 5,
        Xor { .. } => 6,
        Not { .. } => 7,
        ShlDyn { .. } => 8,
        ShrDyn { .. } => 9,
        ShlConst { .. } => 10,
        ShrConst { .. } => 11,
        Eq { .. } => 12,
        Lt { .. } => 13,
        Ge { .. } => 14,
        Mux { .. } => 15,
        Slice { .. } => 16,
        Concat { .. } => 17,
        ZeroExt { .. } => 18,
        ReduceOr { .. } => 19,
        ReduceAnd { .. } => 20,
        Clz { .. } => 21,
        SBox => 22,
        Reg { .. } => 23,
        ShiftFsm { .. } => 24,
        MultSeq { .. } => 25,
        MultPipe { .. } => 26,
        Dsp48 { .. } => 27,
    }
}
const KINDS: usize = 28;

/// Every case: one cell of each kind at each interesting parameter.
fn kinds() -> Vec<CellKind> {
    use CellKind::*;
    let mut out = Vec::new();
    for &w in &WIDTHS {
        let width = w;
        out.extend([
            Const {
                value: Value::from_u64(w, 0xA5A5_5A5A_F00F_0FF0 & mask(w)),
            },
            Add { width },
            Sub { width },
            MulComb { width },
            And { width },
            Or { width },
            Xor { width },
            Not { width },
            ShlDyn { width },
            ShrDyn { width },
            Eq { width },
            Lt { width },
            Ge { width },
            Mux { width },
            ReduceOr { width },
            ReduceAnd { width },
            Clz { width },
            Slice {
                in_width: w,
                hi: w - 1,
                lo: 0,
            },
            Slice {
                in_width: w,
                hi: w - 1,
                lo: w / 2,
            },
            Slice {
                in_width: w,
                hi: w / 2,
                lo: w / 2,
            },
            Reg {
                width,
                init: 0x1234_5678_9ABC_DEF0 & mask(w),
                has_en: false,
            },
            Reg {
                width,
                init: 0,
                has_en: true,
            },
        ]);
        for amount in [0, 1, w - 1, w, w + 3] {
            out.push(ShlConst { width, amount });
            out.push(ShrConst { width, amount });
        }
    }
    for (hi_width, lo_width) in [(1, 1), (1, 7), (7, 32), (32, 32), (63, 1), (1, 63), (2, 62)] {
        out.push(Concat { hi_width, lo_width });
    }
    for (in_width, out_width) in [
        (1, 2),
        (7, 32),
        (1, 64),
        (63, 64),
        (32, 32),
        (32, 7),
        (64, 1),
        (64, 63),
        (2, 1),
    ] {
        out.push(ZeroExt {
            in_width,
            out_width,
        });
    }
    out.push(SBox);
    for n in [1, 2, 5] {
        out.push(ShiftFsm { n });
    }
    for width in [1, 7, 32, 64] {
        for latency in 1..=3 {
            out.push(MultSeq { width, latency });
            out.push(MultPipe { width, latency });
        }
    }
    for width in [7, 64] {
        for use_c in [false, true] {
            for use_pcin in [false, true] {
                out.push(Dsp48 {
                    width,
                    use_c,
                    use_pcin,
                });
            }
        }
    }
    out
}

const WIDE: [u32; 3] = [65, 128, 1280];

/// Every width-parametric kind at multi-limb widths, with the slices,
/// shifts, concatenations and resizes that cross limb and layout edges.
fn wide_kinds() -> Vec<CellKind> {
    use CellKind::*;
    let mut out = Vec::new();
    for &width in &WIDE {
        let w = width;
        let limbs: Vec<u64> = (0..w.div_ceil(64) as u64)
            .map(|k| 0xA5A5_5A5A_F00F_0FF0 ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        out.extend([
            Const {
                value: Value::from_limbs(w, &limbs),
            },
            Add { width },
            Sub { width },
            MulComb { width },
            And { width },
            Or { width },
            Xor { width },
            Not { width },
            ShlDyn { width },
            ShrDyn { width },
            Eq { width },
            Lt { width },
            Ge { width },
            Mux { width },
            ReduceOr { width },
            ReduceAnd { width },
            Clz { width },
            Reg {
                width,
                init: 0x1234_5678_9ABC_DEF0,
                has_en: false,
            },
            Reg {
                width,
                init: 0,
                has_en: true,
            },
        ]);
        for (hi, lo) in [
            (w - 1, 0),
            (w - 1, w / 2),
            (w / 2, w / 2),
            (63, 0),
            (w - 1, w - 64),
            (64, 1),
        ] {
            out.push(Slice {
                in_width: w,
                hi,
                lo,
            });
        }
        for amount in [0, 1, 63, 64, 65, w - 1, w, w + 3] {
            out.push(ShlConst { width, amount });
            out.push(ShrConst { width, amount });
        }
        for latency in 1..=3 {
            out.push(MultSeq { width, latency });
            out.push(MultPipe { width, latency });
        }
        for use_c in [false, true] {
            for use_pcin in [false, true] {
                out.push(Dsp48 {
                    width,
                    use_c,
                    use_pcin,
                });
            }
        }
    }
    for (hi_width, lo_width) in [
        (1, 64),
        (64, 1),
        (64, 64),
        (65, 63),
        (7, 121),
        (640, 640),
        (1, 1279),
        (1279, 1),
    ] {
        out.push(Concat { hi_width, lo_width });
    }
    for (in_width, out_width) in [
        (1, 65),
        (64, 128),
        (7, 1280),
        (128, 1280),
        (1280, 128),
        (1280, 64),
        (128, 65),
        (65, 1),
    ] {
        out.push(ZeroExt {
            in_width,
            out_width,
        });
    }
    out
}

/// The cell's power-on state slots.
fn model_init(kind: &CellKind) -> Vec<Value> {
    use CellKind::*;
    match *kind {
        Reg { width, init, .. } => vec![Value::from_u64(width, init)],
        ShiftFsm { n } => vec![Value::zero(1); n as usize - 1],
        MultSeq { width, .. } => vec![
            Value::zero(width),
            Value::zero(width),
            Value::zero(width),
            Value::zero(32),
        ],
        MultPipe { width, latency } => vec![Value::zero(width); latency as usize],
        Dsp48 { width, .. } => vec![Value::zero(width); 4],
        _ => vec![],
    }
}

/// The cell's outputs from `fil_bits::Value` operations: the reference
/// every engine is held to.
fn model_eval(kind: &CellKind, ins: &[Value], state: &[Value]) -> Vec<Value> {
    use std::cmp::Ordering::Less;
    use CellKind::*;
    let out = match *kind {
        Const { ref value } => value.clone(),
        Add { .. } => ins[0].add(&ins[1]),
        Sub { .. } => ins[0].sub(&ins[1]),
        MulComb { .. } => ins[0].mul(&ins[1]),
        And { .. } => ins[0].and(&ins[1]),
        Or { .. } => ins[0].or(&ins[1]),
        Xor { .. } => ins[0].xor(&ins[1]),
        Not { .. } => ins[0].not(),
        ShlDyn { .. } => ins[0].shl_dyn(&ins[1]),
        ShrDyn { .. } => ins[0].shr_dyn(&ins[1]),
        ShlConst { amount, .. } => ins[0].shl(amount),
        ShrConst { amount, .. } => ins[0].shr(amount),
        Eq { .. } => Value::from_bool(ins[0] == ins[1]),
        Lt { .. } => Value::from_bool(ins[0].ucmp(&ins[1]) == Less),
        Ge { .. } => Value::from_bool(ins[0].ucmp(&ins[1]) != Less),
        Mux { .. } => ins[if ins[0].as_bool() { 2 } else { 1 }].clone(),
        Slice { hi, lo, .. } => ins[0].slice(hi, lo),
        Concat { .. } => ins[0].concat(&ins[1]),
        ZeroExt { out_width, .. } => ins[0].resize(out_width),
        ReduceOr { .. } => ins[0].reduce_or(),
        ReduceAnd { .. } => ins[0].reduce_and(),
        Clz { width } => Value::from_u64(width, u64::from(ins[0].leading_zeros())),
        SBox => Value::from_u64(8, u64::from(rtl_sim::AES_SBOX[ins[0].to_u64() as usize])),
        Reg { .. } => state[0].clone(),
        ShiftFsm { .. } => {
            return std::iter::once(ins[0].clone())
                .chain(state.iter().cloned())
                .collect()
        }
        MultSeq { .. } => state[2].clone(),
        MultPipe { .. } => state.last().unwrap().clone(),
        Dsp48 { .. } => state[3].clone(),
    };
    vec![out]
}

/// The cell's next state from `fil_bits::Value` operations.
fn model_tick(kind: &CellKind, ins: &[Value], state: &mut Vec<Value>) {
    use CellKind::*;
    match *kind {
        Reg { has_en, .. } if !has_en || ins[0].as_bool() => {
            state[0] = ins[usize::from(has_en)].clone();
        }
        ShiftFsm { .. } if !state.is_empty() => {
            state.pop();
            state.insert(0, ins[0].clone());
        }
        MultSeq { latency, .. } => {
            let count = state[3].to_u64();
            if ins[0].as_bool() {
                if count > 0 {
                    state[0] = ins[1].xor(&state[0]);
                    state[1] = ins[2].xor(&state[1]);
                } else {
                    state[0] = ins[1].clone();
                    state[1] = ins[2].clone();
                }
                if latency == 1 {
                    state[2] = state[0].mul(&state[1]);
                }
                state[3] = Value::from_u64(32, u64::from(latency));
            } else if count > 0 {
                if count == 2 {
                    state[2] = state[0].mul(&state[1]);
                }
                state[3] = Value::from_u64(32, count - 1);
            }
        }
        MultPipe { .. } => {
            state.pop();
            state.insert(0, ins[0].mul(&ins[1]));
        }
        Dsp48 {
            use_c, use_pcin, ..
        } => {
            let mut p = state[2].clone();
            if use_c {
                p = p.add(&ins[2]);
            }
            if use_pcin {
                p = p.add(&ins[3]);
            }
            state[3] = p;
            state[2] = state[0].mul(&state[1]);
            state[0] = ins[0].clone();
            state[1] = ins[1].clone();
        }
        _ => {}
    }
}

/// Drives a scalar [`Sim`] of `kind`'s one-cell netlist beside the
/// `Value` model, comparing every output after every settle.
fn matches_model(kind: &CellKind) {
    let n = one_cell(kind);
    let inputs: Vec<SignalId> = n.inputs().collect();
    let outputs: Vec<SignalId> = n.outputs().collect();
    let mut sim = Sim::new(&n).unwrap();
    let mut state = model_init(kind);
    for t in 0..CYCLES {
        let ins: Vec<Value> = (inputs.iter().enumerate())
            .map(|(i, &sig)| stim(0, t, i, n.signal(sig).width))
            .collect();
        for (&sig, v) in inputs.iter().zip(&ins) {
            sim.poke(sig, v.clone());
        }
        sim.settle().unwrap();
        let want = model_eval(kind, &ins, &state);
        for (o, (&sig, want)) in outputs.iter().zip(&want).enumerate() {
            assert_eq!(sim.peek(sig), *want, "{kind:?}: output {o}, cycle {t}");
        }
        sim.tick().unwrap();
        model_tick(kind, &ins, &mut state);
    }
}

#[test]
fn every_cell_kind_matches_value_ops() {
    for kind in kinds().iter().chain(&wide_kinds()) {
        matches_model(kind);
    }
}

/// A netlist holding one cell of `kind`, every pin a top-level port.
fn one_cell(kind: &CellKind) -> Netlist {
    let mut n = Netlist::new("one");
    let ins = kind
        .input_widths()
        .iter()
        .enumerate()
        .map(|(i, &w)| n.add_input(format!("i{i}"), w))
        .collect();
    let outs: Vec<SignalId> = kind
        .output_widths()
        .iter()
        .enumerate()
        .map(|(o, &w)| n.add_signal(format!("o{o}"), w))
        .collect();
    n.add_cell("dut", kind.clone(), ins, outs.clone());
    for o in outs {
        n.mark_output(o);
    }
    n
}

/// Checks every signal of every lane against the lane's scalar run.
fn assert_lanes_agree(n: &Netlist, batch: &BatchSim<'_>, sims: &[Sim<'_>], what: &str) {
    for (l, sim) in sims.iter().enumerate() {
        for (s, sig) in n.signals().iter().enumerate() {
            let id = n.signal_by_name(&sig.name).unwrap();
            assert_eq!(
                batch.peek(id, l as u32),
                sim.peek(id),
                "{what}: lane {l}, signal {} (#{s}) value",
                sig.name
            );
            assert_eq!(
                batch.was_driven(id, l as u32),
                sim.was_driven(id),
                "{what}: lane {l}, signal {} driven flag",
                sig.name
            );
        }
    }
}

/// Runs `n` batched at `lanes` and scalar once per lane, poking the
/// per-lane stimulus of `poke_value` and comparing after every settle.
fn lockstep(
    n: &Netlist,
    lanes: u32,
    what: &str,
    mut poke_value: impl FnMut(u32, u64, usize, u32) -> Value,
) {
    let inputs: Vec<SignalId> = n.inputs().collect();
    let mut batch = BatchSim::new(n, lanes).unwrap();
    let mut sims: Vec<Sim<'_>> = (0..lanes).map(|_| Sim::new(n).unwrap()).collect();
    for t in 0..CYCLES {
        for (i, &sig) in inputs.iter().enumerate() {
            let w = n.signal(sig).width;
            for (l, sim) in sims.iter_mut().enumerate() {
                let v = poke_value(l as u32, t, i, w);
                batch.poke(sig, l as u32, v.clone());
                sim.poke(sig, v);
            }
        }
        let at = format!("{what} at {lanes} lanes, cycle {t}");
        let b = batch.settle();
        for (l, sim) in sims.iter_mut().enumerate() {
            assert_eq!(sim.settle(), Ok(()), "{at}: scalar lane {l}");
        }
        assert_eq!(b, Ok(()), "{at}: batch");
        assert_lanes_agree(n, &batch, &sims, &at);
        batch.tick().unwrap();
        for sim in &mut sims {
            sim.tick().unwrap();
        }
    }
}

#[test]
fn every_cell_kind_agrees_lane_by_lane() {
    let mut covered = [false; KINDS];
    for kind in kinds().iter().chain(&wide_kinds()) {
        covered[tag(kind)] = true;
        let n = one_cell(kind);
        for &lanes in &LANE_COUNTS {
            lockstep(&n, lanes, &format!("{kind:?}"), stim);
        }
    }
    let missing: Vec<usize> = (0..KINDS).filter(|&k| !covered[k]).collect();
    assert!(
        missing.is_empty(),
        "cell kinds never exercised: {missing:?}"
    );
}

/// Three guarded sources into `fan`, two into the enable `en`, feeding an
/// enabled register and an adder: `q <= en ? fan : q`, `sum = fan + q`.
fn fan_in() -> Netlist {
    let mut n = Netlist::new("fan_in");
    let g: Vec<SignalId> = (0..3).map(|k| n.add_input(format!("g{k}"), 1)).collect();
    let d: Vec<SignalId> = (0..3).map(|k| n.add_input(format!("d{k}"), 32)).collect();
    let h: Vec<SignalId> = (0..2).map(|k| n.add_input(format!("h{k}"), 1)).collect();
    let e: Vec<SignalId> = (0..2).map(|k| n.add_input(format!("e{k}"), 1)).collect();
    let fan = n.add_signal("fan", 32);
    for k in 0..3 {
        n.connect_guarded(fan, d[k], g[k]);
    }
    let en = n.add_signal("en", 1);
    for k in 0..2 {
        n.connect_guarded(en, e[k], h[k]);
    }
    let q = n.add_signal("q", 32);
    n.add_cell(
        "r",
        CellKind::Reg {
            width: 32,
            init: 7,
            has_en: true,
        },
        vec![en, fan],
        vec![q],
    );
    let sum = n.add_signal("sum", 32);
    n.add_cell("add", CellKind::Add { width: 32 }, vec![fan, q], vec![sum]);
    n.mark_output(sum);
    n
}

/// Conflict-free fan-in stimulus: per lane and cycle, at most one of
/// `g0..g2` and at most one of `h0..h1` is high (sometimes none, so the
/// fan-ins are also undriven). Input order is `g0 g1 g2 d0 d1 d2 h0 h1 e0 e1`.
fn fan_stim(lane: u32, t: u64, i: usize, width: u32) -> Value {
    let pick = hash(lane, t, 99);
    match i {
        0..=2 => Value::from_bool(pick % 4 == i as u64),
        6 | 7 => Value::from_bool((pick >> 8) % 3 == (i - 6) as u64),
        _ => stim(lane, t, i, width),
    }
}

#[test]
fn guarded_fan_in_agrees_lane_by_lane() {
    let n = fan_in();
    for &lanes in &LANE_COUNTS {
        lockstep(&n, lanes, "fan_in", fan_stim);
    }
}

#[test]
fn guarded_fan_in_conflict_is_the_lanes_scalar_error() {
    let n = fan_in();
    let inputs: Vec<SignalId> = n.inputs().collect();
    let sum = n.signal_by_name("sum").unwrap();
    for &lanes in &LANE_COUNTS {
        for force_full in [false, true] {
            let bad = lanes / 2 + lanes % 2 - 1; // the middle lane; 0 at one lane
            let conflict_at = 4;
            let what = format!("{lanes} lanes, force_full={force_full}");
            let mut batch = BatchSim::new(&n, lanes).unwrap();
            batch.set_force_full_settle(force_full);
            let mut sims: Vec<Sim<'_>> = (0..lanes)
                .map(|_| {
                    let mut s = Sim::new(&n).unwrap();
                    s.set_force_full_settle(force_full);
                    s
                })
                .collect();
            for t in 0..CYCLES {
                for (i, &sig) in inputs.iter().enumerate() {
                    let w = n.signal(sig).width;
                    for (l, sim) in sims.iter_mut().enumerate() {
                        let v = fan_stim(l as u32, t, i, w);
                        batch.poke(sig, l as u32, v.clone());
                        sim.poke(sig, v);
                    }
                }
                if t == conflict_at {
                    // Raise g0 and g1 together in one lane only.
                    for (&sig, on) in inputs.iter().zip([true, true, false]) {
                        batch.poke(sig, bad, Value::from_bool(on));
                        sims[bad as usize].poke(sig, Value::from_bool(on));
                    }
                    let before: Vec<Value> = sims.iter().map(|s| s.peek(sum)).collect();
                    let err = batch.settle().expect_err("injected conflict");
                    for (l, sim) in sims.iter_mut().enumerate() {
                        let r = sim.settle();
                        if l as u32 != bad {
                            assert_eq!(r, Ok(()), "{what}: clean lane {l}");
                            continue;
                        }
                        let mut scalar = r.expect_err("scalar conflict");
                        if let SimError::WriteConflict { lane, .. } = &mut scalar {
                            assert_eq!(*lane, None, "{what}: scalar errors carry no lane");
                            *lane = Some(bad);
                        } else {
                            panic!("{what}: expected a write conflict, got {scalar:?}");
                        }
                        assert_eq!(err, scalar, "{what}: batch error vs lane {bad}");
                        assert!(err.to_string().contains(&format!("(lane {bad})")));
                    }
                    // Every lane, the conflicted one included, matches its
                    // scalar run: clean lanes updated, the bad lane kept
                    // its old `fan`.
                    assert_lanes_agree(&n, &batch, &sims, &format!("{what}, conflict"));
                    let updated = (0..lanes)
                        .filter(|&l| l != bad && batch.peek(sum, l) != before[l as usize])
                        .count();
                    assert!(
                        lanes == 1 || updated > 0,
                        "{what}: no clean lane updated past the conflict"
                    );
                    // Withdraw the conflict and carry on.
                    for (i, &sig) in inputs.iter().enumerate().take(3) {
                        let v = fan_stim(bad, t, i, 1);
                        batch.poke(sig, bad, v.clone());
                        sims[bad as usize].poke(sig, v);
                    }
                }
                batch.settle().unwrap();
                for sim in &mut sims {
                    sim.settle().unwrap();
                }
                assert_lanes_agree(&n, &batch, &sims, &format!("{what}, cycle {t}"));
                batch.tick().unwrap();
                for sim in &mut sims {
                    sim.tick().unwrap();
                }
            }
        }
    }
}
