use super::*;
use calyx_lite::{Guard, PortRef, Src};
use fil_bits::Value;
use rtl_sim::{CellKind, Sim};

fn v(width: u32, x: u64) -> Value {
    Value::from_u64(width, x)
}

fn cfg(level: u8) -> OptConfig {
    OptConfig::level(level)
}

/// Elaborates `c` alone and evaluates it combinationally on `inputs`.
fn eval(c: &Component, inputs: &[(&str, Value)]) -> Vec<(String, Value)> {
    let mut p = Program::new();
    p.add_component(c.clone());
    let netlist = p.elaborate(&c.name).expect("elaborate");
    let mut sim = Sim::new(&netlist).expect("sim");
    for (name, value) in inputs {
        sim.poke_by_name(name, value.clone());
    }
    sim.settle().expect("settle");
    c.outputs
        .iter()
        .map(|(name, _)| (name.clone(), sim.peek_by_name(name).clone()))
        .collect()
}

/// Asserts that optimizing `c` at `level` preserves its combinational
/// behavior on `inputs`, and returns (optimized component, report).
fn check_equiv(mut c: Component, level: u8, inputs: &[(&str, Value)]) -> (Component, OptReport) {
    let before = eval(&c, inputs);
    let report = optimize_component(&mut c, &cfg(level));
    let after = eval(&c, inputs);
    assert_eq!(before, after, "optimization changed outputs at -O{level}");
    (c, report)
}

/// `out = a + b` with both operands constant: the adder folds away.
#[test]
fn const_fold_adder() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("add", "left"), Src::konst(v(8, 3)));
    c.assign(PortRef::cell("add", "right"), Src::konst(v(8, 4)));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));

    let (c, report) = check_equiv(c, 1, &[]);
    assert!(c.cells.is_empty(), "adder should fold: {:?}", c.cells);
    assert_eq!(c.assigns.len(), 1);
    assert!(matches!(&c.assigns[0].src, Src::Const(k) if *k == v(8, 7)));
    assert!(report.passes[0].rewrites > 0);
    assert_eq!(report.cells_before, 1);
    assert_eq!(report.cells_after, 0);
}

/// An undriven pin reads as zero at runtime; the folder must use the same
/// convention. `out = 5 & <undriven>` folds to 0.
#[test]
fn const_fold_undriven_pin_is_zero() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive("and", CellKind::And { width: 8 });
    c.assign(PortRef::cell("and", "left"), Src::konst(v(8, 5)));
    // `and.right` left undriven on purpose.
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("and", "out")));

    let (c, _) = check_equiv(c, 1, &[]);
    assert!(c.cells.is_empty());
    assert!(matches!(&c.assigns[0].src, Src::Const(k) if k.is_zero()));
}

/// Folding uses the simulator's own evaluator, so asymmetric ops agree
/// with runtime down to truncation: `(200 - 100) * 3` at width 8.
#[test]
fn const_fold_matches_simulator_semantics() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive("sub", CellKind::Sub { width: 8 });
    c.add_primitive("mul", CellKind::MulComb { width: 8 });
    c.assign(PortRef::cell("sub", "left"), Src::konst(v(8, 200)));
    c.assign(PortRef::cell("sub", "right"), Src::konst(v(8, 100)));
    c.assign(
        PortRef::cell("mul", "left"),
        Src::port(PortRef::cell("sub", "out")),
    );
    c.assign(PortRef::cell("mul", "right"), Src::konst(v(8, 3)));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("mul", "out")));

    let (c, _) = check_equiv(c, 1, &[]);
    assert!(c.cells.is_empty(), "both cells should fold: {:?}", c.cells);
    assert!(matches!(&c.assigns[0].src, Src::Const(k) if *k == v(8, 300 % 256)));
}

/// Registers never fold, even on all-constant inputs: their output is
/// state, not a function of this cycle's pins.
#[test]
fn const_fold_skips_registers() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive(
        "r",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
    );
    c.assign(PortRef::cell("r", "in"), Src::konst(v(8, 9)));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("r", "out")));

    let mut c2 = c.clone();
    optimize_component(&mut c2, &cfg(2));
    assert_eq!(c2.cells.len(), 1, "register must survive");
}

/// `Mult` by a power-of-two constant becomes `ShlConst`, keeping the cell
/// name so VCD/profile labels stay stable.
#[test]
fn strength_mul_pow2_becomes_shl() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("mul", CellKind::MulComb { width: 8 });
    c.assign(PortRef::cell("mul", "left"), Src::this("a"));
    c.assign(PortRef::cell("mul", "right"), Src::konst(v(8, 8)));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("mul", "out")));

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 13))]);
    assert_eq!(c.cells.len(), 1);
    assert_eq!(c.cells[0].name, "mul", "name must survive the rewrite");
    assert!(matches!(
        c.cells[0].proto,
        CellProto::Primitive(CellKind::ShlConst {
            width: 8,
            amount: 3
        })
    ));
    // The surviving operand now drives the unary `in` pin.
    assert!(c
        .assigns
        .iter()
        .any(|a| a.dst == PortRef::cell("mul", "in")));
    assert!(report.passes[1].rewrites > 0);
    assert!(report
        .originals_of("mul")
        .iter()
        .any(|n| n.pass == "strength"));
}

/// Multiplication by zero and by one collapse without any shift.
#[test]
fn strength_mul_zero_and_one() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("o0", 8);
    c.add_output("o1", 8);
    c.add_primitive("m0", CellKind::MulComb { width: 8 });
    c.add_primitive("m1", CellKind::MulComb { width: 8 });
    c.assign(PortRef::cell("m0", "left"), Src::this("a"));
    c.assign(PortRef::cell("m0", "right"), Src::konst(v(8, 0)));
    c.assign(PortRef::cell("m1", "left"), Src::konst(v(8, 1)));
    c.assign(PortRef::cell("m1", "right"), Src::this("a"));
    c.assign(PortRef::this("o0"), Src::port(PortRef::cell("m0", "out")));
    c.assign(PortRef::this("o1"), Src::port(PortRef::cell("m1", "out")));

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 77))]);
    assert!(
        c.cells.is_empty(),
        "both multipliers collapse: {:?}",
        c.cells
    );
}

/// Additive/bitwise identities forward the live operand.
#[test]
fn strength_identities_forward() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("add0", 8);
    c.add_output("and1", 8);
    c.add_output("xor0", 8);
    c.add_primitive("p", CellKind::Add { width: 8 });
    c.add_primitive("q", CellKind::And { width: 8 });
    c.add_primitive("r", CellKind::Xor { width: 8 });
    c.assign(PortRef::cell("p", "left"), Src::this("a"));
    c.assign(PortRef::cell("p", "right"), Src::konst(v(8, 0)));
    c.assign(PortRef::cell("q", "left"), Src::this("a"));
    c.assign(PortRef::cell("q", "right"), Src::konst(v(8, 0xff)));
    c.assign(PortRef::cell("r", "left"), Src::konst(v(8, 0)));
    c.assign(PortRef::cell("r", "right"), Src::this("a"));
    c.assign(PortRef::this("add0"), Src::port(PortRef::cell("p", "out")));
    c.assign(PortRef::this("and1"), Src::port(PortRef::cell("q", "out")));
    c.assign(PortRef::this("xor0"), Src::port(PortRef::cell("r", "out")));

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 0x5a))]);
    assert!(c.cells.is_empty(), "all identities collapse: {:?}", c.cells);
    for a in &c.assigns {
        assert!(matches!(&a.src, Src::Port(p) if *p == PortRef::this("a")));
    }
}

/// A `Mux` with a constant selector forwards the chosen arm.
#[test]
fn strength_mux_const_sel() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("b", 8);
    c.add_output("out", 8);
    c.add_primitive("m", CellKind::Mux { width: 8 });
    c.assign(PortRef::cell("m", "sel"), Src::konst(v(1, 1)));
    c.assign(PortRef::cell("m", "in0"), Src::this("a"));
    c.assign(PortRef::cell("m", "in1"), Src::this("b"));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("m", "out")));

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 1)), ("b", v(8, 2))]);
    assert!(c.cells.is_empty());
    assert!(matches!(&c.assigns[0].src, Src::Port(p) if *p == PortRef::this("b")));
}

/// Identity cells (full-width slice, same-width zero-extend, shift by 0)
/// are wires and forward away.
#[test]
fn forward_identity_cells() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive(
        "sl",
        CellKind::Slice {
            in_width: 8,
            hi: 7,
            lo: 0,
        },
    );
    c.add_primitive(
        "zx",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.add_primitive(
        "sh",
        CellKind::ShlConst {
            width: 8,
            amount: 0,
        },
    );
    c.assign(PortRef::cell("sl", "in"), Src::this("a"));
    c.assign(
        PortRef::cell("zx", "in"),
        Src::port(PortRef::cell("sl", "out")),
    );
    c.assign(
        PortRef::cell("sh", "in"),
        Src::port(PortRef::cell("zx", "out")),
    );
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("sh", "out")));

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 0xa5))]);
    assert!(c.cells.is_empty(), "wire chain collapses: {:?}", c.cells);
    assert!(matches!(&c.assigns[0].src, Src::Port(p) if *p == PortRef::this("a")));
    assert!(report.passes[2].rewrites > 0);
}

/// The systolic edge shape: an identity `ZExt` whose driver is guarded by
/// an FSM state, read by assignments guarded by the same state. Forwarding
/// fires because the readers' windows are contained in the driver's, and
/// dce then collects the unread wire cell.
#[test]
fn forward_guarded_identity_with_contained_window() {
    let mut c = Component::new("T");
    c.add_input("go", 1);
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("fsm", CellKind::ShiftFsm { n: 1 });
    c.assign(PortRef::cell("fsm", "go"), Src::this("go"));
    let s0 = PortRef::cell("fsm", "_0");
    c.add_primitive(
        "zx",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(
        PortRef::cell("zx", "in"),
        Src::this("a"),
        Guard::port(s0.clone()),
    );
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign_guarded(
        PortRef::cell("add", "left"),
        Src::port(PortRef::cell("zx", "out")),
        Guard::port(s0.clone()),
    );
    c.assign_guarded(
        PortRef::cell("add", "right"),
        Src::this("a"),
        Guard::port(s0),
    );
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));

    let (c, report) = check_equiv(c, 1, &[("go", v(1, 1)), ("a", v(8, 21))]);
    let names: Vec<&str> = c.cells.iter().map(|x| x.name.as_str()).collect();
    assert_eq!(names, ["fsm", "add"], "the wire cell dies, the adder stays");
    assert!(report.passes[2].rewrites > 0, "forward must have fired");
    let left = c
        .assigns
        .iter()
        .find(|a| a.dst == PortRef::cell("add", "left"))
        .unwrap();
    assert!(matches!(&left.src, Src::Port(p) if *p == PortRef::this("a")));
}

/// A reader guarded by a state *outside* the driver's window must NOT
/// forward: between windows the wire reads zero, not the driver's source.
#[test]
fn forward_guarded_identity_respects_window_containment() {
    let mut c = Component::new("T");
    c.add_input("go", 1);
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("fsm", CellKind::ShiftFsm { n: 2 });
    c.assign(PortRef::cell("fsm", "go"), Src::this("go"));
    c.add_primitive(
        "zx",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(
        PortRef::cell("zx", "in"),
        Src::this("a"),
        Guard::port(PortRef::cell("fsm", "_0")),
    );
    // Reads one cycle after the driver's window.
    c.assign_guarded(
        PortRef::this("out"),
        Src::port(PortRef::cell("zx", "out")),
        Guard::port(PortRef::cell("fsm", "_1")),
    );

    let mut c2 = c.clone();
    optimize_component(&mut c2, &cfg(2));
    let reader = c2
        .assigns
        .iter()
        .find(|a| a.dst == PortRef::this("out"))
        .unwrap();
    assert!(
        matches!(&reader.src, Src::Port(p) if *p == PortRef::cell("zx", "out")),
        "disjoint windows must not forward"
    );
    assert!(c2.cells.iter().any(|cell| cell.name == "zx"));
}

/// A guarded constant-zero driver still counts as constant zero (inactive
/// guards read as zero too), so identities fire through it: `x + (g ? 0)`
/// forwards to `x`.
#[test]
fn guarded_zero_operand_is_constant() {
    let mut c = Component::new("T");
    c.add_input("go", 1);
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("fsm", CellKind::ShiftFsm { n: 1 });
    c.assign(PortRef::cell("fsm", "go"), Src::this("go"));
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("add", "left"), Src::this("a"));
    c.assign_guarded(
        PortRef::cell("add", "right"),
        Src::konst(v(8, 0)),
        Guard::port(PortRef::cell("fsm", "_0")),
    );
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));

    let (c, _) = check_equiv(c, 1, &[("go", v(1, 1)), ("a", v(8, 77))]);
    assert!(
        !c.cells.iter().any(|cell| cell.name == "add"),
        "the adder is an identity: {:?}",
        c.cells
    );
    let reader = c
        .assigns
        .iter()
        .find(|a| a.dst == PortRef::this("out"))
        .unwrap();
    assert!(matches!(&reader.src, Src::Port(p) if *p == PortRef::this("a")));
}

/// A proper (narrowing) slice is NOT an identity and must survive.
#[test]
fn forward_keeps_narrowing_slice() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 4);
    c.add_primitive(
        "sl",
        CellKind::Slice {
            in_width: 8,
            hi: 3,
            lo: 0,
        },
    );
    c.assign(PortRef::cell("sl", "in"), Src::this("a"));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("sl", "out")));

    let (c, _) = check_equiv(c, 2, &[("a", v(8, 0xa5))]);
    assert_eq!(c.cells.len(), 1);
}

/// Two structurally identical adders merge; readers of the duplicate are
/// redirected to the representative (first in declaration order).
#[test]
fn cse_merges_identical_cells() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("b", 8);
    c.add_output("x", 8);
    c.add_output("y", 8);
    for name in ["add1", "add2"] {
        c.add_primitive(name, CellKind::Add { width: 8 });
        c.assign(PortRef::cell(name, "left"), Src::this("a"));
        c.assign(PortRef::cell(name, "right"), Src::this("b"));
    }
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("add1", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("add2", "out")));

    let (c, report) = check_equiv(c, 2, &[("a", v(8, 3)), ("b", v(8, 9))]);
    assert_eq!(c.cells.len(), 1);
    assert_eq!(c.cells[0].name, "add1", "first cell is the representative");
    for out in ["x", "y"] {
        let a = c
            .assigns
            .iter()
            .find(|a| a.dst == PortRef::this(out))
            .unwrap();
        assert!(matches!(&a.src, Src::Port(p) if *p == PortRef::cell("add1", "out")));
    }
    assert!(report.passes[3].rewrites > 0);
}

/// CSE is -O2 only: -O1 must leave the duplicates alone.
#[test]
fn cse_requires_level_two() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("x", 8);
    c.add_output("y", 8);
    for name in ["add1", "add2"] {
        c.add_primitive(name, CellKind::Add { width: 8 });
        c.assign(PortRef::cell(name, "left"), Src::this("a"));
        c.assign(PortRef::cell(name, "right"), Src::this("a"));
    }
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("add1", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("add2", "out")));

    let mut c1 = c.clone();
    optimize_component(&mut c1, &cfg(1));
    assert_eq!(c1.cells.len(), 2, "-O1 must not CSE");
    optimize_component(&mut c, &cfg(2));
    assert_eq!(c.cells.len(), 1, "-O2 must CSE");
}

/// Cells differing only in guards must NOT merge.
#[test]
fn cse_respects_guards() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("g", 1);
    c.add_output("x", 8);
    c.add_output("y", 8);
    for name in ["add1", "add2"] {
        c.add_primitive(name, CellKind::Add { width: 8 });
        c.assign(PortRef::cell(name, "right"), Src::this("a"));
    }
    c.assign_guarded(
        PortRef::cell("add1", "left"),
        Src::this("a"),
        Guard::port(PortRef::this("g")),
    );
    c.assign(PortRef::cell("add2", "left"), Src::this("a"));

    c.assign(PortRef::this("x"), Src::port(PortRef::cell("add1", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("add2", "out")));

    let mut c2 = c.clone();
    optimize_component(&mut c2, &cfg(2));
    assert_eq!(c2.cells.len(), 2, "guarded vs unguarded pins differ");
}

/// Unobservable cells die; cells referenced only through guards stay.
#[test]
fn dce_liveness_through_guards() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    // Live through a guard only.
    c.add_primitive("nz", CellKind::ReduceOr { width: 8 });
    c.assign(PortRef::cell("nz", "in"), Src::this("a"));
    c.assign_guarded(
        PortRef::this("out"),
        Src::this("a"),
        Guard::port(PortRef::cell("nz", "out")),
    );
    // Dead: computed, never observed.
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(PortRef::cell("junk", "in"), Src::this("a"));

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 3))]);
    let names: Vec<&str> = c.cells.iter().map(|x| x.name.as_str()).collect();
    assert_eq!(names, ["nz"], "guard keeps nz live, junk dies");
    assert!(report
        .notes
        .iter()
        .any(|n| n.pass == "dce" && n.original.contains("junk")));
}

/// A register feeding itself through combinational logic is a cycle; the
/// fixpoint loop must terminate and leave the loop intact (it is observed).
#[test]
fn fixpoint_terminates_on_register_loop() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive(
        "r1",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
    );
    c.add_primitive(
        "r2",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
    );
    c.add_primitive("inc", CellKind::Add { width: 8 });
    c.assign(
        PortRef::cell("inc", "left"),
        Src::port(PortRef::cell("r2", "out")),
    );
    c.assign(PortRef::cell("inc", "right"), Src::konst(v(8, 1)));
    c.assign(
        PortRef::cell("r1", "in"),
        Src::port(PortRef::cell("inc", "out")),
    );
    c.assign(
        PortRef::cell("r2", "in"),
        Src::port(PortRef::cell("r1", "out")),
    );
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("r1", "out")));

    let mut c2 = c.clone();
    let report = optimize_component(&mut c2, &cfg(2));
    assert_eq!(c2.cells.len(), 3, "observed register loop survives");
    assert!(
        report.iterations <= 10,
        "fixpoint must terminate, took {} iterations",
        report.iterations
    );
}

/// -O0 is a strict no-op.
#[test]
fn level_zero_is_identity() {
    let mut c = Component::new("T");
    c.add_output("out", 8);
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("add", "left"), Src::konst(v(8, 3)));
    c.assign(PortRef::cell("add", "right"), Src::konst(v(8, 4)));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));

    let report = optimize_component(&mut c, &cfg(0));
    assert_eq!(c.cells.len(), 1);
    assert_eq!(report.rewrites(), 0);
    assert_eq!(report.iterations, 0);
}

/// A constant that a guard port folds to decides the guard statically:
/// nonzero ⇒ unconditional, zero ⇒ the assignment disappears.
#[test]
fn guard_constant_simplification() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    // `one.out` is the constant 1 (1'b1): `out = one.out ? a` ⇒ `out = a`.
    c.add_primitive("one", CellKind::ReduceOr { width: 8 });
    c.assign(PortRef::cell("one", "in"), Src::konst(v(8, 255)));
    c.assign_guarded(
        PortRef::this("out"),
        Src::this("a"),
        Guard::port(PortRef::cell("one", "out")),
    );

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 42))]);
    assert!(c.cells.is_empty());
    assert_eq!(c.assigns.len(), 1);
    assert!(c.assigns[0].guard.is_true());

    // Now the never-active side: a guard that folds to zero drops the
    // assignment, and the output port falls back to undriven-zero.
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("zero", CellKind::ReduceOr { width: 8 });
    c.assign(PortRef::cell("zero", "in"), Src::konst(v(8, 0)));
    c.assign_guarded(
        PortRef::this("out"),
        Src::this("a"),
        Guard::port(PortRef::cell("zero", "out")),
    );
    let (c, _) = check_equiv(c, 1, &[("a", v(8, 42))]);
    assert!(c.cells.is_empty());
    assert!(
        c.assigns.is_empty(),
        "never-active assign dropped: {:?}",
        c.assigns
    );
}

/// The injection hook mis-folds partially-constant cells — and ONLY fires
/// when enabled. This is what the fuzz oracle's opt-lockstep stage exists
/// to catch.
#[test]
fn inject_bad_fold_is_unsound_on_purpose() {
    let build = || {
        let mut c = Component::new("T");
        c.add_input("a", 8);
        c.add_output("out", 8);
        c.add_primitive("add", CellKind::Add { width: 8 });
        c.assign(PortRef::cell("add", "left"), Src::this("a"));
        c.assign(PortRef::cell("add", "right"), Src::konst(v(8, 4)));
        c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));
        c
    };
    // Healthy optimizer: the partially-constant adder survives (+4 is not
    // an identity) and behavior is preserved.
    let (healthy, _) = check_equiv(build(), 2, &[("a", v(8, 10))]);
    assert_eq!(healthy.cells.len(), 1);

    // Injected: the adder folds as if `a` were 0 ⇒ output becomes 4
    // regardless of `a`. Wrong for a=10.
    let mut broken = build();
    let mut bad = cfg(2);
    bad.inject_bad_fold = true;
    optimize_component(&mut broken, &bad);
    assert!(broken.cells.is_empty(), "bad fold should fire");
    let outs = eval(&broken, &[("a", v(8, 10))]);
    assert_eq!(outs[0].1, v(8, 4), "deliberately wrong output");
}

/// Reports merge across components/units.
#[test]
fn report_absorb_sums() {
    let mut a = OptReport {
        level: 1,
        iterations: 2,
        cells_before: 10,
        cells_after: 6,
        ..OptReport::default()
    };
    a.passes[0].rewrites = 3;
    let mut b = OptReport {
        level: 2,
        iterations: 1,
        cells_before: 4,
        cells_after: 4,
        ..OptReport::default()
    };
    b.passes[0].rewrites = 1;
    b.passes[4].rewrites = 2;
    a.absorb(&b);
    assert_eq!(a.level, 2);
    assert_eq!(a.iterations, 3);
    assert_eq!(a.cells_before, 14);
    assert_eq!(a.cells_after, 10);
    assert_eq!(a.passes[0].rewrites, 4);
    assert_eq!(a.passes[4].rewrites, 2);
}

/// `optimize_program` touches every component and leaves lookups intact.
#[test]
fn optimize_program_all_components() {
    let mut p = Program::new();
    for name in ["A", "B"] {
        let mut c = Component::new(name);
        c.add_output("out", 8);
        c.add_primitive("add", CellKind::Add { width: 8 });
        c.assign(PortRef::cell("add", "left"), Src::konst(v(8, 1)));
        c.assign(PortRef::cell("add", "right"), Src::konst(v(8, 2)));
        c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));
        p.add_component(c);
    }
    let report = optimize_program(&mut p, &cfg(2));
    assert_eq!(report.cells_before, 2);
    assert_eq!(report.cells_after, 0);
    assert!(p.component("A").unwrap().cells.is_empty());
    assert!(p.component("B").unwrap().cells.is_empty());
}

/// CSE's canonical driver order sorts by pin, not by assignment order:
/// the same drivers assigned in a different order still merge, and a
/// trivially-true guard reads the same whether spelled `True` or an empty
/// disjunction.
#[test]
fn cse_canonical_driver_order_and_trivial_guards() {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("b", 8);
    c.add_output("x", 8);
    c.add_output("y", 8);
    c.add_primitive("add1", CellKind::Add { width: 8 });
    c.add_primitive("add2", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("add1", "left"), Src::this("a"));
    c.assign(PortRef::cell("add1", "right"), Src::this("b"));
    c.assign_guarded(
        PortRef::cell("add2", "right"),
        Src::this("b"),
        Guard::Any(vec![]),
    );
    c.assign(PortRef::cell("add2", "left"), Src::this("a"));
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("add1", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("add2", "out")));

    let (c, report) = check_equiv(c, 2, &[("a", v(8, 3)), ("b", v(8, 9))]);
    let names: Vec<&str> = c.cells.iter().map(|x| x.name.as_str()).collect();
    assert_eq!(names, ["add1"]);
    assert!(report.notes.iter().any(|n| n.pass == "cse"
        && n.original == "cell add2"
        && n.replacement == "merged into add1"));
}

/// Cells with identical drivers but different kind parameters (slices of
/// one bus) stay apart, and so do cells whose drivers differ only in the
/// order of two drivers on one pin.
#[test]
fn cse_exact_comparison_separates_near_twins() {
    let slice = |hi, lo| CellKind::Slice {
        in_width: 8,
        hi,
        lo,
    };
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("g", 1);
    c.add_input("h", 1);
    c.add_output("x", 4);
    c.add_output("y", 4);
    c.add_primitive("lo", slice(3, 0));
    c.add_primitive("hi", slice(7, 4));
    c.assign(PortRef::cell("lo", "in"), Src::this("a"));
    c.assign(PortRef::cell("hi", "in"), Src::this("a"));
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("lo", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("hi", "out")));
    let mut c2 = c.clone();
    optimize_component(&mut c2, &cfg(2));
    assert_eq!(c2.cells.len(), 2, "different slices must not merge");

    let fanin = Fanin::new(&c);
    assert!(!same_cell(
        &c,
        &c.cells[0],
        fanin.drivers_of(0),
        &c.cells[1],
        fanin.drivers_of(1)
    ));
    assert!(same_cell(
        &c,
        &c.cells[0],
        fanin.drivers_of(0),
        &c.cells[0],
        fanin.drivers_of(0)
    ));
    drop(fanin);

    // Two guarded drivers on one pin, in opposite orders.
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("b", 8);
    c.add_input("g", 1);
    c.add_input("h", 1);
    c.add_output("x", 8);
    c.add_output("y", 8);
    for (name, first, second) in [("n1", "g", "h"), ("n2", "h", "g")] {
        c.add_primitive(name, CellKind::Not { width: 8 });
        c.assign_guarded(
            PortRef::cell(name, "in"),
            Src::this("a"),
            Guard::port(PortRef::this(first)),
        );
        c.assign_guarded(
            PortRef::cell(name, "in"),
            Src::this("b"),
            Guard::port(PortRef::this(second)),
        );
    }
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("n1", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("n2", "out")));
    optimize_component(&mut c, &cfg(2));
    assert_eq!(c.cells.len(), 2, "driver sets differ per guard");
}

/// A chain of `n` inverters, each reading the previous one. The driver of
/// link `i` precedes the driver of link `i + 1`, the order in which a
/// liveness pass that rescans every assignment until nothing changes
/// needs one sweep per link.
fn inverter_chain(n: usize, observed: bool) -> Component {
    let mut c = Component::new("Chain");
    c.add_input("a", 8);
    c.add_output("out", 8);
    for i in 0..n {
        c.add_primitive(format!("n{i}"), CellKind::Not { width: 8 });
    }
    for i in 0..n {
        let src = if i == 0 {
            Src::this("a")
        } else {
            Src::port(PortRef::cell(format!("n{}", i - 1), "out"))
        };
        c.assign(PortRef::cell(format!("n{i}"), "in"), src);
    }
    let last = if observed {
        Src::port(PortRef::cell(format!("n{}", n - 1), "out"))
    } else {
        Src::this("a")
    };
    c.assign(PortRef::this("out"), last);
    c
}

/// dce on a 2000-cell chain: an observed chain keeps every cell, an
/// unobserved one loses every cell and every assignment into it.
#[test]
fn dce_long_chain_keeps_or_removes_every_cell() {
    const N: usize = 2000;

    let mut live = inverter_chain(N, true);
    let report = optimize_component(&mut live, &cfg(2));
    assert_eq!(live.cells.len(), N, "observed chain must survive whole");
    assert_eq!(live.assigns.len(), N + 1);
    assert_eq!(report.rewrites(), 0);
    assert_eq!(report.iterations, 1);

    let mut dead = inverter_chain(N, false);
    let report = optimize_component(&mut dead, &cfg(2));
    assert!(dead.cells.is_empty(), "unobserved chain must die whole");
    assert_eq!(dead.assigns.len(), 1, "only `out = a` survives");
    assert_eq!(
        report.passes[4].rewrites,
        2 * N as u64,
        "N cells + N assigns"
    );
    assert_eq!(report.notes.len(), N, "one dce note per cell");
    assert!(report.notes.iter().all(|n| n.pass == "dce"));
}

/// The fixpoint stops after an iteration in which only dce fired; the
/// confirming iteration (run by debug builds only) is not counted.
#[test]
fn fixpoint_stops_after_dce_only_iteration() {
    // Dead code only: one iteration, in which only dce fires.
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(PortRef::cell("junk", "in"), Src::this("a"));
    c.assign(PortRef::this("out"), Src::this("a"));
    let report = optimize_component(&mut c, &cfg(2));
    assert!(c.cells.is_empty());
    assert_eq!(report.passes[4].rewrites, 2);
    assert_eq!(
        report.iterations, 1,
        "a dce-only iteration ends the fixpoint"
    );

    // A fold and dead code in one iteration: the fold may enable more
    // work, so a second (empty) iteration confirms the fixpoint.
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_output("out", 8);
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("add", "left"), Src::konst(v(8, 3)));
    c.assign(PortRef::cell("add", "right"), Src::konst(v(8, 4)));
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(PortRef::cell("junk", "in"), Src::this("a"));
    c.assign(PortRef::this("out"), Src::port(PortRef::cell("add", "out")));
    let report = optimize_component(&mut c, &cfg(2));
    assert!(c.cells.is_empty());
    assert_eq!(report.iterations, 2);

    // Nothing to do at all: one iteration.
    let mut c = inverter_chain(3, true);
    assert_eq!(optimize_component(&mut c, &cfg(2)).iterations, 1);
}

/// A component on which every pass fires: const-fold, strength (a
/// multiply by 4 and an add of 0), forward (an identity slice and a
/// windowed zero-extension), cse and dce.
fn every_pass_fires() -> Component {
    let mut c = Component::new("T");
    c.add_input("a", 8);
    c.add_input("s", 1);
    c.add_output("x", 8);
    c.add_output("y", 8);
    c.add_output("z", 8);
    c.add_output("w", 8);
    // const-fold: 2 + 3.
    c.add_primitive("k", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("k", "left"), Src::konst(v(8, 2)));
    c.assign(PortRef::cell("k", "right"), Src::konst(v(8, 3)));
    // strength: a * 4 and a + 0.
    c.add_primitive("m", CellKind::MulComb { width: 8 });
    c.assign(PortRef::cell("m", "left"), Src::this("a"));
    c.assign(PortRef::cell("m", "right"), Src::konst(v(8, 4)));
    c.add_primitive("p", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("p", "left"), Src::this("a"));
    c.assign(
        PortRef::cell("p", "right"),
        Src::port(PortRef::cell("k", "out")),
    );
    c.add_primitive("p0", CellKind::Add { width: 8 });
    c.assign(
        PortRef::cell("p0", "left"),
        Src::port(PortRef::cell("m", "out")),
    );
    c.assign(PortRef::cell("p0", "right"), Src::konst(v(8, 0)));
    // forward: an identity slice, and a zero-extension written in state
    // `s` and read in state `s`.
    c.add_primitive(
        "id",
        CellKind::Slice {
            in_width: 8,
            hi: 7,
            lo: 0,
        },
    );
    c.assign(
        PortRef::cell("id", "in"),
        Src::port(PortRef::cell("p0", "out")),
    );
    c.add_primitive(
        "win",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(
        PortRef::cell("win", "in"),
        Src::this("a"),
        Guard::port(PortRef::this("s")),
    );
    // cse: a twin of `p`.
    c.add_primitive("q", CellKind::Add { width: 8 });
    c.assign(PortRef::cell("q", "left"), Src::this("a"));
    c.assign(
        PortRef::cell("q", "right"),
        Src::port(PortRef::cell("k", "out")),
    );
    // dce: never read.
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(PortRef::cell("junk", "in"), Src::this("a"));
    c.assign(PortRef::this("x"), Src::port(PortRef::cell("id", "out")));
    c.assign(PortRef::this("y"), Src::port(PortRef::cell("p", "out")));
    c.assign(PortRef::this("z"), Src::port(PortRef::cell("q", "out")));
    c.assign_guarded(
        PortRef::this("w"),
        Src::port(PortRef::cell("win", "out")),
        Guard::port(PortRef::this("s")),
    );
    c
}

/// Turning the source map off changes nothing but the source map: the
/// optimized component and every counter match, at both levels.
#[test]
fn record_notes_off_changes_only_the_notes() {
    for level in [1, 2] {
        let mut on = every_pass_fires();
        let r_on = optimize_component(&mut on, &cfg(level));
        let mut off = every_pass_fires();
        let quiet = OptConfig {
            record_notes: false,
            ..cfg(level)
        };
        let r_off = optimize_component(&mut off, &quiet);
        if level == 2 {
            for (i, pass) in r_on.passes.iter().enumerate() {
                assert!(pass.rewrites > 0, "-O2: {} never fired", PASSES[i]);
            }
        }
        assert!(!r_on.notes.is_empty());
        assert!(r_off.notes.is_empty());
        let rewrites = |r: &OptReport| r.passes.map(|p| p.rewrites);
        assert_eq!(rewrites(&r_on), rewrites(&r_off), "-O{level}");
        assert_eq!(
            (r_on.iterations, r_on.cells_after, r_on.assigns_after),
            (r_off.iterations, r_off.cells_after, r_off.assigns_after)
        );
        let mut p_on = Program::new();
        p_on.add_component(on);
        let mut p_off = Program::new();
        p_off.add_component(off);
        assert_eq!(
            calyx_lite::emit_program(&p_on),
            calyx_lite::emit_program(&p_off),
            "-O{level}"
        );
    }
}

/// Pass times accumulate in nanoseconds and round once, to the nearest
/// microsecond, when reported.
#[test]
fn pass_times_round_once() {
    assert_eq!(ns_to_us(499), 0);
    assert_eq!(ns_to_us(500), 1);
    assert_eq!(ns_to_us(1_499), 1);
    // Three 400 ns passes read 1 µs together, not 3 × 0.
    let mut total = OptReport::default();
    for _ in 0..3 {
        let mut r = OptReport::default();
        r.passes[0].ns = 400;
        total.absorb(&r);
    }
    assert_eq!(total.passes[0].ns, 1_200);
    assert_eq!(ns_to_us(total.passes[0].ns), 1);
}
