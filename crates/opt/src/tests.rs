use super::*;
use calyx_lite::{PortRef, Src};
use fil_bits::Value;
use rtl_sim::{CellKind, Sim};

fn v(width: u32, x: u64) -> Value {
    Value::from_u64(width, x)
}

fn cfg(level: u8) -> OptConfig {
    OptConfig::level(level)
}

/// `p` by names: `cell.port`, or `port`.
fn show(c: &Component, p: PortRef) -> String {
    c.names.port(p)
}

/// The names of `c`'s cells, in order.
fn cell_names(c: &Component) -> Vec<&str> {
    c.cells.iter().map(|x| &c.names[x.name]).collect()
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
        .map(|&(name, _)| {
            let name = &c.names[name];
            (name.to_owned(), sim.peek_by_name(name).clone())
        })
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
    c.assign(("add", "left"), v(8, 3));
    c.assign(("add", "right"), v(8, 4));
    c.assign("out", ("add", "out"));

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
    c.assign(("and", "left"), v(8, 5));
    // `and.right` left undriven on purpose.
    c.assign("out", ("and", "out"));

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
    c.assign(("sub", "left"), v(8, 200));
    c.assign(("sub", "right"), v(8, 100));
    c.assign(("mul", "left"), ("sub", "out"));
    c.assign(("mul", "right"), v(8, 3));
    c.assign("out", ("mul", "out"));

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
    c.assign(("r", "in"), v(8, 9));
    c.assign("out", ("r", "out"));

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
    c.assign(("mul", "left"), "a");
    c.assign(("mul", "right"), v(8, 8));
    c.assign("out", ("mul", "out"));

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 13))]);
    assert_eq!(c.cells.len(), 1);
    assert_eq!(
        &c.names[c.cells[0].name], "mul",
        "name must survive the rewrite"
    );
    assert!(matches!(
        c.cells[0].proto,
        CellProto::Primitive(CellKind::ShlConst {
            width: 8,
            amount: 3
        })
    ));
    // The surviving operand now drives the unary `in` pin.
    assert!(c.assigns.iter().any(|a| show(&c, a.dst) == "mul.in"));
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
    c.assign(("m0", "left"), "a");
    c.assign(("m0", "right"), v(8, 0));
    c.assign(("m1", "left"), v(8, 1));
    c.assign(("m1", "right"), "a");
    c.assign("o0", ("m0", "out"));
    c.assign("o1", ("m1", "out"));

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
    c.assign(("p", "left"), "a");
    c.assign(("p", "right"), v(8, 0));
    c.assign(("q", "left"), "a");
    c.assign(("q", "right"), v(8, 0xff));
    c.assign(("r", "left"), v(8, 0));
    c.assign(("r", "right"), "a");
    c.assign("add0", ("p", "out"));
    c.assign("and1", ("q", "out"));
    c.assign("xor0", ("r", "out"));

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 0x5a))]);
    assert!(c.cells.is_empty(), "all identities collapse: {:?}", c.cells);
    for a in &c.assigns {
        assert!(matches!(&a.src, Src::Port(p) if show(&c, *p) == "a"));
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
    c.assign(("m", "sel"), v(1, 1));
    c.assign(("m", "in0"), "a");
    c.assign(("m", "in1"), "b");
    c.assign("out", ("m", "out"));

    let (c, _) = check_equiv(c, 1, &[("a", v(8, 1)), ("b", v(8, 2))]);
    assert!(c.cells.is_empty());
    assert!(matches!(&c.assigns[0].src, Src::Port(p) if show(&c, *p) == "b"));
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
    c.assign(("sl", "in"), "a");
    c.assign(("zx", "in"), ("sl", "out"));
    c.assign(("sh", "in"), ("zx", "out"));
    c.assign("out", ("sh", "out"));

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 0xa5))]);
    assert!(c.cells.is_empty(), "wire chain collapses: {:?}", c.cells);
    assert!(matches!(&c.assigns[0].src, Src::Port(p) if show(&c, *p) == "a"));
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
    c.assign(("fsm", "go"), "go");
    let s0 = ("fsm", "_0");
    c.add_primitive(
        "zx",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(("zx", "in"), "a", [s0.clone()]);
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign_guarded(("add", "left"), ("zx", "out"), [s0.clone()]);
    c.assign_guarded(("add", "right"), "a", [s0]);
    c.assign("out", ("add", "out"));

    let (c, report) = check_equiv(c, 1, &[("go", v(1, 1)), ("a", v(8, 21))]);
    let names: Vec<&str> = cell_names(&c);
    assert_eq!(names, ["fsm", "add"], "the wire cell dies, the adder stays");
    assert!(report.passes[2].rewrites > 0, "forward must have fired");
    let left = c
        .assigns
        .iter()
        .find(|a| show(&c, a.dst) == "add.left")
        .unwrap();
    assert!(matches!(&left.src, Src::Port(p) if show(&c, *p) == "a"));
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
    c.assign(("fsm", "go"), "go");
    c.add_primitive(
        "zx",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(("zx", "in"), "a", [("fsm", "_0")]);
    // Reads one cycle after the driver's window.
    c.assign_guarded("out", ("zx", "out"), [("fsm", "_1")]);

    let mut c2 = c.clone();
    optimize_component(&mut c2, &cfg(2));
    let reader = c2
        .assigns
        .iter()
        .find(|a| show(&c2, a.dst) == "out")
        .unwrap();
    assert!(
        matches!(&reader.src, Src::Port(p) if show(&c2, *p) == "zx.out"),
        "disjoint windows must not forward"
    );
    assert!(c2.cells.iter().any(|cell| c2.names[cell.name] == *"zx"));
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
    c.assign(("fsm", "go"), "go");
    c.add_primitive("add", CellKind::Add { width: 8 });
    c.assign(("add", "left"), "a");
    c.assign_guarded(("add", "right"), v(8, 0), [("fsm", "_0")]);
    c.assign("out", ("add", "out"));

    let (c, _) = check_equiv(c, 1, &[("go", v(1, 1)), ("a", v(8, 77))]);
    assert!(
        !c.cells.iter().any(|cell| c.names[cell.name] == *"add"),
        "the adder is an identity: {:?}",
        c.cells
    );
    let reader = c.assigns.iter().find(|a| show(&c, a.dst) == "out").unwrap();
    assert!(matches!(&reader.src, Src::Port(p) if show(&c, *p) == "a"));
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
    c.assign(("sl", "in"), "a");
    c.assign("out", ("sl", "out"));

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
        c.assign((name, "left"), "a");
        c.assign((name, "right"), "b");
    }
    c.assign("x", ("add1", "out"));
    c.assign("y", ("add2", "out"));

    let (c, report) = check_equiv(c, 2, &[("a", v(8, 3)), ("b", v(8, 9))]);
    assert_eq!(c.cells.len(), 1);
    assert_eq!(
        &c.names[c.cells[0].name], "add1",
        "first cell is the representative"
    );
    for out in ["x", "y"] {
        let a = c.assigns.iter().find(|a| show(&c, a.dst) == out).unwrap();
        assert!(matches!(&a.src, Src::Port(p) if show(&c, *p) == "add1.out"));
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
        c.assign((name, "left"), "a");
        c.assign((name, "right"), "a");
    }
    c.assign("x", ("add1", "out"));
    c.assign("y", ("add2", "out"));

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
        c.assign((name, "right"), "a");
    }
    c.assign_guarded(("add1", "left"), "a", ["g"]);
    c.assign(("add2", "left"), "a");

    c.assign("x", ("add1", "out"));
    c.assign("y", ("add2", "out"));

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
    c.assign(("nz", "in"), "a");
    c.assign_guarded("out", "a", [("nz", "out")]);
    // Dead: computed, never observed.
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(("junk", "in"), "a");

    let (c, report) = check_equiv(c, 1, &[("a", v(8, 3))]);
    let names: Vec<&str> = cell_names(&c);
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
    c.assign(("inc", "left"), ("r2", "out"));
    c.assign(("inc", "right"), v(8, 1));
    c.assign(("r1", "in"), ("inc", "out"));
    c.assign(("r2", "in"), ("r1", "out"));
    c.assign("out", ("r1", "out"));

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
    c.assign(("add", "left"), v(8, 3));
    c.assign(("add", "right"), v(8, 4));
    c.assign("out", ("add", "out"));

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
    c.assign(("one", "in"), v(8, 255));
    c.assign_guarded("out", "a", [("one", "out")]);

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
    c.assign(("zero", "in"), v(8, 0));
    c.assign_guarded("out", "a", [("zero", "out")]);
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
        c.assign(("add", "left"), "a");
        c.assign(("add", "right"), v(8, 4));
        c.assign("out", ("add", "out"));
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
        c.assign(("add", "left"), v(8, 1));
        c.assign(("add", "right"), v(8, 2));
        c.assign("out", ("add", "out"));
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
    c.assign(("add1", "left"), "a");
    c.assign(("add1", "right"), "b");
    c.assign_guarded(("add2", "right"), "b", Vec::<PortRef>::new());
    c.assign(("add2", "left"), "a");
    c.assign("x", ("add1", "out"));
    c.assign("y", ("add2", "out"));

    let (c, report) = check_equiv(c, 2, &[("a", v(8, 3)), ("b", v(8, 9))]);
    let names: Vec<&str> = cell_names(&c);
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
    c.assign(("lo", "in"), "a");
    c.assign(("hi", "in"), "a");
    c.assign("x", ("lo", "out"));
    c.assign("y", ("hi", "out"));
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
        c.assign_guarded((name, "in"), "a", [first]);
        c.assign_guarded((name, "in"), "b", [second]);
    }
    c.assign("x", ("n1", "out"));
    c.assign("y", ("n2", "out"));
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
        let dst = (format!("n{i}"), "in");
        if i == 0 {
            c.assign(dst, "a");
        } else {
            c.assign(dst, (format!("n{}", i - 1), "out"));
        }
    }
    if observed {
        c.assign("out", (format!("n{}", n - 1), "out"));
    } else {
        c.assign("out", "a");
    }
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
    c.assign(("junk", "in"), "a");
    c.assign("out", "a");
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
    c.assign(("add", "left"), v(8, 3));
    c.assign(("add", "right"), v(8, 4));
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(("junk", "in"), "a");
    c.assign("out", ("add", "out"));
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
    c.assign(("k", "left"), v(8, 2));
    c.assign(("k", "right"), v(8, 3));
    // strength: a * 4 and a + 0.
    c.add_primitive("m", CellKind::MulComb { width: 8 });
    c.assign(("m", "left"), "a");
    c.assign(("m", "right"), v(8, 4));
    c.add_primitive("p", CellKind::Add { width: 8 });
    c.assign(("p", "left"), "a");
    c.assign(("p", "right"), ("k", "out"));
    c.add_primitive("p0", CellKind::Add { width: 8 });
    c.assign(("p0", "left"), ("m", "out"));
    c.assign(("p0", "right"), v(8, 0));
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
    c.assign(("id", "in"), ("p0", "out"));
    c.add_primitive(
        "win",
        CellKind::ZeroExt {
            in_width: 8,
            out_width: 8,
        },
    );
    c.assign_guarded(("win", "in"), "a", ["s"]);
    // cse: a twin of `p`.
    c.add_primitive("q", CellKind::Add { width: 8 });
    c.assign(("q", "left"), "a");
    c.assign(("q", "right"), ("k", "out"));
    // dce: never read.
    c.add_primitive("junk", CellKind::Not { width: 8 });
    c.assign(("junk", "in"), "a");
    c.assign("x", ("id", "out"));
    c.assign("y", ("p", "out"));
    c.assign("z", ("q", "out"));
    c.assign_guarded("w", ("win", "out"), ["s"]);
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
