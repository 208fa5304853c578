//! Tests for the Calyx-lite IR, elaboration, and emission.

use crate::{CalyxError, Component, Guard, IntoPort, Names, PortRef, Program, Src};
use fil_bits::Value;
use rtl_sim::{CellKind, Sim};

fn v(w: u32, x: u64) -> Value {
    Value::from_u64(w, x)
}

/// Figure 6's running example: an adder used twice through an FSM, with
/// synthesized guards.
fn figure6_program() -> Program {
    let mut c = Component::new("main");
    c.add_input("go", 1);
    c.add_input("a", 32);
    c.add_input("b", 32);
    c.add_output("out", 32);
    c.add_primitive("Gf", CellKind::ShiftFsm { n: 3 });
    c.add_primitive("A", CellKind::Add { width: 32 });
    // Gf.go = go; out = A.out;
    c.assign(("Gf", "go"), "go");
    c.assign("out", ("A", "out"));
    // A.left = Gf._0 ? a; A.right = Gf._0 ? a;
    c.assign_guarded(("A", "left"), "a", [("Gf", "_0")]);
    c.assign_guarded(("A", "right"), "a", [("Gf", "_0")]);
    // A.left = Gf._2 ? b; A.right = Gf._2 ? b;
    c.assign_guarded(("A", "left"), "b", [("Gf", "_2")]);
    c.assign_guarded(("A", "right"), "b", [("Gf", "_2")]);
    let mut p = Program::new();
    p.add_component(c);
    p
}

#[test]
fn figure6_elaborates_and_runs() {
    let p = figure6_program();
    let n = p.elaborate("main").unwrap();
    let mut sim = Sim::new(&n).unwrap();

    // Cycle 0: trigger with a = 10.
    sim.poke_by_name("go", v(1, 1));
    sim.poke_by_name("a", v(32, 10));
    sim.poke_by_name("b", v(32, 0));
    sim.settle().unwrap();
    // a0 = invoke A<G>: out = a + a in the same cycle.
    assert_eq!(sim.peek_by_name("out").to_u64(), 20);
    sim.tick().unwrap();

    // Cycle 1: idle (no inputs needed).
    sim.poke_by_name("go", v(1, 0));
    sim.poke_by_name("a", v(32, 999)); // garbage: a is dead now
    sim.step().unwrap();

    // Cycle 2: b must be on the bus; a1 = invoke A<G+2>.
    sim.poke_by_name("b", v(32, 21));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("A.out").to_u64(), 42);
    sim.tick().unwrap();
}

#[test]
fn guard_disjunction_builds_or_tree() {
    // A.left driven under Gf._0 || Gf._1 || Gf._2.
    let mut c = Component::new("main");
    c.add_input("go", 1);
    c.add_input("x", 8);
    c.add_output("out", 8);
    c.add_primitive("Gf", CellKind::ShiftFsm { n: 3 });
    c.add_primitive("A", CellKind::Add { width: 8 });
    c.assign(("Gf", "go"), "go");
    let guard = [("Gf", "_0"), ("Gf", "_1"), ("Gf", "_2")];
    c.assign_guarded(("A", "left"), "x", guard.clone());
    c.assign_guarded(("A", "right"), "x", guard);
    c.assign("out", ("A", "out"));
    let mut p = Program::new();
    p.add_component(c);
    let n = p.elaborate("main").unwrap();
    let mut sim = Sim::new(&n).unwrap();

    sim.poke_by_name("go", v(1, 1));
    sim.poke_by_name("x", v(8, 5));
    sim.step().unwrap();
    sim.poke_by_name("go", v(1, 0));
    // Still held through _1 and _2.
    for _ in 0..2 {
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("out").to_u64(), 10);
        sim.tick().unwrap();
    }
    // After the window, the adder inputs are undriven: out = 0.
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("out").to_u64(), 0);
}

#[test]
fn constant_sources() {
    let mut c = Component::new("main");
    c.add_output("out", 8);
    c.add_primitive("A", CellKind::Add { width: 8 });
    c.assign(("A", "left"), v(8, 40));
    c.assign(("A", "right"), v(8, 2));
    c.assign("out", ("A", "out"));
    let mut p = Program::new();
    p.add_component(c);
    let n = p.elaborate("main").unwrap();
    let mut sim = Sim::new(&n).unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("out").to_u64(), 42);
}

#[test]
fn hierarchical_elaboration() {
    // sub(x) = x + 1; main(out) = sub(sub(5)).
    let mut sub = Component::new("inc");
    sub.add_input("x", 8);
    sub.add_output("y", 8);
    sub.add_primitive("A", CellKind::Add { width: 8 });
    sub.assign(("A", "left"), "x");
    sub.assign(("A", "right"), v(8, 1));
    sub.assign("y", ("A", "out"));

    let mut main = Component::new("main");
    main.add_output("out", 8);
    main.add_subcomponent("i0", "inc");
    main.add_subcomponent("i1", "inc");
    main.assign(("i0", "x"), v(8, 5));
    main.assign(("i1", "x"), ("i0", "y"));
    main.assign("out", ("i1", "y"));

    let mut p = Program::new();
    p.add_component(sub);
    p.add_component(main);
    let n = p.elaborate("main").unwrap();
    // Two adders and two consts (one per inc) + one const for main.
    assert_eq!(n.cells().len(), 5);
    let mut sim = Sim::new(&n).unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("out").to_u64(), 7);
    // Hierarchical names are reachable.
    assert!(n.signal_by_name("i0.A.out").is_some());
}

#[test]
fn unknown_component_rejected() {
    let p = Program::new();
    assert!(matches!(
        p.elaborate("nope"),
        Err(CalyxError::UnknownComponent(_))
    ));
}

#[test]
fn unknown_cell_rejected() {
    let mut c = Component::new("main");
    c.add_output("out", 8);
    c.assign("out", ("ghost", "y"));
    let mut p = Program::new();
    p.add_component(c);
    let err = p.elaborate("main").unwrap_err();
    assert!(matches!(err, CalyxError::UnknownCell { .. }));
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn unknown_port_rejected() {
    let mut c = Component::new("main");
    c.add_output("out", 8);
    c.add_primitive("A", CellKind::Add { width: 8 });
    c.assign("out", ("A", "nope"));
    let mut p = Program::new();
    p.add_component(c);
    assert!(matches!(
        p.elaborate("main"),
        Err(CalyxError::UnknownPort { .. })
    ));
}

#[test]
fn width_mismatch_rejected() {
    let mut c = Component::new("main");
    c.add_input("x", 16);
    c.add_output("out", 8);
    c.assign("out", "x");
    let mut p = Program::new();
    p.add_component(c);
    assert!(matches!(
        p.elaborate("main"),
        Err(CalyxError::WidthMismatch { .. })
    ));
}

#[test]
fn recursion_rejected() {
    let mut c = Component::new("loopy");
    c.add_output("out", 8);
    c.add_subcomponent("me", "loopy");
    let mut p = Program::new();
    p.add_component(c);
    assert!(matches!(
        p.elaborate("loopy"),
        Err(CalyxError::RecursiveComponent(_))
    ));
}

#[test]
#[should_panic(expected = "duplicate component")]
fn duplicate_component_panics() {
    let mut p = Program::new();
    p.add_component(Component::new("a"));
    p.add_component(Component::new("a"));
}

#[test]
fn mixed_guard_widths_rejected() {
    let mut c = Component::new("main");
    c.add_input("g", 8); // too wide for a guard
    c.add_input("x", 8);
    c.add_output("out", 8);
    c.assign_guarded("out", "x", ["g"]);
    let mut p = Program::new();
    p.add_component(c);
    assert!(matches!(
        p.elaborate("main"),
        Err(CalyxError::WidthMismatch { .. })
    ));
}

#[test]
fn verilog_emission_mentions_modules_and_guards() {
    let p = figure6_program();
    let s = crate::emit_program(&p);
    assert!(s.contains("module main"));
    assert!(s.contains("fsm_shift"));
    assert!(s.contains("std_add"));
    assert!(s.contains('?'));
    assert!(s.contains("endmodule"));
}

#[test]
fn symbols_name_each_cell_and_port_once() {
    let mut c = Component::new("main");
    c.add_primitive("A", CellKind::Add { width: 8 });
    c.assign(("A", "left"), "go");
    c.assign(("A", "right"), "go");
    let names: Vec<&str> = c.names.iter().collect();
    assert_eq!(names, ["A", "left", "go", "right"]);
    assert_eq!(c.names.port(c.assigns[0].dst), "A.left");
    assert_eq!(c.names.port(c.assigns[1].dst), "A.right");
    let go = PortRef::this(c.names.get("go").unwrap());
    assert_eq!(c.assigns[1].src, Src::Port(go));
    assert_eq!(c.names.port(go), "go");
    assert_eq!(c.names.get("nope"), None);
}

#[test]
fn component_lookup() {
    let p = figure6_program();
    let c = p.component("main").unwrap();
    assert_eq!(c.names.get("A"), Some(c.cells[1].name));
    assert!(c.names.get("nope").is_none());
    assert!(p.component("nope").is_none());
    assert_eq!(p.components().len(), 1);
}

#[test]
fn guard_is_true_classification() {
    let mut names = Names::default();
    assert!(Guard::True.is_true());
    assert!(Guard::Any(vec![]).is_true());
    assert!(!Guard::Any(vec!["g".into_port(&mut names)]).is_true());
}
