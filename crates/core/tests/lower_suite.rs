//! End-to-end compilation tests: Filament source → type check → Low
//! Filament lowering → Calyx-lite → flat netlist → cycle-accurate simulation
//! (the full Figure 6 flow).

use fil_bits::Value;
use filament_core::{
    check_program, lower_program, param_u32, parse_program, ParamTooLarge, PrimitiveRegistry,
};
use rtl_sim::{CellKind, Sim};

/// A registry mapping the test externs to simulator primitives.
struct TestRegistry;

impl PrimitiveRegistry for TestRegistry {
    fn primitive(&self, name: &str, params: &[u64]) -> Result<Option<CellKind>, ParamTooLarge> {
        let w = param_u32(params, 0, 32)?;
        Ok(match name {
            "Add" => Some(CellKind::Add { width: 32 }),
            "Add8" => Some(CellKind::Add { width: 8 }),
            "Mux" => Some(CellKind::Mux { width: 32 }),
            "Reg" => Some(CellKind::Reg {
                width: 32,
                init: 0,
                has_en: true,
            }),
            "Del" => Some(CellKind::Reg {
                width: 32,
                init: 0,
                has_en: false,
            }),
            "Mult" => Some(CellKind::MultSeq {
                width: 32,
                latency: 2,
            }),
            "FastMult" => Some(CellKind::MultPipe {
                width: 32,
                latency: 2,
            }),
            "PrevW" => Some(CellKind::Reg {
                width: w,
                init: 0,
                has_en: true,
            }),
            _ => None,
        })
    }
}

const STDLIB: &str = r#"
    extern comp Add<T: 1>(@[T, T+1] left: 32, @[T, T+1] right: 32)
        -> (@[T, T+1] out: 32);
    extern comp Mux<T: 1>(@[T, T+1] sel: 1, @[T, T+1] in0: 32,
        @[T, T+1] in1: 32) -> (@[T, T+1] out: 32);
    extern comp Reg<G: 1>(@interface[G] en: 1, @[G, G+1] in: 32)
        -> (@[G+1, G+2] out: 32);
    extern comp Del<G: 1>(@[G, G+1] in: 32) -> (@[G+1, G+2] out: 32);
    extern comp Mult<T: 3>(@interface[T] go: 1, @[T, T+1] left: 32,
        @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
    extern comp FastMult<T: 1>(@[T, T+1] left: 32, @[T, T+1] right: 32)
        -> (@[T+2, T+3] out: 32);
"#;

fn compile(body: &str, top: &str) -> rtl_sim::Netlist {
    let src = format!("{STDLIB}{body}");
    let program = parse_program(&src).unwrap_or_else(|e| panic!("parse: {e}"));
    check_program(&program).unwrap_or_else(|e| panic!("check: {e:#?}"));
    let calyx = lower_program(&program, top, &TestRegistry).unwrap();
    calyx.elaborate(top).unwrap()
}

fn v32(x: u64) -> Value {
    Value::from_u64(32, x)
}

#[test]
fn figure6_two_adder_invocations() {
    // The running example of Section 5: one adder used at G and G+2.
    let netlist = compile(
        "comp main<G: 4>(@interface[G] go: 1, @[G, G+1] a: 32, @[G+2, G+3] b: 32)
             -> (@[G, G+1] out: 32) {
           A := new Add;
           a0 := A<G>(a, a);
           a1 := A<G+2>(b, b);
           out = a0.out;
         }",
        "main",
    );
    // The FSM has 3 states (Section 5.2 sizes it by the largest mention).
    let fsm = netlist
        .cells()
        .iter()
        .find(|c| matches!(c.kind, CellKind::ShiftFsm { .. }))
        .expect("an FSM was generated");
    assert_eq!(fsm.kind, CellKind::ShiftFsm { n: 3 });

    let mut sim = Sim::new(&netlist).unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 1));
    sim.poke_by_name("a", v32(21));
    sim.poke_by_name("b", v32(0));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("out").to_u64(), 42, "a0 = a + a at G");
    sim.tick().unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 0));
    sim.poke_by_name("a", v32(999)); // dead value
    sim.step().unwrap();
    sim.poke_by_name("b", v32(50));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("A.out").to_u64(), 100, "a1 = b + b at G+2");
}

#[test]
fn pipelined_alu_streams_results() {
    // The final Section 2.4 ALU, pipelined at initiation interval 1.
    let netlist = compile(
        "comp ALU<G: 1>(@interface[G] en: 1, @[G+2, G+3] op: 1, @[G, G+1] l: 32,
             @[G, G+1] r: 32) -> (@[G+2, G+3] o: 32) {
           A := new Add; Mx := new Mux; R0 := new Reg; R1 := new Reg;
           FM := new FastMult;
           a0 := A<G>(l, r);
           r0 := R0<G>(a0.out);
           r1 := R1<G+1>(r0.out);
           m0 := FM<G>(l, r);
           mux := Mx<G+2>(op, r1.out, m0.out);
           o = mux.out;
         }",
        "ALU",
    );
    let mut sim = Sim::new(&netlist).unwrap();
    // Stream a new transaction every cycle; op for transaction k arrives at
    // cycle k+2, the result at cycle k+2.
    let txns: Vec<(u64, u64, u64)> = vec![
        (10, 20, 0), // add -> 30
        (10, 20, 1), // mul -> 200
        (7, 6, 0),   // add -> 13
        (7, 6, 1),   // mul -> 42
    ];
    let mut results = Vec::new();
    for t in 0..txns.len() + 2 {
        if t < txns.len() {
            sim.poke_by_name("en", Value::from_u64(1, 1));
            sim.poke_by_name("l", v32(txns[t].0));
            sim.poke_by_name("r", v32(txns[t].1));
        } else {
            sim.poke_by_name("en", Value::from_u64(1, 0));
        }
        if t >= 2 {
            sim.poke_by_name("op", Value::from_u64(1, txns[t - 2].2));
        }
        sim.settle().unwrap();
        if t >= 2 {
            results.push(sim.peek_by_name("o").to_u64());
        }
        sim.tick().unwrap();
    }
    assert_eq!(results, vec![30, 200, 13, 42]);
}

#[test]
fn phantom_pipeline_has_no_fsm() {
    // Section 5.4: continuous pipelines compile without FSMs or guards.
    let netlist = compile(
        "comp Cont<G: 1>(@[G, G+1] a: 32, @[G, G+1] b: 32) -> (@[G+1, G+2] o: 32) {
           A := new Add;
           D := new Del;
           s := A<G>(a, b);
           d := D<G>(s.out);
           o = d.out;
         }",
        "Cont",
    );
    assert!(
        !netlist
            .cells()
            .iter()
            .any(|c| matches!(c.kind, CellKind::ShiftFsm { .. })),
        "phantom events generate no FSM"
    );
    // And no guards: all assigns unconditional.
    assert!(netlist.assigns().iter().all(|a| a.guard.is_none()));

    let mut sim = Sim::new(&netlist).unwrap();
    let mut outs = Vec::new();
    for t in 0..5u64 {
        sim.poke_by_name("a", v32(t));
        sim.poke_by_name("b", v32(100));
        sim.settle().unwrap();
        if t >= 1 {
            outs.push(sim.peek_by_name("o").to_u64());
        }
        sim.tick().unwrap();
    }
    assert_eq!(outs, vec![100, 101, 102, 103]);
}

#[test]
fn sequential_multiplier_compiles_and_computes() {
    let netlist = compile(
        "comp M<G: 3>(@interface[G] go: 1, @[G, G+1] a: 32, @[G, G+1] b: 32)
             -> (@[G+2, G+3] o: 32) {
           MU := new Mult;
           m0 := MU<G>(a, b);
           o = m0.out;
         }",
        "M",
    );
    let mut sim = Sim::new(&netlist).unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 1));
    sim.poke_by_name("a", v32(6));
    sim.poke_by_name("b", v32(7));
    sim.step().unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 0));
    sim.poke_by_name("a", v32(0));
    sim.poke_by_name("b", v32(0));
    sim.step().unwrap();
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("o").to_u64(), 42);
}

#[test]
fn hierarchical_user_components() {
    // A user component instantiated by another user component.
    let netlist = compile(
        "comp Inc<T: 1>(@interface[T] go: 1, @[T, T+1] x: 32) -> (@[T, T+1] y: 32) {
           A := new Add;
           a0 := A<T>(x, 1);
           y = a0.out;
         }
         comp main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
           I := new Inc;
           i0 := I<G>(a);
           o = i0.y;
         }",
        "main",
    );
    let mut sim = Sim::new(&netlist).unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 1));
    sim.poke_by_name("a", v32(41));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("o").to_u64(), 42);
}

#[test]
fn shared_adder_triggers_are_ord_together() {
    // Pipelined sharing: with delay 2 and uses at G and G+2... use a case
    // where consecutive pipelined executions overlap FSM states: uses at G
    // and G+1 of two different instances, delay 1 — their guards must not
    // conflict even when a new transaction starts every cycle.
    let netlist = compile(
        "comp main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G+1, G+2] o: 32) {
           A0 := new Add;
           D := new Del;
           A1 := new Add;
           s := A0<G>(a, a);
           d := D<G>(s.out);
           t := A1<G+1>(d.out, d.out);
           o = t.out;
         }",
        "main",
    );
    let mut sim = Sim::new(&netlist).unwrap();
    // Stream transactions every cycle: o_k = 4 * a_k one cycle later.
    let mut outs = Vec::new();
    for t in 0..6u64 {
        sim.poke_by_name("go", Value::from_u64(1, 1));
        sim.poke_by_name("a", v32(t + 1));
        sim.settle().unwrap();
        if t >= 1 {
            outs.push(sim.peek_by_name("o").to_u64());
        }
        sim.tick().unwrap();
    }
    assert_eq!(outs, vec![4, 8, 12, 16, 20]);
}

#[test]
fn const_params_select_primitive_width() {
    let src = r#"
        extern comp PrevW[W]<G: 1>(@interface[G] en: 1, @[G, G+1] in: W)
            -> (@[G, G+1] out: W);
        comp main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 8) -> (@[G, G+1] o: 8) {
           p := new PrevW[8]<G>(a);
           o = p.out;
        }
    "#;
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap_or_else(|e| panic!("{e:#?}"));
    let calyx = lower_program(&program, "main", &TestRegistry).unwrap();
    let netlist = calyx.elaborate("main").unwrap();
    let reg = netlist
        .cells()
        .iter()
        .find(|c| matches!(c.kind, CellKind::Reg { .. }))
        .unwrap();
    assert_eq!(
        reg.kind,
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: true
        }
    );
    // Prev semantics: out = previous value (state), visible same cycle.
    let mut sim = Sim::new(&netlist).unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 1));
    sim.poke_by_name("a", Value::from_u64(8, 5));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("o").to_u64(), 0, "first read is the init");
    sim.tick().unwrap();
    sim.poke_by_name("a", Value::from_u64(8, 9));
    sim.settle().unwrap();
    assert_eq!(sim.peek_by_name("o").to_u64(), 5, "previous value");
}

#[test]
fn missing_primitive_is_reported() {
    let src = r#"
        extern comp Exotic<T: 1>(@[T, T+1] x: 32) -> (@[T, T+1] y: 32);
        comp main<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
           e := new Exotic<G>(a);
           o = e.y;
        }
    "#;
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap();
    let err = lower_program(&program, "main", &TestRegistry).unwrap_err();
    assert!(err.to_string().contains("Exotic"));
}

#[test]
fn port_name_mismatch_is_reported() {
    // The extern's port names must match the primitive's Calyx ports.
    let src = r#"
        extern comp Add<T: 1>(@[T, T+1] lhs: 32, @[T, T+1] rhs: 32)
            -> (@[T, T+1] sum: 32);
        comp main<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
           x := new Add<G>(a, a);
           o = x.sum;
        }
    "#;
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap();
    let err = lower_program(&program, "main", &TestRegistry).unwrap_err();
    assert!(err.to_string().contains("lhs"), "{err}");
}

#[test]
fn verilog_emission_of_lowered_program() {
    let src = format!(
        "{STDLIB}comp main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G, G+1] o: 32) {{
           A := new Add;
           x := A<G>(a, a);
           o = x.out;
         }}"
    );
    let program = parse_program(&src).unwrap();
    check_program(&program).unwrap();
    let calyx = lower_program(&program, "main", &TestRegistry).unwrap();
    let verilog = calyx_lite::emit_program(&calyx);
    assert!(verilog.contains("module main"));
    assert!(verilog.contains("std_add"));
}
