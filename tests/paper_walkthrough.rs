//! Cross-crate integration test: the paper's narrative, front to back.
//!
//! Every claim exercised here spans at least three crates (language →
//! compiler → simulator/harness), complementing the per-crate suites.

use fil_bits::Value;
use fil_build::BuildRequest;
use fil_harness::{compile_request, run_pipelined};
use fil_stdlib::StdRegistry;
use filament_core::check::ErrorKind;
use filament_core::{check_program, component_log, sem};

/// Standard library + user source, elaborated — through the unified
/// request API, so this file exercises the same path as `filament`.
fn with_std(src: &str) -> filament_core::ast::Program {
    fil_stdlib::build(&BuildRequest::new(src))
        .unwrap()
        .expanded
        .expect("expanded is on by default")
}

#[test]
fn section2_walkthrough() {
    // 2.3: the buggy ALU is rejected with an availability diagnostic that
    // names both intervals.
    let buggy = with_std(&fil_designs::alu::source(fil_designs::alu::ALU_BUGGY));
    let errors = check_program(&buggy).unwrap_err();
    let msg = errors
        .iter()
        .find(|e| e.kind == ErrorKind::Availability)
        .expect("availability error")
        .to_string();
    assert!(
        msg.contains("[G+2, G+3)") && msg.contains("[G, G+1)"),
        "{msg}"
    );

    // 2.4: the pipelined ALU streams at initiation interval 1.
    let (netlist, spec) = compile_request(
        &BuildRequest::new(fil_designs::alu::source(fil_designs::alu::ALU_PIPELINED))
            .netlist("ALU"),
    )
    .unwrap();
    assert_eq!(spec.delay, 1);
    let inputs: Vec<Vec<Value>> = (0..8u64)
        .map(|k| {
            vec![
                Value::from_u64(1, k % 2),
                Value::from_u64(32, k + 1),
                Value::from_u64(32, k + 2),
            ]
        })
        .collect();
    let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
    for (k, out) in outs.iter().enumerate() {
        let k = k as u64;
        let want = if k.is_multiple_of(2) {
            2 * k + 3
        } else {
            (k + 1) * (k + 2)
        };
        assert_eq!(out[0].to_u64(), want);
    }
}

#[test]
fn section6_semantics_agree_with_checker_on_the_alu() {
    // The sequential ALU's log is well-formed and safely pipelined at its
    // declared delay of 3 — and NOT at delay 1 (the paper's Section 2.4
    // narrative, replayed in the semantic model).
    let program = with_std(&fil_designs::alu::source(fil_designs::alu::ALU_SEQUENTIAL));
    check_program(&program).unwrap();
    let log = component_log(&program, "ALU").unwrap();
    log.well_formed().unwrap();
    sem::check_safe_pipelining(&log, 3).unwrap();
    assert!(
        sem::check_safe_pipelining(&log, 1).is_err(),
        "the sequential ALU cannot retrigger every cycle"
    );
}

#[test]
fn figure6_flow_produces_three_state_fsm() {
    // Filament → Calyx → netlist, checking the compiled structure of the
    // Figure 6 example: FSM with 3 states, OR-merged triggers... the
    // standard library's Add has no interface port, so the observable is
    // the guard structure on the data ports.
    let program = with_std(
        "comp main<G: 4>(@interface[G] go: 1, @[G, G+1] a: 32, @[G+2, G+3] b: 32)
             -> (@[G, G+1] out: 32) {
           A := new Add[32];
           a0 := A<G>(a, a);
           a1 := A<G+2>(b, b);
           out = a0.out;
         }",
    );
    check_program(&program).unwrap();
    let calyx = filament_core::lower_program(&program, "main", &StdRegistry).unwrap();
    let netlist = calyx.elaborate("main").unwrap();
    let fsm = netlist
        .cells()
        .iter()
        .find(|c| matches!(c.kind, rtl_sim::CellKind::ShiftFsm { .. }))
        .expect("FSM generated");
    assert_eq!(fsm.kind, rtl_sim::CellKind::ShiftFsm { n: 3 });
    // Guarded assignments exist for both uses.
    assert!(
        netlist
            .assigns()
            .iter()
            .filter(|a| a.guard.is_some())
            .count()
            >= 4
    );
}

#[test]
fn write_conflicts_surface_dynamically_when_typing_is_bypassed() {
    // The compiled Figure 6 design relies on disjoint guards; driving the
    // FSM in a way the type system would forbid (two overlapping triggers)
    // trips the simulator's write-conflict detector. We emulate a bypass
    // by poking the `go` input on consecutive cycles of a delay-4 design:
    // transactions at distance 2 make Gf._0 and Gf._2 overlap.
    let program = with_std(
        "comp main<G: 4>(@interface[G] go: 1, @[G, G+1] a: 32, @[G+2, G+3] b: 32)
             -> (@[G, G+1] out: 32) {
           A := new Add[32];
           a0 := A<G>(a, a);
           a1 := A<G+2>(b, b);
           out = a0.out;
         }",
    );
    let calyx = filament_core::lower_program(&program, "main", &StdRegistry).unwrap();
    let netlist = calyx.elaborate("main").unwrap();
    let mut sim = rtl_sim::Sim::new(&netlist).unwrap();
    sim.poke_by_name("go", Value::from_u64(1, 1));
    sim.poke_by_name("a", Value::from_u64(32, 1));
    sim.poke_by_name("b", Value::from_u64(32, 2));
    sim.step().unwrap();
    sim.step().unwrap(); // keep go high: retrigger at distance 2 < delay 4
    let err = sim.settle().unwrap_err();
    assert!(matches!(err, rtl_sim::SimError::WriteConflict { .. }));
}

#[test]
fn full_evaluation_artifacts_regenerate() {
    // Table 1 (both kernels), Table 2, the divider figure, and the compile
    // time claim — one smoke pass over every experiment driver.
    let conv = fil_bench::table1(aetherling::Kernel::Conv2d);
    assert_eq!(conv[6].reported, 16);
    assert_eq!(conv[6].actual, Some(21));
    let rows = fil_bench::table2();
    assert_eq!(rows.len(), 3);
    let divs = fil_bench::divider_tradeoff();
    assert_eq!(divs[2].initiation_interval, 8);
    for (name, t) in fil_bench::compile_durations() {
        assert!(t.as_secs_f64() < 1.0, "{name}");
    }
}

#[test]
fn umbrella_reexports_are_wired() {
    use filament_repro as fr;
    let v = fr::bits::Value::from_u64(8, 7);
    assert_eq!(v.to_u64(), 7);
    let p = fr::stdlib::std_program();
    assert!(fr::lang::check_program(&p).is_ok());
    let mut s = fr::solver::DiffSolver::new();
    let g = s.var("G");
    assert!(s.entails(g, g, 0));
}
