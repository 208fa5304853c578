//! Type-checker tests following the paper's narrative: every example of
//! Sections 2–4 is reproduced, both the rejected and the accepted versions.

use filament_core::check::ErrorKind;
use filament_core::{check_program, parse_program, CheckError};

/// The standard library slice used by the Section 2 walkthrough.
const STDLIB: &str = r#"
    extern comp Add<T: 1>(@[T, T+1] left: 32, @[T, T+1] right: 32)
        -> (@[T, T+1] out: 32);
    extern comp Mult<T: 3>(@interface[T] go: 1, @[T, T+1] left: 32,
        @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
    extern comp FastMult<T: 1>(@interface[T] go: 1, @[T, T+1] left: 32,
        @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
    extern comp Mux<T: 1>(@[T, T+1] sel: 1, @[T, T+1] in0: 32,
        @[T, T+1] in1: 32) -> (@[T, T+1] out: 32);
    extern comp Reg<G: 1>(@interface[G] en: 1, @[G, G+1] in: 32)
        -> (@[G+1, G+2] out: 32);
    extern comp Register<G: L-(G+1), L: 1>(@interface[G] en: 1,
        @[G, G+1] in: 32) -> (@[G+1, L] out: 32) where L > G+1;
"#;

fn check(body: &str) -> Result<(), Vec<CheckError>> {
    let src = format!("{STDLIB}{body}");
    let program = parse_program(&src).unwrap_or_else(|e| panic!("parse: {e}"));
    check_program(&program)
}

fn expect_kind(result: Result<(), Vec<CheckError>>, kind: ErrorKind) -> Vec<CheckError> {
    let errors = result.expect_err("expected the checker to reject this program");
    assert!(
        errors.iter().any(|e| e.kind == kind),
        "expected a {kind:?} error, got: {errors:#?}"
    );
    errors
}

// ---------------------------------------------------------------- Section 2.3

#[test]
fn alu_mux_reads_mult_too_early() {
    // The paper's first error: the multiplexer needs m0.out during
    // [G, G+1) but it is only available during [G+2, G+3).
    let errors = expect_kind(
        check(
            "comp ALU<G: 3>(@interface[G] en: 1, @[G, G+1] op: 1, @[G, G+1] l: 32,
                 @[G, G+1] r: 32) -> (@[G, G+1] o: 32) {
               A := new Add; M := new Mult; Mx := new Mux;
               a0 := A<G>(l, r);
               m0 := M<G>(l, r);
               mux := Mx<G>(op, m0.out, a0.out);
               o = mux.out;
             }",
        ),
        ErrorKind::Availability,
    );
    let msg = errors
        .iter()
        .find(|e| e.kind == ErrorKind::Availability)
        .unwrap()
        .to_string();
    assert!(msg.contains("[G+2, G+3)"), "{msg}");
    assert!(msg.contains("[G, G+1)"), "{msg}");
}

#[test]
fn sequential_alu_with_registers_is_accepted() {
    // The corrected Section 2.3 design: two registers delay the sum, the
    // mux runs at G+2, and op is held for three cycles (fine at delay 3).
    check(
        "comp ALU<G: 3>(@interface[G] en: 1, @[G, G+3] op: 1, @[G, G+1] l: 32,
             @[G, G+1] r: 32) -> (@[G+2, G+3] o: 32) {
           A := new Add; M := new Mult; Mx := new Mux;
           R0 := new Reg; R1 := new Reg;
           a0 := A<G>(l, r);
           m0 := M<G>(l, r);
           r0 := R0<G>(a0.out);
           r1 := R1<G+1>(r0.out);
           mux := Mx<G+2>(op, r1.out, m0.out);
           o = mux.out;
         }",
    )
    .expect("the sequential ALU is well-typed");
}

// ---------------------------------------------------------------- Section 2.4

#[test]
fn op_held_three_cycles_in_delay_one_pipeline() {
    // First pipelining bug: `op` live for [G, G+3) while G retriggers every
    // cycle — delay well-formedness (Section 4.1).
    expect_kind(
        check(
            "comp ALU<G: 1>(@interface[G] en: 1, @[G, G+3] op: 1, @[G, G+1] l: 32)
                 -> (@[G, G+1] o: 32) {
               A := new Add;
               a0 := A<G>(l, l);
               o = a0.out;
             }",
        ),
        ErrorKind::DelayWellFormed,
    );
}

#[test]
fn slow_multiplier_in_fast_pipeline() {
    // Second pipelining bug: Mult accepts inputs every 3 cycles, the ALU
    // retriggers every cycle (Section 4.4 "Triggering Subcomponents").
    let errors = expect_kind(
        check(
            "comp ALU<G: 1>(@interface[G] en: 1, @[G+2, G+3] op: 1, @[G, G+1] l: 32,
                 @[G, G+1] r: 32) -> (@[G+2, G+3] o: 32) {
               M := new Mult; Mx := new Mux;
               A := new Add; R0 := new Reg; R1 := new Reg;
               a0 := A<G>(l, r);
               r0 := R0<G>(a0.out);
               r1 := R1<G+1>(r0.out);
               m0 := M<G>(l, r);
               mux := Mx<G+2>(op, r1.out, m0.out);
               o = mux.out;
             }",
        ),
        ErrorKind::SafePipelining,
    );
    let msg = errors
        .iter()
        .find(|e| e.kind == ErrorKind::SafePipelining)
        .unwrap()
        .to_string();
    assert!(msg.contains("every 1 cycles"), "{msg}");
    assert!(msg.contains("3 cycles"), "{msg}");
}

#[test]
fn fully_pipelined_alu_with_fastmult_is_accepted() {
    // The final Section 2.4 design.
    check(
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
    )
    .expect("the pipelined ALU is well-typed");
}

// ---------------------------------------------------------------- Section 2.5

const DIVIDER_LIB: &str = r#"
    extern comp Init<T: 1>(@[T, T+1] left: 8) -> (@[T, T+1] A: 8, @[T, T+1] Q: 8);
    extern comp Nxt<T: 1>(@[T, T+1] a: 8, @[T, T+1] q: 8, @[T, T+1] div: 8)
        -> (@[T, T+1] AN: 8, @[T, T+1] QN: 8);
    extern comp Reg8<G: 1>(@interface[G] en: 1, @[G, G+1] in: 8)
        -> (@[G+1, G+2] out: 8);
"#;

fn check_div(body: &str) -> Result<(), Vec<CheckError>> {
    let src = format!("{DIVIDER_LIB}{body}");
    check_program(&parse_program(&src).unwrap())
}

#[test]
fn combinational_divider_accepted() {
    // Figure 2b, shortened to 2 steps: all Nxt instances fire in one cycle.
    check_div(
        "comp Comb<G: 1>(@[G, G+1] left: 8, @[G, G+1] div: 8) -> (@[G, G+1] q: 8) {
           i := new Init<G>(left);
           n0 := new Nxt<G>(i.A, i.Q, div);
           n1 := new Nxt<G>(n0.AN, n0.QN, div);
           q = n1.QN;
         }",
    )
    .expect("combinational divider");
}

#[test]
fn iterative_divider_same_cycle_sharing_conflicts() {
    // Section 2.5: two inputs sent into the same Nxt instance in the same
    // cycle.
    expect_kind(
        check_div(
            "comp Iter<G: 1>(@[G, G+1] left: 8, @[G, G+1] div: 8) -> (@[G, G+1] q: 8) {
               i := new Init<G>(left);
               N := new Nxt;
               s0 := N<G>(i.A, i.Q, div);
               s1 := N<G>(s0.AN, s0.QN, div);
               q = s1.QN;
             }",
        ),
        ErrorKind::InstanceConflict,
    );
}

#[test]
fn iterative_divider_needs_longer_delay() {
    // Sharing Nxt over two cycles while claiming delay 1 (the second
    // Section 2.5 error). Registers carry values between steps.
    let errors = expect_kind(
        check_div(
            "comp Iter<G: 1>(@interface[G] go: 1, @[G, G+1] left: 8, @[G, G+2] div: 8)
                 -> (@[G+1, G+2] q: 8) {
               i := new Init<G>(left);
               N := new Nxt;
               RA := new Reg8; RQ := new Reg8;
               s0 := N<G>(i.A, i.Q, div);
               ra0 := RA<G>(s0.AN);
               rq0 := RQ<G>(s0.QN);
               s1 := N<G+1>(ra0.out, rq0.out, div);
               q = s1.QN;
             }",
        ),
        ErrorKind::DelayWellFormed, // div live 2 cycles at delay 1 ...
    );
    // ... and the shared instance spans 2 cycles at delay 1.
    assert!(
        errors.iter().any(|e| e.kind == ErrorKind::SafePipelining),
        "{errors:#?}"
    );
}

#[test]
fn iterative_divider_with_delay_two_accepted() {
    check_div(
        "comp Iter<G: 2>(@interface[G] go: 1, @[G, G+1] left: 8, @[G, G+2] div: 8)
             -> (@[G+1, G+2] q: 8) {
           i := new Init<G>(left);
           N := new Nxt;
           RA := new Reg8; RQ := new Reg8;
           s0 := N<G>(i.A, i.Q, div);
           ra0 := RA<G>(s0.AN);
           rq0 := RQ<G>(s0.QN);
           s1 := N<G+1>(ra0.out, rq0.out, div);
           q = s1.QN;
         }",
    )
    .expect("iterative divider with delay 2");
}

// ---------------------------------------------------------------- Section 3.4

#[test]
fn square_requires_delay_covering_both_uses() {
    // `Square` from Section 3.4: the multiplier is used at G and G+1. The
    // shared uses span 2 cycles, so delay 1 is unsafe...
    let lib = r#"
        extern comp M1<T: 1>(@[T, T+1] left: 32, @[T, T+1] right: 32)
            -> (@[T+1, T+2] out: 32);
    "#;
    let body = |delay: u32| {
        format!(
            "comp Square<G: {delay}>(@interface[G] go: 1, @[G, G+1] l: 32,
                 @[G, G+1] r: 32) -> (@[G+2, G+3] o: 32) {{
               M := new M1;
               m0 := M<G>(l, r);
               m1 := M<G+1>(m0.out, m0.out);
               o = m1.out;
             }}"
        )
    };
    let src1 = format!("{lib}{}", body(1));
    expect_kind(
        check_program(&parse_program(&src1).unwrap()),
        ErrorKind::SafePipelining,
    );
    // ... but delay 2 is accepted.
    let src2 = format!("{lib}{}", body(2));
    check_program(&parse_program(&src2).unwrap()).expect("delay 2 covers both uses");
}

// ---------------------------------------------------------------- Section 4.2

#[test]
fn overlapping_multiplier_uses_conflict() {
    // Section 4.2's example: M busy during [G, G+3) and reused at G+1.
    expect_kind(
        check(
            "comp Main<G: 10>(@interface[G] go: 1, @[G, G+1] a: 32, @[G+1, G+2] b: 32)
                 -> (@[G+3, G+4] o: 32) {
               M := new Mult;
               m0 := M<G>(a, a);
               m1 := M<G+1>(m0.out, b);
               o = m1.out;
             }",
        ),
        ErrorKind::InstanceConflict,
    );
}

// ---------------------------------------------------------------- Section 4.4

#[test]
fn trigger_offset_does_not_weaken_delay_rule() {
    // `main<T: 1>` invoking the delay-3 multiplier at T+2 is still wrong.
    expect_kind(
        check(
            "comp Main<T: 1>(@interface[T] go: 1, @[T+2, T+3] a: 32)
                 -> (@[T+4, T+5] o: 32) {
               M := new Mult;
               m0 := M<T+2>(a, a);
               o = m0.out;
             }",
        ),
        ErrorKind::SafePipelining,
    );
}

#[test]
fn distant_shared_uses_still_require_covering_delay() {
    // Section 4.4 "Reusing Instances": invocations at T+2 and T+10 pass the
    // per-execution disjointness check but span 11 cycles > delay 3.
    let errors = expect_kind(
        check(
            "comp Main<T: 3>(@interface[T] go: 1, @[T+2, T+3] a: 32, @[T+10, T+11] b: 32)
                 -> (@[T+12, T+13] o: 32) {
               M := new Mult;
               m0 := M<T+2>(a, a);
               m1 := M<T+10>(b, b);
               o = m1.out;
             }",
        ),
        ErrorKind::SafePipelining,
    );
    let msg = errors
        .iter()
        .find(|e| e.kind == ErrorKind::SafePipelining)
        .unwrap()
        .to_string();
    assert!(msg.contains("11"), "{msg}");
}

#[test]
fn dynamic_reuse_across_events_rejected() {
    // Section 4.4 "Dynamic Reuse": sharing across two user events has no
    // compile-time constant delay.
    expect_kind(
        check(
            "comp Dyn<G: 3, L: 3>(@interface[G] g: 1, @interface[L] h: 1,
                 @[G, G+1] a: 32, @[L, L+1] b: 32) -> (@[L+2, L+3] o: 32) {
               M := new Mult;
               m0 := M<G>(a, a);
               m1 := M<L>(b, b);
               o = m1.out;
             }",
        ),
        ErrorKind::SafePipelining,
    );
}

#[test]
fn user_components_cannot_declare_ordering_constraints() {
    expect_kind(
        check(
            "comp Bad<G: 1, L: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) where L > G {
               o = a;
             }",
        ),
        ErrorKind::Constraint,
    );
}

// ------------------------------------------------------- parametric register

#[test]
fn register_hold_satisfying_constraint_accepted() {
    check(
        "comp Hold<G: 4>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G+1, G+4] o: 32) {
           R := new Register;
           r0 := R<G, G+4>(a);
           o = r0.out;
         }",
    )
    .expect("register hold");
}

#[test]
fn register_violating_where_clause_rejected() {
    // Register requires L > G+1; binding L = G+1 breaks it.
    expect_kind(
        check(
            "comp Hold<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G+1, G+2] o: 32) {
               R := new Register;
               r0 := R<G, G+1>(a);
               o = r0.out;
             }",
        ),
        ErrorKind::Constraint,
    );
}

#[test]
fn register_hold_in_fast_pipeline_rejected() {
    // Holding for 3 cycles gives the register delay (G+4)-(G+1) = 3 > 1.
    expect_kind(
        check(
            "comp Hold<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G+1, G+4] o: 32) {
               R := new Register;
               r0 := R<G, G+4>(a);
               o = r0.out;
             }",
        ),
        ErrorKind::SafePipelining,
    );
}

// ------------------------------------------------------------------- phantom

#[test]
fn phantom_event_cannot_trigger_interface() {
    // Mult has an interface port; a phantom event cannot reify it
    // (Definition 5.1).
    expect_kind(
        check(
            "comp Cont<G: 3>(@[G, G+1] a: 32) -> (@[G+2, G+3] o: 32) {
               M := new Mult;
               m0 := M<G>(a, a);
               o = m0.out;
             }",
        ),
        ErrorKind::Phantom,
    );
}

#[test]
fn phantom_event_cannot_share_instances() {
    expect_kind(
        check(
            "comp Cont<G: 2>(@[G, G+1] a: 32, @[G+1, G+2] b: 32) -> (@[G+1, G+2] o: 32) {
               A := new Add;
               a0 := A<G>(a, a);
               a1 := A<G+1>(b, b);
               o = a1.out;
             }",
        ),
        ErrorKind::Phantom,
    );
}

#[test]
fn phantom_continuous_pipeline_accepted() {
    // A continuous pipeline of phantom-event combinational adders.
    check(
        "comp Cont<G: 1>(@[G, G+1] a: 32, @[G, G+1] b: 32) -> (@[G, G+1] o: 32) {
           A0 := new Add; A1 := new Add;
           x := A0<G>(a, b);
           y := A1<G>(x.out, b);
           o = y.out;
         }",
    )
    .expect("continuous pipeline");
}

// ------------------------------------------------------------------- binding

#[test]
fn unknown_instance_and_ports() {
    let errors = expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               x := Ghost<G>(a);
               o = x.out;
             }",
        ),
        ErrorKind::Binding,
    );
    assert!(errors.iter().any(|e| e.to_string().contains("Ghost")));
}

#[test]
fn output_must_be_driven_exactly_once() {
    expect_kind(
        check("comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) { }"),
        ErrorKind::Binding,
    );
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               o = a; o = a;
             }",
        ),
        ErrorKind::InstanceConflict,
    );
}

#[test]
fn argument_arity_checked() {
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               x := new Add<G>(a);
               o = x.out;
             }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn event_arity_checked() {
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G+1, G+2] o: 32) {
               R := new Register;
               r0 := R<G>(a);
               o = r0.out;
             }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn width_mismatch_reported() {
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8) {
               x := new Add<G>(a, a);
               o = x.out;
             }",
        ),
        ErrorKind::Width,
    );
}

#[test]
fn literal_arguments_adapt_but_must_fit() {
    let lib = "extern comp Mux8<T: 1>(@[T, T+1] sel: 1, @[T, T+1] in0: 8,
        @[T, T+1] in1: 8) -> (@[T, T+1] out: 8);";
    let ok = format!(
        "{lib} comp B<G: 1>(@[G, G+1] s: 1, @[G, G+1] a: 8) -> (@[G, G+1] o: 8) {{
           m := new Mux8<G>(s, a, 255);
           o = m.out;
         }}"
    );
    check_program(&parse_program(&ok).unwrap()).expect("255 fits in 8 bits");
    let bad = format!(
        "{lib} comp B<G: 1>(@[G, G+1] s: 1, @[G, G+1] a: 8) -> (@[G, G+1] o: 8) {{
           m := new Mux8<G>(s, a, 256);
           o = m.out;
         }}"
    );
    expect_kind(
        check_program(&parse_program(&bad).unwrap()),
        ErrorKind::Width,
    );
}

#[test]
fn interface_port_is_readable_as_control_data() {
    // Appendix B.1's systolic processing element reads its own `go` signal
    // through a Prev register.
    let lib = r#"
        extern comp Prev[W]<G: 1>(@interface[G] en: 1, @[G, G+1] in: W)
            -> (@[G, G+1] prev: W);
    "#;
    let src = format!(
        "{lib} comp PE<G: 1>(@interface[G] go: 1, @[G, G+1] x: 1) -> (@[G, G+1] o: 1) {{
           P := new Prev[1];
           p0 := P<G>(go);
           o = p0.prev;
         }}"
    );
    check_program(&parse_program(&src).unwrap()).expect("go is always valid");
}

#[test]
fn self_instantiation_rejected() {
    expect_kind(
        check(
            "comp Loop<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               x := new Loop<G>(a);
               o = x.o;
             }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn duplicate_names_rejected() {
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               x := new Add;
               x := new Add;
               o = a;
             }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn duplicate_components_rejected() {
    expect_kind(
        check(
            "comp B<G: 1>() -> () { }
             comp B<G: 1>() -> () { }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn empty_interval_rejected() {
    expect_kind(
        check("comp B<G: 2>(@[G+2, G+1] a: 32) -> (@[G, G+1] o: 32) { o = a; }"),
        ErrorKind::DelayWellFormed,
    );
}

#[test]
fn connect_cannot_read_own_output() {
    expect_kind(
        check(
            "comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32, @[G, G+1] p: 32) {
               o = a;
               p = o;
             }",
        ),
        ErrorKind::Binding,
    );
}

#[test]
fn inconsistent_extern_constraints_rejected() {
    expect_kind(
        check_program(
            &parse_program(
                "extern comp Bad<G: 1, L: 1>(@[G, L] a: 32) -> (@[G, L] o: 32)
                     where L > G, G > L;",
            )
            .unwrap(),
        ),
        ErrorKind::Constraint,
    );
}

#[test]
fn multi_event_extern_usage_with_parametric_delay() {
    // Section 3.6's combinational adder with start/end events: the delay of
    // an invocation A<G, G+3> is (G+3)-G = 3.
    let lib = r#"
        extern comp AddCont<G: L-G, L: 1>(@[G, L] l: 32, @[G, L] r: 32)
            -> (@[G, L] o: 32) where L > G;
    "#;
    let ok = format!(
        "{lib} comp Use<T: 3>(@[T, T+3] a: 32) -> (@[T, T+3] o: 32) {{
           A := new AddCont;
           a0 := A<T, T+3>(a, a);
           o = a0.o;
         }}"
    );
    check_program(&parse_program(&ok).unwrap()).expect("held adder");
    // Holding for 3 cycles in a delay-1 pipeline is rejected (both the
    // port liveness and the invocation delay are too long).
    let bad = format!(
        "{lib} comp Use<T: 1>(@[T, T+3] a: 32) -> (@[T, T+3] o: 32) {{
           A := new AddCont;
           a0 := A<T, T+3>(a, a);
           o = a0.o;
         }}"
    );
    let errors = check_program(&parse_program(&bad).unwrap()).unwrap_err();
    assert!(errors
        .iter()
        .any(|e| e.kind == ErrorKind::DelayWellFormed || e.kind == ErrorKind::SafePipelining));
}

#[test]
fn error_display_includes_component_and_kind() {
    let errors = check("comp B<G: 1>(@[G, G+1] a: 32) -> (@[G, G+1] o: 32) { }").unwrap_err();
    let msg = errors[0].to_string();
    assert!(msg.contains("[B]"), "{msg}");
    assert!(msg.contains("binding"), "{msg}");
}

// ------------------------------------------------------ bundles + if-generate

#[test]
fn unelaborated_bundles_and_ifs_are_reported() {
    // A structurally valid bundle signature that was never run through
    // mono::expand: the checker points at the elaboration step rather than
    // reporting offset noise.
    let errors =
        check("comp B<G: 1>(@[G, G+1] in[i: 0..4]: 32) -> (@[G, G+1] o: 32) { o = in[0]; }")
            .unwrap_err();
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Unelaborated && e.message.contains("bundle port in")),
        "{errors:#?}"
    );
    assert!(
        errors.iter().any(
            |e| e.kind == ErrorKind::Unelaborated && e.message.contains("bundle element in[0]")
        ),
        "{errors:#?}"
    );
    let errors = check("comp B<G: 1>(@[G, G+1] a: 32) -> () { if 1 == 1 { } }").unwrap_err();
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Unelaborated && e.message.contains("if-generate")),
        "{errors:#?}"
    );
}

#[test]
fn bundle_shape_is_validated_symbolically() {
    // Index variable shadowing a component parameter.
    let errors = check("comp B[N]<G: 1>(@[G, G+1] in[N: 0..2]: 32) -> () { }").unwrap_err();
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Binding
                && e.message.contains("shadows a component parameter")),
        "{errors:#?}"
    );
    // Index bounds may only mention component parameters.
    let errors = check("comp B[N]<G: 1>(@[G, G+1] in[i: 0..M]: 32) -> () { }").unwrap_err();
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Binding && e.message.contains("unknown parameter M")),
        "{errors:#?}"
    );
    // Widths may mention the index variable; anything else is unknown.
    let errors = check("comp B[N]<G: 1>(@[G, G+1] in[i: 0..N]: i + Q) -> () { }").unwrap_err();
    assert!(
        errors.iter().any(
            |e| e.kind == ErrorKind::Binding && e.message.contains("unknown width parameter Q")
        ),
        "{errors:#?}"
    );
    // Per-index interval validation on closed ranges: [G+i, G+2) is
    // non-empty for i = 0, 1 but empty from element 2 on.
    let errors = check("comp B<G: 4>(@[G+i, G+2] in[i: 0..4]: 32) -> () { }").unwrap_err();
    assert!(
        errors.iter().any(|e| e.kind == ErrorKind::DelayWellFormed
            && e.message.contains("in[2]")
            && e.message.contains("empty")),
        "{errors:#?}"
    );
}

/// Diagnostics come in body order, the same on every run: four shared
/// instances, each invoked twice in the same cycle, give four conflicts in
/// the order the instances are declared.
#[test]
fn shared_instance_conflicts_report_in_body_order() {
    let body = r#"
        comp main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 32) -> (@[G, G+1] o: 32) {
            m0 := new Add; m1 := new Add; m2 := new Add; m3 := new Add;
            a0 := m0<G>(x, x); b0 := m0<G>(x, x);
            a1 := m1<G>(x, x); b1 := m1<G>(x, x);
            a2 := m2<G>(x, x); b2 := m2<G>(x, x);
            a3 := m3<G>(x, x); b3 := m3<G>(x, x);
            o = a0.out;
        }
    "#;
    let text =
        |errs: Vec<CheckError>| -> Vec<String> { errs.iter().map(ToString::to_string).collect() };
    let first = text(expect_kind(check(body), ErrorKind::InstanceConflict));
    let instances: Vec<&str> = first
        .iter()
        .filter_map(|e| e.split("uses of instance ").nth(1)?.split(':').next())
        .collect();
    assert_eq!(instances, ["m0", "m1", "m2", "m3"], "{first:#?}");
    for _ in 0..16 {
        assert_eq!(text(check(body).unwrap_err()), first);
    }
}
