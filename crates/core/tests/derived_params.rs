//! Negative-path suite for derived (existential) parameters: every way a
//! `some W = expr` declaration or use can go wrong, with the exact
//! diagnostic (and, for syntax errors, the exact source span) pinned down.

use filament_core::check::ErrorKind;
use filament_core::{check_program, mono, parse_program, MonoError};

fn check_errors(src: &str) -> Vec<filament_core::CheckError> {
    check_program(&parse_program(src).unwrap()).unwrap_err()
}

fn expand_err(src: &str) -> MonoError {
    mono::expand(&parse_program(src).unwrap()).unwrap_err()
}

// --------------------------------------------------------- declaration shape

#[test]
fn cyclic_derivation_is_rejected() {
    let errors = check_errors("comp A[N, some W = W + 1]<G: 1>(@[G, G+1] x: N) -> () { }");
    assert!(
        errors.iter().any(|e| e.kind == ErrorKind::Binding
            && e.message.contains("cyclic")
            && e.message.contains('W')),
        "{errors:#?}"
    );
}

#[test]
fn mutual_cycle_is_a_use_before_definition() {
    // `W = D` with `D` declared later: cycles across parameters are
    // impossible by construction, so the diagnostic is about declaration
    // order.
    let errors = check_errors("comp A[some W = D, some D = 2]<G: 1>() -> () { }");
    assert!(
        errors.iter().any(|e| e.kind == ErrorKind::Binding
            && e.message.contains("before its definition")
            && e.message.contains('D')),
        "{errors:#?}"
    );
}

#[test]
fn use_before_definition_of_a_free_param() {
    let errors = check_errors("comp A[some W = log2(N), N]<G: 1>(@[G, G+1] x: N) -> () { }");
    assert!(
        errors
            .iter()
            .any(|e| e.message.contains("uses N before its definition")),
        "{errors:#?}"
    );
}

#[test]
fn derivation_over_unknown_param() {
    let errors = check_errors("comp A[N, some W = log2(M)]<G: 1>(@[G, G+1] x: N) -> () { }");
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Binding && e.message.contains("unknown parameter M")),
        "{errors:#?}"
    );
}

#[test]
fn derivation_reading_instance_params_is_rejected() {
    let errors = check_errors("comp A[N, some W = e.W]<G: 1>(@[G, G+1] x: N) -> () { }");
    assert!(
        errors
            .iter()
            .any(|e| e.message.contains("instance parameter e.W")),
        "{errors:#?}"
    );
}

#[test]
fn duplicate_derived_param_is_rejected() {
    let errors = check_errors("comp A[N, some N = 2]<G: 1>(@[G, G+1] x: N) -> () { }");
    assert!(
        errors
            .iter()
            .any(|e| e.kind == ErrorKind::Binding && e.message.contains("duplicate parameter N")),
        "{errors:#?}"
    );
}

// ------------------------------------------------------- instantiation time

#[test]
fn non_constant_derivation_at_instantiation() {
    // W = log2(N - 1) diverges at N = 1 (log2(0)).
    let err = expand_err(
        "comp E[N, some W = log2(N - 1)]<G: 1>(@[G, G+1] x: N) -> () { }
         comp Main<G: 1>(@[G, G+1] x: 1) -> () { e := new E[1]<G>(x); }",
    );
    let MonoError::Eval {
        component, site, ..
    } = &err
    else {
        panic!("{err}");
    };
    assert_eq!(component, "Main");
    assert!(site.contains("derived parameter W"), "{err}");
    assert!(err.to_string().contains("log2(0)"), "{err}");
}

#[test]
fn underflowing_derivation_at_instantiation() {
    let err = expand_err(
        "comp E[N, some W = N - 8]<G: 1>(@[G, G+1] x: N) -> () { }
         comp Main<G: 1>(@[G, G+1] x: 4) -> () { e := new E[4]<G>(x); }",
    );
    assert!(err.to_string().contains("underflow"), "{err}");
}

#[test]
fn extern_with_unresolvable_derived_width() {
    // The extern's derivation divides by a free parameter that is zero at
    // this instantiation, so its derived output width cannot be computed.
    let err = expand_err(
        "extern comp Pack[N, some W = 64 / N]<G: 1>(@[G, G+1] in: N) -> (@[G, G+1] out: W);
         comp Main<G: 1>(@[G, G+1] x: 8) -> () { p := new Pack[0]<G>(x); }",
    );
    assert!(
        matches!(&err, MonoError::Eval { site, .. } if site.contains("derived parameter W")),
        "{err}"
    );
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn supplied_derived_value_must_match_its_derivation() {
    let err = expand_err(
        "extern comp Sel[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
             -> (@[G, G+1] out: OW);
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 4) {
           s := new Sel[8, 3, 0, 9]<G>(x);
           o = s.out;
         }",
    );
    assert!(
        matches!(
            err,
            MonoError::Derived {
                want: 4,
                got: 9,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn reading_an_unknown_instance_param_is_unbound() {
    // `e.Q` where Enc declares no Q: reported at the read site.
    let err = expand_err(
        "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
         comp E[N, some W = log2(N)]<G: 1>(@[G, G+1] x: N) -> (@[G, G+1] o: W) { o = 0; }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 3) {
           e := new E[8]<G>(x);
           d := new Delay[e.Q]<G>(e.o);
           o = d.out;
         }",
    );
    let msg = err.to_string();
    assert!(msg.contains("e.Q"), "{msg}");
    assert!(msg.contains("unbound"), "{msg}");
}

#[test]
fn reading_params_of_an_undeclared_instance_is_unbound() {
    let err = expand_err(
        "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           d := new Delay[ghost.W]<G>(x);
           o = d.out;
         }",
    );
    assert!(err.to_string().contains("ghost.W"), "{err}");
}

// -------------------------------------------- residual constructs downstream

#[test]
fn checker_reports_unresolved_instance_params_in_widths() {
    // A signature width cannot read instance parameters (no instance is in
    // scope); the checker says so with a mono::expand hint.
    let errors = check_errors("comp A<G: 1>(@[G, G+1] x: e.W) -> () { }");
    assert!(
        errors.iter().any(|e| e.kind == ErrorKind::Unelaborated
            && e.message.contains("e.W")
            && e.message.contains("mono::expand")),
        "{errors:#?}"
    );
}

#[test]
fn lower_rejects_residual_derived_params() {
    struct NoPrims;
    impl filament_core::PrimitiveRegistry for NoPrims {
        fn primitive(
            &self,
            _: &str,
            _: &[u64],
        ) -> Result<Option<rtl_sim::CellKind>, filament_core::ParamTooLarge> {
            Ok(None)
        }
    }
    let p = parse_program("comp A[some W = 4]<G: 1>(@[G, G+1] x: W) -> () { }").unwrap();
    let err = filament_core::lower_program(&p, "A", &NoPrims).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("some W"), "{msg}");
    assert!(msg.contains("mono::expand"), "{msg}");
}

#[test]
fn sem_rejects_residual_derived_params() {
    let p = parse_program("comp A[some W = 4]<G: 1>(@[G, G+1] x: W) -> () { }").unwrap();
    let err = filament_core::component_log(&p, "A").unwrap_err();
    assert!(err.contains("some W"), "{err}");
    assert!(err.contains("mono::expand"), "{err}");
}
