//! Formatter fixpoint: `filament fmt` must be idempotent over the whole
//! corpus — formatting a formatted program changes nothing.
//!
//! `fmt` is parse → pretty-print (see `src/bin/filament.rs`), so the
//! library-level property is `print ∘ parse` reaching a fixpoint after one
//! application, on the raw generator sources (with parameters, bundles,
//! `for`/`if`-generate) *and* on their expansions. CI additionally runs the
//! real binary twice over the golden snapshots and diffs.

use filament_core::parse_program;
use filament_core::pretty::print_program;

/// One `filament fmt` application.
fn fmt(src: &str) -> String {
    print_program(&parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}")))
}

#[test]
fn corpus_sources_format_to_a_fixpoint() {
    for (name, src, _top) in fil_designs::corpus() {
        let once = fmt(&src);
        let twice = fmt(&once);
        assert_eq!(once, twice, "{name}: fmt is not idempotent");
    }
}

#[test]
fn parametric_generators_format_to_a_fixpoint() {
    // The raw (pre-expansion) generator sources, which exercise the
    // formatter's bundle and if-generate forms directly.
    for (name, src) in [
        ("systolic", fil_designs::systolic::SYSTOLIC),
        ("chain", fil_designs::shift::CHAIN),
        ("alu-param", fil_designs::alu::ALU_PARAM),
    ] {
        let once = fmt(src);
        let twice = fmt(&once);
        assert_eq!(once, twice, "{name}: fmt is not idempotent");
    }
}

#[test]
fn expansions_format_to_a_fixpoint() {
    for (name, src, _top) in fil_designs::corpus() {
        let expanded = fil_stdlib::build(&fil_stdlib::BuildRequest::new(src.as_str()))
            .unwrap_or_else(|e| panic!("{name} fails to expand: {e}"))
            .expanded_text
            .expect("expanded text is on by default");
        let once = fmt(&expanded);
        assert_eq!(
            once,
            fmt(&once),
            "{name}: fmt of the expansion is not idempotent"
        );
    }
}

#[test]
fn stdlib_formats_to_a_fixpoint() {
    let once = print_program(&fil_stdlib::std_program());
    assert_eq!(once, fmt(&once), "stdlib fmt is not idempotent");
}
