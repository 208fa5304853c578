//! The pretty-printer, pinned byte for byte on raw (unexpanded) ASTs.
//!
//! The golden corpus pins only expanded text, and the round-trip suites
//! cannot see a spacing change (the changed text parses back to the same
//! AST). So this suite records an FNV-64 digest of `print_program` over
//! the raw parse of every corpus design source, of 500 seeded fuzz
//! programs, of the standard library, and of hand-written `for`/`if`-
//! generate programs with fused indexed instances. Each line also digests
//! `print_signature` and `print_command` over every signature and
//! top-level command, so the single-item entry points stay pinned too.
//!
//! An intentional printer change regenerates the digests:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fil-harness --test printer_pinned
//! ```

use fil_build::key::fnv64;
use filament_core::ast::Program;
use filament_core::parse_program;
use filament_core::pretty::{print_command, print_program, print_signature};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed of the first fuzz program; the suite prints `FUZZ_CASES` in a row.
const FUZZ_SEED: u64 = 0x5eed_0001;
const FUZZ_CASES: u64 = 500;

#[path = "common/generate.rs"]
mod generate;
use generate::GENERATE_PROGRAMS;

fn digest(s: &str) -> u64 {
    fnv64(&[s.as_bytes()])
}

/// `print_signature` and `print_command` over every item, one per line.
fn item_text(p: &Program) -> String {
    let mut out = String::new();
    for sig in p.externs.iter() {
        out.push_str(&print_signature(sig));
        out.push('\n');
    }
    for comp in &p.components {
        out.push_str(&print_signature(&comp.sig));
        out.push('\n');
        for cmd in &comp.body {
            out.push_str(&print_command(cmd));
            out.push('\n');
        }
    }
    out
}

fn pin_line(out: &mut String, name: &str, p: &Program) {
    let _ = writeln!(
        out,
        "{name} {:016x} {:016x}",
        digest(&print_program(p)),
        digest(&item_text(p))
    );
}

fn parse(name: &str, src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"))
}

fn render() -> String {
    let mut out = String::from(
        "# name  fnv64(print_program)  fnv64(print_signature + print_command) — \
         pinned by tests/printer_pinned.rs\n",
    );
    pin_line(&mut out, "stdlib", &fil_stdlib::std_program());
    for (name, src, _top) in fil_designs::corpus() {
        pin_line(&mut out, &format!("corpus/{name}"), &parse(&name, &src));
    }
    for (name, src) in GENERATE_PROGRAMS {
        pin_line(&mut out, &format!("generate/{name}"), &parse(name, src));
    }
    // One line per hundred fuzz programs, so a drift is localized.
    for block in 0..FUZZ_CASES / 100 {
        let (mut program_text, mut items) = (String::new(), String::new());
        for k in 0..100 {
            let case = fil_harness::fuzz::gen::generate(FUZZ_SEED + block * 100 + k);
            let p = parse(&format!("fuzz seed {}", case.seed), &case.source);
            program_text.push_str(&print_program(&p));
            items.push_str(&item_text(&p));
        }
        let _ = writeln!(
            out,
            "fuzz/{}..{} {:016x} {:016x}",
            block * 100,
            block * 100 + 100,
            digest(&program_text),
            digest(&items)
        );
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("printer_digests.txt")
}

#[test]
fn printer_output_matches_pinned_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &got).expect("write printer digests");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p fil-harness --test \
             printer_pinned",
            path.display()
        )
    });
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want: {w}\n  got:  {g}"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == got.lines().count(),
        "printer output drifted from {}:\n{}",
        path.display(),
        drift.join("\n")
    );
}

/// No fused pair in the hand-written generate programs prints split, and
/// each printed program parses back to the AST it came from.
#[test]
fn generate_programs_print_fused_forms() {
    for (name, src) in GENERATE_PROGRAMS {
        let text = print_program(&parse(name, src));
        assert!(
            !text.contains("#inst"),
            "{name}: a fused pair printed split:\n{text}"
        );
        assert_eq!(
            parse(name, &text),
            parse(name, src),
            "{name}: printed text does not parse back to the same AST"
        );
    }
}
