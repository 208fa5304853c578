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

/// Generate constructs the corpus and the fuzzer reach only partly:
/// fused instances indexed by loop variables (nested and under `if`),
/// `else` arms, bundle ports and elements, and `inst.P` reads.
const GENERATE_PROGRAMS: &[(&str, &str)] = &[
    (
        "fused-in-for",
        "comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
           s[0] := new Delay[W]<G>(in);
           for i in 1..D {
             s[i] := new Delay[W]<G+i>(s[i-1].out);
           }
           out = s[D-1].out;
         }",
    ),
    (
        "fused-nested-for-if",
        "comp Grid[N, W]<G: 1>(@[G, G+1] a[i: N]: W) -> (@[G, G+1] o[i: N]: W) {
           for i in 0..N {
             for j in 0..2 {
               if j == 0 {
                 x[i][j] := new Add[W]<G>(a[i], a[i]);
               } else {
                 x[i][j] := new Sub[W]<G>(x[i][j-1].out, a[i]);
               }
             }
             o[i] = x[i][1].out;
           }
         }",
    ),
    (
        "fused-in-if-else",
        "comp Sel[W, K]<G: 1>(@[G, G+1] l: W, @[G, G+1] r: W) -> (@[G, G+1] out: W) {
           if K >= 2 {
             m[K] := new Add[W]<G>(l, r);
             out = m[K].out;
           } else {
             m[K] := new Xor[W]<G>(l, r);
             out = m[K].out;
           }
         }",
    ),
    (
        "split-instances-and-params",
        "comp Acc[W, some OW = W + W]<G: 2>(@interface[G] go: 1, @[G, G+1] x: W)
             -> (@[G+1, G+2] out: OW) {
           r := new Register[W];
           z := new ZExt[W, OW]<G>(x);
           v := r<G, G+2>(go, x);
           e := new Slice[OW, z.WO - 1, 0]<G>(z.out);
           out = v.out;
         }
         comp Main<G: 2>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 16) {
           a := new Acc[8]<G>(go, x);
           b := new Acc[a.W]<G>(go, x);
           o = a.out;
         }",
    ),
    (
        "bundle-outputs-and-where",
        "extern comp Pair<G: L-(G+1), L: 1>(@interface[G] en: 1, @[G, G+1] in: 8)
             -> (@[G+1, L] out: 8) where L > G+1, L >= G, G == G;
         comp Fan[N]<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y[i: 1..N+1]: 8) {
           for i in 1..N+1 { y[i] = x; }
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           f := new Fan[pow2(2)]<G>(x);
           g := new Fan[log2(8) * 2 % 5]<G>(f.y[1]);
           o = g.y[2];
         }",
    ),
];

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
