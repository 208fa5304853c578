//! Expansion, pinned: the printed output of `mono::expand` and its
//! `MonoStats`, through both entry points.
//!
//! The golden corpus pins the expanded text of the corpus designs only;
//! the expanded text of fuzz programs is otherwise pinned indirectly, by
//! check verdicts and back-end digests. This suite records, for every
//! case, an FNV-64 digest of the printed expanded program and its
//! `MonoStats` (or the error's `Display` text), once through
//! `mono::expand` and once through `fil_stdlib::build` (the driver's
//! per-unit elaboration, placeholders and merge, via `expanded_text`).
//! Cases: the design corpus, 500 seeded fuzz programs, the hand-written
//! generate programs (each under a root that instantiates it), and
//! forward-reference programs, chained, reversed and cyclic.
//!
//! An intentional expansion change regenerates the digests:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fil-harness --test expand_pinned
//! ```

use fil_build::key::fnv64;
use filament_core::mono::{self, MonoStats};
use filament_core::parse_program;
use filament_core::pretty::print_program;
use std::fmt::Write as _;
use std::path::PathBuf;

#[path = "common/generate.rs"]
mod generate;
use generate::GENERATE_PROGRAMS;

/// Seed of the first fuzz program; the suite expands `FUZZ_CASES` in a row.
const FUZZ_SEED: u64 = 0xe8a4_0001;
const FUZZ_CASES: u64 = 500;

/// Roots appended to the generate programs that have none, so expansion
/// has something to elaborate (both arms of `Sel`'s conditional).
const GENERATE_ROOTS: &[(&str, &str)] = &[
    (
        "fused-in-for",
        "comp Top<G: 1>(@[G, G+1] x: 8) -> () { c := new Chain[8, 3]<G>(x); }",
    ),
    (
        "fused-nested-for-if",
        "comp Top<G: 1>(@[G, G+1] a[i: 3]: 8) -> () { g := new Grid[3, 8]<G>(a); }",
    ),
    (
        "fused-in-if-else",
        "comp Top<G: 1>(@[G, G+1] l: 8, @[G, G+1] r: 8) -> () {
           s := new Sel[8, 3]<G>(l, r);
           t := new Sel[8, 1]<G>(l, r);
         }",
    ),
];

/// Programs whose instance parameters read instances declared later in
/// the body, as mono's unit tests write them, plus chains of such reads.
fn forward_programs() -> Vec<(String, String)> {
    let id = "comp Id[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W) { out = in; }";
    let pass = "comp Pass[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> (@[G, G+1] out[i: 0..N]: 8) {
                  for i in 0..N { out[i] = in[i]; }
                }";
    let mut cases = vec![
        (
            "forward-chain-3".to_owned(),
            format!(
                "{id}
                 comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
                   d := new Delay[a.W]<G>(x);
                   a := new Id[b.W]<G>(x);
                   b := new Id[c.W]<G>(x);
                   c := new Id[8]<G>(x);
                   o = d.out;
                 }}"
            ),
        ),
        (
            "forward-cycle".to_owned(),
            format!(
                "{id}
                 comp Main<G: 1>(@[G, G+1] x: 8) -> () {{
                   a := new Id[b.W]<G>(x);
                   b := new Id[a.W]<G>(x);
                 }}"
            ),
        ),
        (
            "forward-bundle".to_owned(),
            format!(
                "{pass}
                 comp Fwd[N]<G: 1>(@[G, G+1] xs[i: 0..N]: 8) -> (@[G, G+1] ys[i: 0..N]: 8) {{
                   a := new Pass[N]<G>(b.out);
                   b := new Pass[N]<G>(xs);
                   for i in 0..N {{ ys[i] = a.out[i]; }}
                 }}
                 comp Main<G: 1>(@[G, G+1] p: 8, @[G, G+1] q: 8) -> () {{
                   f := new Fwd[2]<G>(p, q);
                 }}"
            ),
        ),
        (
            "forward-bundle-out-of-range".to_owned(),
            format!(
                "{pass}
                 comp Fwd<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y: 8) {{
                   y = b.out[7];
                   b := new Pass[2]<G>(x, x);
                 }}
                 comp Main<G: 1>(@[G, G+1] p: 8) -> () {{ f := new Fwd<G>(p); }}"
            ),
        ),
        (
            "forward-loop-bound".to_owned(),
            "comp Main<G: 1>(@[G, G+1] x: 8) -> () {
               for i in 0..e.W { d[i] := new Delay[e.W]<G+i>(x); }
               e := new Add[3]<G>(x, x);
             }"
            .to_owned(),
        ),
        (
            "forward-read-in-if".to_owned(),
            format!(
                "{id}
                 comp Main<G: 1>(@[G, G+1] x: 8) -> () {{
                   d := new Id[p.W]<G>(x);
                   p := new Id[q.W]<G>(x);
                   if p.W == 8 {{ e := new Delay[8]<G>(x); }}
                   q := new Id[8]<G>(x);
                 }}"
            ),
        ),
        (
            "forward-read-in-loop-bound".to_owned(),
            format!(
                "{id}
                 comp Main<G: 1>(@[G, G+1] x: 8) -> () {{
                   d := new Id[p.W]<G>(x);
                   p := new Id[q.W]<G>(x);
                   for i in 0..p.W {{ e[i] := new Delay[8]<G>(x); }}
                   q := new Id[8]<G>(x);
                 }}"
            ),
        ),
        (
            "forward-invocation-before-instance".to_owned(),
            "comp Main<G: 2>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
               v := r<G, G+2>(go, x);
               z := new Delay[v.W]<G>(x);
               r := new Register[8];
               o = v.out;
             }"
            .to_owned(),
        ),
    ];
    for n in [2, 50] {
        cases.push((format!("chain-forward-{n}"), chain(n, Order::Forward)));
        cases.push((format!("chain-reversed-{n}"), chain(n, Order::Reversed)));
        cases.push((format!("chain-cyclic-{n}"), chain(n, Order::Cyclic)));
    }
    cases
}

/// How the links of [`chain`] read each other.
#[derive(Clone, Copy)]
enum Order {
    /// `a{i}` reads `a{i+1}`, declared after it; the last link is `Add[8]`.
    Forward,
    /// `a{i}` reads `a{i-1}`, declared before it; the first link is `Add[8]`.
    Reversed,
    /// `a{i}` reads `a{i+1}`, and the last link reads `a0`.
    Cyclic,
}

/// A root whose `n` instances each take their width from another's.
fn chain(n: usize, order: Order) -> String {
    let mut s = String::from("comp Main<G: 1>(@[G, G+1] x: 8) -> () {\n");
    for i in 0..n {
        let width = match order {
            Order::Forward if i + 1 == n => "8".to_owned(),
            Order::Forward => format!("a{}.W", i + 1),
            Order::Reversed if i == 0 => "8".to_owned(),
            Order::Reversed => format!("a{}.W", i - 1),
            Order::Cyclic => format!("a{}.W", (i + 1) % n),
        };
        let _ = writeln!(s, "  a{i} := new Add[{width}]<G>(x, x);");
    }
    s.push('}');
    s
}

fn digest(s: &str) -> u64 {
    fnv64(&[s.as_bytes()])
}

fn stats_text(s: &MonoStats) -> String {
    format!(
        "hits={} misses={} loops={} ifs={} bundles={} derived={} commands={}",
        s.cache_hits,
        s.cache_misses,
        s.loops_unrolled,
        s.ifs_resolved,
        s.bundles_flattened,
        s.derivations_evaluated,
        s.commands_emitted
    )
}

/// `(printed program, stats)` through `mono::expand`, over the standard
/// library plus `src`.
fn via_expand(src: &str) -> Result<(String, MonoStats), String> {
    let mut p = fil_stdlib::std_program();
    p.extend(parse_program(src).map_err(|e| e.to_string())?);
    let (q, stats) = mono::expand_with_stats(&p).map_err(|e| e.to_string())?;
    Ok((print_program(&q), stats))
}

/// `(expanded text, stats)` through the build driver.
fn via_build(src: &str) -> Result<(String, MonoStats), String> {
    let out = fil_stdlib::build(&fil_stdlib::BuildRequest::new(src)).map_err(|e| e.to_string())?;
    let text = out.expanded_text.expect("expanded text is on by default");
    Ok((text, out.stats.mono))
}

/// One line per entry point: the digest and stats, or the error.
fn pin_case(out: &mut String, name: &str, src: &str) {
    for (path, run) in [
        ("expand", via_expand as fn(&str) -> _),
        ("build", via_build),
    ] {
        match run(src) {
            Ok((text, stats)) => {
                let _ = writeln!(
                    out,
                    "{name} {path} {:016x} {}",
                    digest(&text),
                    stats_text(&stats)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{name} {path} error: {e}");
            }
        }
    }
}

fn render() -> String {
    let mut out = String::from(
        "# name  path  fnv64(expanded text)  MonoStats, or the error — pinned by \
         tests/expand_pinned.rs\n",
    );
    for (name, src, _top) in fil_designs::corpus() {
        pin_case(&mut out, &format!("corpus/{name}"), &src);
    }
    for (name, src) in GENERATE_PROGRAMS {
        let root = GENERATE_ROOTS
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, r)| r);
        pin_case(
            &mut out,
            &format!("generate/{name}"),
            &format!("{src}\n{root}"),
        );
    }
    for (name, src) in forward_programs() {
        pin_case(&mut out, &format!("forward/{name}"), &src);
    }
    // One line per hundred fuzz programs and entry point, so a drift is
    // localized.
    for block in 0..FUZZ_CASES / 100 {
        for (path, run) in [
            ("expand", via_expand as fn(&str) -> _),
            ("build", via_build),
        ] {
            let mut text = String::new();
            let mut stats = MonoStats::default();
            for k in 0..100 {
                let case = fil_harness::fuzz::gen::generate(FUZZ_SEED + block * 100 + k);
                let (t, s) = run(&case.source)
                    .unwrap_or_else(|e| panic!("fuzz seed {} ({path}): {e}", case.seed));
                text.push_str(&t);
                stats.absorb(&s);
            }
            let _ = writeln!(
                out,
                "fuzz/{}..{} {path} {:016x} {}",
                block * 100,
                block * 100 + 100,
                digest(&text),
                stats_text(&stats)
            );
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("expand_digests.txt")
}

#[test]
fn expansion_matches_pinned_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &got).expect("write expand digests");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p fil-harness --test \
             expand_pinned",
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
        "expansion drifted from {}:\n{}",
        path.display(),
        drift.join("\n")
    );
}
