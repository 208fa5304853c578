//! The checker's verdicts, pinned.
//!
//! Each case is one program run through `mono::expand` and
//! `check_program` with the standard library. Its golden line is the
//! verdict: `ok`, or the error count, the error kinds and a digest of the
//! full `Display` text of every diagnostic, sorted, so the line does not
//! depend on the order the checker reports in. The cases are:
//!
//! * the design corpus (`fil_bench::design_corpus`);
//! * 400 seeded `fuzz::gen` programs, well-formed by construction;
//! * four mutants of each of those, made on the expanded program so they
//!   reach the checker as written: an invocation's schedule shifted by
//!   one cycle, an input's availability window narrowed by one cycle, an
//!   event delay shortened by one, and an invocation moved onto another
//!   instance of the same component (forced sharing).
//!
//! Mutants sit next to the accept/reject boundary, so a change to how an
//! obligation is decided, not only to how it is worded, shows up here.
//!
//! An intentional change regenerates the golden file:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p filament-core --test check_pinned
//! ```

use filament_core::ast::{Command, ConstExpr, Delay};
use filament_core::{check_program, mono, parse_program, CheckError, Program};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed of the first fuzz program; the suite checks `FUZZ_CASES` in a row.
const FUZZ_SEED: u64 = 0xc4ec_0001;
const FUZZ_CASES: u64 = 400;

/// splitmix64: picks mutation sites deterministically per program.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a, 64-bit: a stable digest of a verdict's full text.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The verdict: `ok`, or the number of diagnostics, their kinds, and a
/// digest of their full text, sorted and joined (the text of a mutant
/// runs to kilobytes, so the line pins it by digest).
fn verdict(p: &Program) -> String {
    let Err(errs) = check_program(p) else {
        return "ok".into();
    };
    let mut lines: Vec<String> = errs.iter().map(CheckError::to_string).collect();
    lines.sort();
    let mut kinds: Vec<String> = errs.iter().map(|e| e.kind.to_string()).collect();
    kinds.sort();
    kinds.dedup();
    format!(
        "reject {} [{}] {:016x}",
        errs.len(),
        kinds.join(", "),
        fnv64(&lines.join("\n"))
    )
}

/// Every command of every component body.
fn commands(p: &mut Program) -> Vec<&mut Command> {
    p.components
        .iter_mut()
        .flat_map(|c| c.body.iter_mut())
        .collect()
}

/// Shifts one event of the `h`-th invocation one cycle later or earlier.
fn shift(p: &mut Program, h: u64) -> Option<()> {
    let mut invokes: Vec<_> = commands(p)
        .into_iter()
        .filter_map(|c| match c {
            Command::Invoke { events, .. } => Some(events),
            _ => None,
        })
        .collect();
    let n = invokes.len();
    let events = invokes.get_mut((h as usize) % n.max(1))?;
    let len = events.len();
    let t = events.get_mut((h as usize / 7) % len.max(1))?;
    let off = t.off();
    t.offset = ConstExpr::Lit(if (h >> 20) & 1 == 1 || off == 0 {
        off + 1
    } else {
        off - 1
    });
    Some(())
}

/// Narrows one data input's availability by a cycle at either end.
fn narrow(p: &mut Program, h: u64) -> Option<()> {
    let mut ports: Vec<_> = p
        .components
        .iter_mut()
        .flat_map(|c| c.sig.inputs.iter_mut())
        .collect();
    let n = ports.len();
    let port = ports.get_mut((h as usize) % n.max(1))?;
    let r = &mut port.liveness;
    if (h >> 20) & 1 == 1 {
        r.start.offset = ConstExpr::Lit(r.start.off() + 1);
    } else {
        let end = r.end.off();
        r.end.offset = ConstExpr::Lit(end.checked_sub(1)?);
    }
    Some(())
}

/// Shortens one constant event delay by a cycle.
fn shorten(p: &mut Program, h: u64) -> Option<()> {
    let mut delays: Vec<_> = p
        .components
        .iter_mut()
        .flat_map(|c| c.sig.events.iter_mut())
        .filter_map(|e| match &mut e.delay {
            Delay::Const(n) if *n > 0 => Some(n),
            _ => None,
        })
        .collect();
    let n = delays.len();
    let d = delays.get_mut((h as usize) % n.max(1))?;
    **d -= 1;
    Some(())
}

/// Moves one invocation onto another instance of the same component,
/// declared earlier in the same body.
fn share(p: &mut Program, h: u64) -> Option<()> {
    let mut sites = Vec::new();
    for (ci, comp) in p.components.iter().enumerate() {
        // Instances declared so far: (name, component).
        let mut declared: Vec<(&str, &str)> = Vec::new();
        for (k, cmd) in comp.body.iter().enumerate() {
            match cmd {
                Command::Instance {
                    name, component, ..
                } => declared.push((&name.base, component)),
                Command::Invoke { instance, .. } => {
                    let Some(&(_, callee)) = declared.iter().find(|(n, _)| *n == instance.base)
                    else {
                        continue;
                    };
                    for &(other, c) in &declared {
                        if c == callee && other != instance.base {
                            sites.push((ci, k, other.to_owned()));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let n = sites.len();
    let (ci, k, other) = sites.get((h as usize) % n.max(1))?.clone();
    if let Command::Invoke { instance, .. } = &mut p.components[ci].body[k] {
        instance.base = other;
    }
    Some(())
}

type Mutation = fn(&mut Program, u64) -> Option<()>;

const MUTATIONS: &[(&str, Mutation)] = &[
    ("shift", shift),
    ("narrow", narrow),
    ("shorten", shorten),
    ("share", share),
];

/// The base verdict and one line per applicable mutant.
fn render_case(label: &str, src: &str, salt: u64, out: &mut String) {
    let mut program = fil_stdlib::std_program();
    program.extend(parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}")));
    let expanded = match mono::expand(&program) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out, "{label}: expand: {e}");
            return;
        }
    };
    let _ = writeln!(out, "{label}: {}", verdict(&expanded));
    for (i, (kind, mutate)) in MUTATIONS.iter().enumerate() {
        let mut m = expanded.clone();
        if mutate(&mut m, mix(salt ^ ((i as u64) << 32))).is_some() {
            let _ = writeln!(out, "{label} {kind}: {}", verdict(&m));
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for (i, (name, src, _top)) in fil_bench::design_corpus().into_iter().enumerate() {
        render_case(&format!("corpus/{name}"), &src, i as u64, &mut out);
    }
    for seed in FUZZ_SEED..FUZZ_SEED + FUZZ_CASES {
        let case = fil_harness::fuzz::gen::generate(seed);
        render_case(&format!("fuzz/{seed}"), &case.source, seed, &mut out);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("check_verdicts.txt")
}

#[test]
fn every_verdict_matches_its_pin() {
    let got = render();
    // The suite pins both sides of the boundary: accepted programs and
    // rejected mutants of every mutation kind.
    assert!(got.lines().any(|l| l.ends_with(": ok")));
    for (kind, _) in MUTATIONS {
        let tag = format!(" {kind}: reject");
        assert!(
            got.lines().any(|l| l.contains(&tag)),
            "no {kind} mutant is rejected"
        );
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p filament-core --test \
             check_pinned",
            path.display()
        )
    });
    let mismatches: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .take(20)
        .map(|(w, g)| format!("  want: {w}\n  got:  {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == got.lines().count(),
        "verdicts drifted from {} ({} vs {} lines):\n{}",
        path.display(),
        want.lines().count(),
        got.lines().count(),
        mismatches.join("\n")
    );
}
