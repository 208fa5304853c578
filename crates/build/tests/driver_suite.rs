//! Driver-level integration tests: parity with the recursive
//! monomorphizer, scheduling determinism, and artifact-cache behavior on a
//! small self-contained dialect (no standard library — the full-corpus
//! gates live in `fil-harness`).

use fil_build::{build_program, expand_program, BuildError, BuildOptions};
use filament_core::ast::Program;
use filament_core::{mono, param_u32, parse_program, pretty, ParamTooLarge, PrimitiveRegistry};
use rtl_sim::CellKind;
use std::path::PathBuf;

const DELAY_EXT: &str = "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);";

struct TestRegistry;

impl PrimitiveRegistry for TestRegistry {
    fn primitive(&self, name: &str, params: &[u64]) -> Result<Option<CellKind>, ParamTooLarge> {
        Ok(match name {
            "Delay" => Some(CellKind::Reg {
                width: param_u32(params, 0, 8)?,
                init: 0,
                has_en: false,
            }),
            _ => None,
        })
    }
}

fn parse(src: &str) -> Program {
    parse_program(src).unwrap()
}

/// A fresh cache directory under the target-adjacent temp dir.
fn temp_cache(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fil-build-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize, cache: Option<&PathBuf>) -> BuildOptions {
    BuildOptions {
        jobs,
        cache_dir: cache.cloned(),
        salt: "test".into(),
        ..BuildOptions::default()
    }
}

#[test]
fn expansion_matches_mono_expand_exactly() {
    // Loops, dedup across two roots, derived-style arithmetic, recursion
    // through distinct keys, and the user-name collision dodge — every
    // case must come out byte-identical to the serial `mono::expand`.
    let sources = [
        format!(
            "{DELAY_EXT}
             comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {{
               s[0] := new Delay[W]<G>(in);
               for i in 1..D {{
                 s[i] := new Delay[W]<G+i>(s[i-1].out);
               }}
               out = s[D-1].out;
             }}
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+3, G+4] o: 8) {{
               c := new Chain[8, 3]<G>(x);
               o = c.out;
             }}
             comp Main2<G: 1>(@[G, G+1] x: 8) -> (@[G+3, G+4] o: 8) {{
               c := new Chain[8, 3]<G>(x);
               o = c.out;
             }}"
        ),
        // Monomorph name dodging a user component: claim order matters.
        "comp Inner[W]<G: 1>(@[G, G+1] x: W) -> () { }
         comp Inner_8<G: 2>(@[G, G+2] y: 4) -> () { }
         comp Main<G: 2>(@[G, G+1] x: 8, @[G, G+2] y: 4) -> () {
           a := new Inner[8]<G>(x);
           b := new Inner_8<G>(y);
         }"
        .to_string(),
        // A parameter-free component used both as a root and as a callee.
        "comp Shared<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) { o = x; }
         comp Top<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           s := new Shared<G>(x);
           o = s.o;
         }"
        .to_string(),
    ];
    for src in &sources {
        let p = parse(src);
        let (via_mono, mono_stats) = mono::expand_with_stats(&p).unwrap();
        for jobs in [1, 8] {
            let out = expand_program(&p, &opts(jobs, None)).unwrap();
            assert_eq!(
                pretty::print_program(&out.expanded),
                pretty::print_program(&via_mono),
                "driver -j{jobs} diverged from mono::expand on:\n{src}"
            );
            assert_eq!(out.expanded, via_mono);
            // Cache accounting matches `mono::expand`'s.
            assert_eq!(out.stats.mono.cache_hits, mono_stats.cache_hits, "{src}");
            assert_eq!(out.stats.mono.cache_misses, mono_stats.cache_misses);
            assert_eq!(out.stats.mono.loops_unrolled, mono_stats.loops_unrolled);
            assert_eq!(out.stats.mono.commands_emitted, mono_stats.commands_emitted);
        }
    }
}

#[test]
fn errors_match_mono_expand() {
    let cases = [
        // Same-key recursion.
        "comp Loop[N]<G: 1>() -> () { x := new Loop[N]; }
         comp Main<G: 1>() -> () { l := new Loop[3]; }",
        // Mutual recursion through two components.
        "comp A[N]<G: 1>() -> () { b := new B[N]; }
         comp B[N]<G: 1>() -> () { a := new A[N]; }
         comp Main<G: 1>() -> () { a := new A[1]; }",
        // Unknown callee.
        "comp Main<G: 1>() -> () { x := new Nope[3]; }",
        // Arity mismatch.
        "comp Two[A, B]<G: 1>() -> () { }
         comp Main<G: 1>() -> () { t := new Two[1]; }",
        // Unbound parameter in a root.
        "comp Main<G: 1>(@[G, G+1] x: W) -> () { }",
        // Duplicate components.
        "comp A<G: 1>() -> () { }
         comp A<G: 1>() -> () { }",
    ];
    for src in cases {
        let p = parse(src);
        let via_mono = mono::expand(&p).unwrap_err();
        let via_driver = match expand_program(&p, &opts(1, None)).unwrap_err() {
            BuildError::Mono(e) => e,
            other => panic!("expected a mono error, got {other:?}"),
        };
        // Mutual recursion is detected at different points (elaboration
        // re-entry vs merge-graph cycle), so compare variants, not values.
        assert_eq!(
            std::mem::discriminant(&via_mono),
            std::mem::discriminant(&via_driver),
            "{src}: {via_mono} vs {via_driver}"
        );
    }
}

#[test]
fn warm_cache_skips_all_work_and_is_byte_identical() {
    let src = format!(
        "{DELAY_EXT}
         comp Stage[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
           d := new Delay[W]<G>(x);
           o = d.out;
         }}
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
           a := new Stage[8]<G>(x);
           b := new Stage[8]<G+1>(a.o);
           o = b.o;
         }}"
    );
    let p = parse(&src);
    let cache = temp_cache("warm");
    let cold = build_program(&p, &TestRegistry, &opts(1, Some(&cache))).unwrap();
    assert_eq!(cold.stats.units, 2);
    assert_eq!(cold.stats.expanded, 2);
    assert_eq!(cold.stats.checked, 2);
    assert_eq!(cold.stats.lowered, 2);
    assert_eq!(cold.stats.cache_loads, 0);
    assert_eq!(cold.stats.cache_misses, 2);
    assert_eq!(cold.stats.cache_stores, 2);

    let warm = build_program(&p, &TestRegistry, &opts(1, Some(&cache))).unwrap();
    assert_eq!(warm.stats.units, 2);
    assert_eq!(warm.stats.expanded, 0, "warm build expanded nothing");
    assert_eq!(warm.stats.checked, 0, "warm build checked nothing");
    assert_eq!(warm.stats.lowered, 0, "warm build lowered nothing");
    assert_eq!(warm.stats.cache_loads, 2);
    assert_eq!(warm.stats.cache_misses, 0);

    assert_eq!(
        pretty::print_program(&cold.expanded),
        pretty::print_program(&warm.expanded)
    );
    assert_eq!(
        calyx_lite::emit_program(cold.lowered.as_ref().unwrap()),
        calyx_lite::emit_program(warm.lowered.as_ref().unwrap())
    );
    // Editing a component's source invalidates exactly what reaches it:
    // renaming an instance inside Main changes Main's key only.
    let p2 = parse(
        &src.replace(
            "b := new Stage[8]<G+1>(a.o);",
            "bb := new Stage[8]<G+1>(a.o);",
        )
        .replace("o = b.o;", "o = bb.o;"),
    );
    let rebuilt = build_program(&p2, &TestRegistry, &opts(1, Some(&cache))).unwrap();
    assert_eq!(rebuilt.stats.cache_loads, 1, "Stage_8 itself is unchanged");
    assert_eq!(rebuilt.stats.expanded, 1, "only Main re-elaborates");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn poisoned_cache_recovers_with_identical_output() {
    let src = format!(
        "{DELAY_EXT}
         comp Inner[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
           d := new Delay[W]<G>(x);
           o = d.out;
         }}
         comp Main<G: 1>(@[G, G+1] x: 16) -> (@[G+1, G+2] o: 16) {{
           i := new Inner[16]<G>(x);
           o = i.o;
         }}"
    );
    let p = parse(&src);
    let cache = temp_cache("poison");
    let cold = build_program(&p, &TestRegistry, &opts(1, Some(&cache))).unwrap();
    let golden_fil = pretty::print_program(&cold.expanded);
    let golden_v = calyx_lite::emit_program(cold.lowered.as_ref().unwrap());
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(artifacts.len(), 2);

    type Poison = Box<dyn Fn(&mut Vec<u8>)>;
    let poisons: Vec<(&str, Poison)> = vec![
        (
            "truncated",
            Box::new(|b: &mut Vec<u8>| b.truncate(b.len() / 2)),
        ),
        (
            "bit-flipped",
            Box::new(|b: &mut Vec<u8>| {
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
            }),
        ),
        (
            "version-bumped",
            Box::new(|b: &mut Vec<u8>| b[4] = b[4].wrapping_add(1)),
        ),
        ("emptied", Box::new(|b: &mut Vec<u8>| b.clear())),
        ("garbage", Box::new(|b: &mut Vec<u8>| *b = vec![0xA5; 64])),
    ];
    for (name, poison) in &poisons {
        for path in &artifacts {
            let pristine = std::fs::read(path).unwrap();
            let mut bad = pristine.clone();
            poison(&mut bad);
            std::fs::write(path, &bad).unwrap();

            let rebuilt = build_program(&p, &TestRegistry, &opts(1, Some(&cache)))
                .unwrap_or_else(|e| panic!("{name} artifact broke the build: {e}"));
            assert_eq!(
                pretty::print_program(&rebuilt.expanded),
                golden_fil,
                "{name}: expanded output differs after recovery"
            );
            assert_eq!(
                calyx_lite::emit_program(rebuilt.lowered.as_ref().unwrap()),
                golden_v,
                "{name}: Verilog differs after recovery"
            );
            assert!(
                rebuilt.stats.cache_misses >= 1,
                "{name}: the poisoned artifact must count as a miss"
            );
            // The rebuild rewrote a good artifact in place.
            let healed = build_program(&p, &TestRegistry, &opts(1, Some(&cache))).unwrap();
            assert_eq!(healed.stats.cache_loads, 2, "{name}: cache healed");
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn parallel_and_serial_builds_agree_cold_and_warm() {
    // A wider DAG: three distinct Chain widths sharing Delay stages.
    let src = format!(
        "{DELAY_EXT}
         comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {{
           s[0] := new Delay[W]<G>(in);
           for i in 1..D {{
             s[i] := new Delay[W]<G+i>(s[i-1].out);
           }}
           out = s[D-1].out;
         }}
         comp Top<G: 1>(@[G, G+1] a: 8, @[G, G+1] b: 16, @[G, G+1] c: 32)
             -> (@[G+2, G+3] x: 8, @[G+3, G+4] y: 16, @[G+4, G+5] z: 32) {{
           ca := new Chain[8, 2]<G>(a);
           cb := new Chain[16, 3]<G>(b);
           cc := new Chain[32, 4]<G>(c);
           x = ca.out;
           y = cb.out;
           z = cc.out;
         }}"
    );
    let p = parse(&src);
    let cache1 = temp_cache("j1");
    let cache8 = temp_cache("j8");
    let cold1 = build_program(&p, &TestRegistry, &opts(1, Some(&cache1))).unwrap();
    let cold8 = build_program(&p, &TestRegistry, &opts(8, Some(&cache8))).unwrap();
    let warm1 = build_program(&p, &TestRegistry, &opts(1, Some(&cache1))).unwrap();
    let warm8 = build_program(&p, &TestRegistry, &opts(8, Some(&cache8))).unwrap();
    let fil: Vec<String> = [&cold1, &cold8, &warm1, &warm8]
        .iter()
        .map(|o| pretty::print_program(&o.expanded))
        .collect();
    let verilog: Vec<String> = [&cold1, &cold8, &warm1, &warm8]
        .iter()
        .map(|o| calyx_lite::emit_program(o.lowered.as_ref().unwrap()))
        .collect();
    assert!(fil.iter().all(|s| s == &fil[0]), "expanded output diverged");
    assert!(verilog.iter().all(|s| s == &verilog[0]), "Verilog diverged");
    // Artifact sets (content-hash filenames) and bytes agree between the
    // serial and parallel cache dirs.
    let list = |d: &PathBuf| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    let (l1, l8) = (list(&cache1), list(&cache8));
    assert_eq!(l1, l8, "artifact hash sets differ between -j1 and -j8");
    for name in &l1 {
        assert_eq!(
            std::fs::read(cache1.join(name)).unwrap(),
            std::fs::read(cache8.join(name)).unwrap(),
            "artifact {name} bytes differ between -j1 and -j8"
        );
    }
    assert_eq!(warm8.stats.expanded, 0);
    assert_eq!(warm8.stats.cache_loads, warm8.stats.units);
    let _ = std::fs::remove_dir_all(&cache1);
    let _ = std::fs::remove_dir_all(&cache8);
}

#[test]
fn opt_levels_isolate_cache_keys_and_stay_deterministic() {
    // The optimizer runs per-unit after lowering, so optimized artifacts
    // must live under a different cache key than `-O0` ones, warm loads
    // must replay the optimized bytes exactly, and `-j1`/`-j8` must agree
    // byte-for-byte at `-O2` just as they do unoptimized.
    let src = format!(
        "{DELAY_EXT}
         comp Stage[W]<G: 1>(@[G, G+1] x: W) -> (@[G+1, G+2] o: W) {{
           d := new Delay[W]<G>(x);
           o = d.out;
         }}
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {{
           a := new Stage[8]<G>(x);
           b := new Stage[8]<G+1>(a.o);
           o = b.o;
         }}"
    );
    let p = parse(&src);
    let cache = temp_cache("optlevel");
    let at = |jobs: usize, level: u8| BuildOptions {
        opt_level: level,
        ..opts(jobs, Some(&cache))
    };

    let plain = build_program(&p, &TestRegistry, &at(1, 0)).unwrap();
    assert_eq!(plain.stats.cache_stores, 2);
    assert_eq!(plain.stats.opt.level, 0, "-O0 never runs the optimizer");
    assert_eq!(plain.stats.opt.cells_before, 0);
    let plain_v = calyx_lite::emit_program(plain.lowered.as_ref().unwrap());

    // -O2 into the same directory: every unit misses (salted key) and
    // stores its *optimized* form alongside the -O0 artifacts.
    let cold2 = build_program(&p, &TestRegistry, &at(1, 2)).unwrap();
    assert_eq!(
        cold2.stats.cache_loads, 0,
        "-O2 must not reuse -O0 artifacts"
    );
    assert_eq!(cold2.stats.cache_stores, 2);
    assert_eq!(cold2.stats.opt.level, 2);
    assert!(cold2.stats.opt.cells_before >= cold2.stats.opt.cells_after);
    assert!(cold2.stats.opt.iterations >= 1);
    let cold2_v = calyx_lite::emit_program(cold2.lowered.as_ref().unwrap());

    // Warm -O2 replays the stored optimized bytes without re-optimizing.
    let warm2 = build_program(&p, &TestRegistry, &at(1, 2)).unwrap();
    assert_eq!(warm2.stats.cache_loads, 2);
    assert_eq!(
        warm2.stats.opt.cells_before, 0,
        "warm load skips the optimizer"
    );
    assert_eq!(
        calyx_lite::emit_program(warm2.lowered.as_ref().unwrap()),
        cold2_v,
        "warm -O2 Verilog differs from cold"
    );

    // -O0 artifacts are still intact and still produce the old bytes.
    let warm0 = build_program(&p, &TestRegistry, &at(1, 0)).unwrap();
    assert_eq!(
        warm0.stats.cache_loads, 2,
        "-O2 builds must not clobber -O0 keys"
    );
    assert_eq!(
        calyx_lite::emit_program(warm0.lowered.as_ref().unwrap()),
        plain_v
    );

    // Parallel -O2 from a fresh cache agrees byte-for-byte.
    let cache8 = temp_cache("optlevel-j8");
    let cold8 = build_program(
        &p,
        &TestRegistry,
        &BuildOptions {
            opt_level: 2,
            ..opts(8, Some(&cache8))
        },
    )
    .unwrap();
    assert_eq!(
        calyx_lite::emit_program(cold8.lowered.as_ref().unwrap()),
        cold2_v,
        "-j8 -O2 Verilog diverged from -j1"
    );
    assert_eq!(cold8.stats.opt.rewrites(), cold2.stats.opt.rewrites());
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&cache8);
}

#[test]
fn expand_mode_artifacts_upgrade_to_full_builds() {
    // An expand-only session populates the cache without lowered halves; a
    // later full build must treat those as misses and overwrite them.
    let src = format!(
        "{DELAY_EXT}
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {{
           d := new Delay[8]<G>(x);
           o = d.out;
         }}"
    );
    let p = parse(&src);
    let cache = temp_cache("upgrade");
    let o = expand_program(&p, &opts(1, Some(&cache))).unwrap();
    assert!(o.lowered.is_none());
    assert_eq!(o.stats.cache_stores, 1);
    let full = build_program(&p, &TestRegistry, &opts(1, Some(&cache))).unwrap();
    assert_eq!(
        full.stats.cache_misses, 1,
        "expand-only artifact lacks the lowered half"
    );
    assert_eq!(full.stats.lowered, 1);
    // And now expand-only sessions load the full artifact fine.
    let again = expand_program(&p, &opts(1, Some(&cache))).unwrap();
    assert_eq!(again.stats.cache_loads, 1);
    let _ = std::fs::remove_dir_all(&cache);
}
