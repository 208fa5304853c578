//! Corpus-level gates for the `fil-build` driver:
//!
//! * **Determinism** — every design in the corpus built at `-j1` and
//!   `-j8`, cold-cache and warm-cache, must produce byte-identical
//!   expanded Filament, byte-identical Verilog, and identical artifact
//!   hash sets — and the expanded text must equal the recursive
//!   monomorphizer's output exactly.
//! * **Warm-cache zero-work** — a warm corpus build performs zero
//!   expand/check/lower work, verified via the driver's counters.
//! * **Warm-cache speed** — a warm corpus build is at least 2.5× faster
//!   than a cold one.
//! * **Cache poisoning** — truncated, bit-flipped, and version-bumped
//!   artifacts must fall back to a clean rebuild with identical output,
//!   never a panic, never a wrong netlist.

use fil_build::BuildOptions;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_cache(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fil-harness-build-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize, cache: &Path) -> BuildOptions {
    BuildOptions {
        jobs,
        cache_dir: Some(cache.to_path_buf()),
        salt: "reticle".into(),
        ..BuildOptions::default()
    }
}

/// Full driver build against the Reticle registry — a superset of the
/// standard one, so it serves every corpus entry (only conv2d-reticle
/// needs the Tdot extern).
fn with_std_raw(src: &str) -> Result<filament_core::Program, fil_stdlib::LoadError> {
    fil_stdlib::build(&fil_build::BuildRequest::new(src).raw().expanded(false))
        .map(|out| out.raw.expect("raw was requested"))
}

fn build(src: &str, o: &BuildOptions) -> Result<fil_build::DriverOutput, String> {
    let raw = with_std_raw(src).map_err(|e| e.to_string())?;
    fil_build::build_program(&raw, &reticle::ReticleRegistry, o).map_err(|e| e.to_string())
}

fn artifact_names(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    v.sort();
    v
}

#[test]
fn corpus_builds_are_deterministic_across_jobs_and_cache_state() {
    for (name, src, _top) in fil_designs::corpus() {
        // Independent reference: the recursive monomorphizer.
        let raw = with_std_raw(&src).unwrap();
        let reference =
            filament_core::pretty::print_program(&filament_core::mono::expand(&raw).unwrap());

        let cache1 = temp_cache(&format!("{name}-j1"));
        let cache8 = temp_cache(&format!("{name}-j8"));
        let cold1 = build(&src, &opts(1, &cache1)).unwrap();
        let cold8 = build(&src, &opts(8, &cache8)).unwrap();
        let warm1 = build(&src, &opts(1, &cache1)).unwrap();
        let warm8 = build(&src, &opts(8, &cache8)).unwrap();

        let runs = [
            ("cold -j1", &cold1),
            ("cold -j8", &cold8),
            ("warm -j1", &warm1),
            ("warm -j8", &warm8),
        ];
        for (label, out) in &runs {
            assert_eq!(
                filament_core::pretty::print_program(&out.expanded),
                reference,
                "{name} ({label}): expanded program diverged from mono::expand"
            );
        }
        let verilog: Vec<String> = runs
            .iter()
            .map(|(_, o)| calyx_lite::emit_program(o.lowered.as_ref().unwrap()))
            .collect();
        for (i, (label, _)) in runs.iter().enumerate() {
            assert_eq!(verilog[i], verilog[0], "{name} ({label}): Verilog diverged");
        }

        // Artifact hash sets and bytes agree between the -j1 and -j8
        // cache dirs (content-addressed determinism on disk).
        let (l1, l8) = (artifact_names(&cache1), artifact_names(&cache8));
        assert_eq!(l1, l8, "{name}: artifact hash sets differ");
        for file in &l1 {
            assert_eq!(
                std::fs::read(cache1.join(file)).unwrap(),
                std::fs::read(cache8.join(file)).unwrap(),
                "{name}: artifact {file} bytes differ"
            );
        }

        // Warm builds did zero expand/check/lower work.
        for (label, out) in [("warm -j1", &warm1), ("warm -j8", &warm8)] {
            assert_eq!(out.stats.expanded, 0, "{name} ({label}) expanded units");
            assert_eq!(out.stats.checked, 0, "{name} ({label}) checked units");
            assert_eq!(out.stats.lowered, 0, "{name} ({label}) lowered units");
            assert_eq!(out.stats.cache_loads, out.stats.units, "{name} ({label})");
            assert_eq!(out.stats.cache_misses, 0, "{name} ({label})");
        }
        // Cold builds stored one artifact per unit.
        assert_eq!(cold1.stats.cache_stores, cold1.stats.units, "{name}");

        let _ = std::fs::remove_dir_all(&cache1);
        let _ = std::fs::remove_dir_all(&cache8);
    }
}

/// A warm artifact cache builds the whole corpus at least 2.5× faster
/// than an empty one. Each side is the best of five passes, so one
/// descheduled pass cannot decide the ratio.
#[test]
fn warm_corpus_builds_are_at_least_2_5x_faster_than_cold() {
    let corpus: Vec<filament_core::Program> = fil_designs::corpus()
        .iter()
        .map(|(_, src, _)| with_std_raw(src).unwrap())
        .collect();
    let cache = temp_cache("speedup");
    let o = BuildOptions {
        emit_expanded: false,
        ..opts(1, &cache)
    };
    let pass = || {
        let start = Instant::now();
        for p in &corpus {
            fil_build::build_program(p, &reticle::ReticleRegistry, &o).unwrap();
        }
        start.elapsed()
    };
    let best = |f: &mut dyn FnMut() -> Duration| (0..5).map(|_| f()).min().unwrap();
    let cold = best(&mut || {
        let _ = std::fs::remove_dir_all(&cache);
        pass()
    });
    let warm = best(&mut || pass());
    let _ = std::fs::remove_dir_all(&cache);
    assert!(
        cold.as_secs_f64() >= 2.5 * warm.as_secs_f64(),
        "warm corpus build {warm:?} is less than 2.5x faster than cold {cold:?}"
    );
}

#[test]
fn poisoned_corpus_cache_recovers_cleanly() {
    // The deepest corpus design: a 3-component DAG (wrapper, Systolic_8_32,
    // Process_32) with plenty of artifacts to poison.
    let src = fil_designs::systolic::source(8, 32);
    let cache = temp_cache("poison");
    let cold = build(&src, &opts(2, &cache)).unwrap();
    let golden_fil = filament_core::pretty::print_program(&cold.expanded);
    let golden_v = calyx_lite::emit_program(cold.lowered.as_ref().unwrap());
    assert!(cold.stats.units >= 3, "expected a multi-unit DAG");

    type Poison = fn(&mut Vec<u8>);
    let poisons: [(&str, Poison); 3] = [
        ("truncate", |b| b.truncate(b.len() / 3)),
        ("bitflip", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x08;
        }),
        ("version-bump", |b| b[4] = b[4].wrapping_add(3)),
    ];
    for (label, poison) in poisons {
        // Poison *every* artifact at once.
        for file in artifact_names(&cache) {
            let path = cache.join(file);
            let mut bytes = std::fs::read(&path).unwrap();
            poison(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
        }
        let rebuilt = build(&src, &opts(2, &cache))
            .unwrap_or_else(|e| panic!("{label}: poisoned cache broke the build: {e}"));
        assert_eq!(
            filament_core::pretty::print_program(&rebuilt.expanded),
            golden_fil,
            "{label}: expanded output changed after recovery"
        );
        assert_eq!(
            calyx_lite::emit_program(rebuilt.lowered.as_ref().unwrap()),
            golden_v,
            "{label}: Verilog changed after recovery"
        );
        assert_eq!(
            rebuilt.stats.cache_misses, rebuilt.stats.units,
            "{label}: every poisoned artifact must register as a miss"
        );
        assert_eq!(rebuilt.stats.expanded, rebuilt.stats.units, "{label}");
        // The rebuild healed the cache in place.
        let healed = build(&src, &opts(2, &cache)).unwrap();
        assert_eq!(healed.stats.cache_loads, healed.stats.units, "{label}");
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn stale_cache_entries_coexist_with_fresh_ones() {
    // Editing one component leaves sibling units' artifacts valid: only
    // the changed component (and its dependents) rebuild.
    let src_a = fil_designs::shift::source(8, 4);
    let cache = temp_cache("stale");
    let a = build(&src_a, &opts(1, &cache)).unwrap();
    assert!(a.stats.units >= 2);
    // A different width: the Chain generator source is identical text, so
    // its closure hash is unchanged — but the unit params differ, so
    // everything rebuilds under new keys while old artifacts just sit
    // there unused.
    let src_b = fil_designs::shift::source(16, 4);
    let b = build(&src_b, &opts(1, &cache)).unwrap();
    assert_eq!(b.stats.cache_loads, 0, "different params, different keys");
    // Re-building the original is still fully warm.
    let again = build(&src_a, &opts(1, &cache)).unwrap();
    assert_eq!(again.stats.cache_loads, again.stats.units);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn cache_limit_evicts_oldest_artifacts_first() {
    // Two disjoint artifact sets (different params, different keys), the
    // first aged to the epoch so eviction order is unambiguous even on
    // filesystems with coarse timestamps.
    let src_a = fil_designs::shift::source(8, 4);
    let src_b = fil_designs::shift::source(16, 4);
    let cache = temp_cache("gc");
    let a = build(&src_a, &opts(1, &cache)).unwrap();
    let names_a = artifact_names(&cache);
    assert!(a.stats.cache_stores >= 2);
    for name in &names_a {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(cache.join(name))
            .unwrap();
        f.set_modified(std::time::SystemTime::UNIX_EPOCH).unwrap();
    }
    build(&src_b, &opts(1, &cache)).unwrap();
    let names_b: Vec<String> = artifact_names(&cache)
        .into_iter()
        .filter(|n| !names_a.contains(n))
        .collect();
    assert!(!names_b.is_empty(), "second build stored new artifacts");
    let fresh_bytes: u64 = names_b
        .iter()
        .map(|n| std::fs::metadata(cache.join(n)).unwrap().len())
        .sum();

    // A warm rebuild under a budget that only fits the fresh set must
    // evict exactly the aged artifacts.
    let limited = BuildOptions {
        cache_limit: Some(fresh_bytes),
        ..opts(1, &cache)
    };
    let gc = build(&src_b, &limited).unwrap();
    assert_eq!(gc.stats.cache_loads, gc.stats.units, "still fully warm");
    assert_eq!(
        gc.stats.session_cache_evictions,
        names_a.len() as u64,
        "every aged artifact evicted, nothing else"
    );
    assert_eq!(artifact_names(&cache), names_b, "fresh set survives intact");

    // The evicted design rebuilds cleanly from source.
    let again = build(&src_a, &limited).unwrap();
    assert_eq!(again.stats.cache_loads, 0, "its artifacts are gone");
    assert_eq!(
        filament_core::pretty::print_program(&again.expanded),
        filament_core::pretty::print_program(&a.expanded),
        "eviction never changes build output"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn cache_limit_keeps_recently_used_artifacts() {
    // A hit refreshes recency: after warming design A, an aged design B
    // is the eviction victim even though it was written later.
    let src_a = fil_designs::shift::source(8, 4);
    let src_b = fil_designs::shift::source(16, 4);
    let cache = temp_cache("gc-lru");
    build(&src_a, &opts(1, &cache)).unwrap();
    let names_a = artifact_names(&cache);
    build(&src_b, &opts(1, &cache)).unwrap();
    // Age everything, then re-warm only A: the loads' LRU touch must
    // bring A's artifacts back to "recent".
    for name in artifact_names(&cache) {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(cache.join(&name))
            .unwrap();
        f.set_modified(std::time::SystemTime::UNIX_EPOCH).unwrap();
    }
    let warm = build(&src_a, &opts(1, &cache)).unwrap();
    assert_eq!(warm.stats.cache_loads, warm.stats.units);
    let a_bytes: u64 = names_a
        .iter()
        .map(|n| std::fs::metadata(cache.join(n)).unwrap().len())
        .sum();
    let limited = BuildOptions {
        cache_limit: Some(a_bytes),
        ..opts(1, &cache)
    };
    let gc = build(&src_a, &limited).unwrap();
    assert!(
        gc.stats.session_cache_evictions > 0,
        "over budget: B must go"
    );
    assert_eq!(artifact_names(&cache), names_a, "used artifacts survive");
    let _ = std::fs::remove_dir_all(&cache);
}
