//! Schema gates for the structured build tracer (`--trace`): the Chrome
//! `trace_event` JSON the driver emits must validate (proper nesting per
//! lane), carry **one `"X"` span per compile unit per executed phase**
//! whose counts reconcile exactly with the driver's own `BuildStats`,
//! and attribute worker spans to named builder lanes. A warm rebuild
//! must trade its expand/check/lower spans for `cache-load` spans. The
//! CLI-level test drives the installed `filament` binary end to end and
//! also pins the `--stats` JSON contract: the `phase_us` wall-time
//! object and the `session_cache_evictions` key (its pre-rename
//! `cache_evictions` alias is gone).

use fil_build::{fil_trace, BuildRequest};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fil-trace-schema-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `"X"` spans with the given name (counters and metadata events carry
/// names too, but phase names never collide with them).
fn spans_named(json: &str, name: &str) -> u64 {
    json.matches(&format!("\"name\":\"{name}\"")).count() as u64
}

/// The `thread_name` of every lane that recorded an `"X"` span; panics
/// on a span lane with no name.
fn lane_names(json: &str) -> Vec<String> {
    use fil_trace::json::{parse, Json};
    let doc = parse(json).expect("trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    let tid = |e: &Json| e.get("tid").and_then(Json::as_u64).expect("tid");
    let mut named = std::collections::BTreeMap::new();
    for e in events {
        if field(e, "ph").as_deref() == Some("M")
            && field(e, "name").as_deref() == Some("thread_name")
        {
            let name = e
                .get("args")
                .and_then(|a| field(a, "name"))
                .expect("lane name");
            named.insert(tid(e), name);
        }
    }
    let span_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| field(e, "ph").as_deref() == Some("X"))
        .map(tid)
        .collect();
    span_tids
        .into_iter()
        .map(|t| {
            named
                .get(&t)
                .unwrap_or_else(|| panic!("lane {t} has spans but no thread_name"))
                .clone()
        })
        .collect()
}

fn traced_build(src: &str, jobs: usize, cache: &Path) -> (fil_build::BuildOutput, String) {
    let collector = Arc::new(fil_trace::Collector::new());
    let req = BuildRequest::new(src)
        .jobs(jobs)
        .cache_dir(cache)
        .lowered()
        .trace(collector.clone());
    let out = fil_stdlib::build(&req).expect("build failed");
    (out, collector.chrome_json())
}

#[test]
fn trace_spans_reconcile_with_build_stats() {
    let src = fil_designs::systolic::source(8, 32);
    let cache = temp_dir("systolic");

    // Cold build: every unit is expanded, checked, and lowered from
    // source, and each of those phase executions leaves exactly one span.
    let (cold, json) = traced_build(&src, 2, &cache);
    let stats = fil_trace::validate_chrome_trace(&json).expect("invalid Chrome trace");
    assert!(stats.spans > 0 && stats.events >= stats.spans);
    assert!(cold.stats.expanded > 0, "cold build must do real work");
    assert_eq!(spans_named(&json, "parse"), 1, "one stdlib+source parse");
    assert_eq!(spans_named(&json, "merge"), 1, "one serial merge");
    assert_eq!(spans_named(&json, "expand"), cold.stats.expanded);
    assert_eq!(spans_named(&json, "check"), cold.stats.checked);
    assert_eq!(spans_named(&json, "lower"), cold.stats.lowered);
    assert_eq!(spans_named(&json, "cache-load"), cold.stats.cache_loads);
    // Worker spans land on named builder lanes; serial phases on main.
    // Which builder lanes run depends on scheduling, so every lane that
    // recorded a span must be named, and some builder lane must exist.
    let lanes = lane_names(&json);
    assert!(
        lanes.contains(&"main".to_string()),
        "main lane metadata missing"
    );
    assert!(
        lanes.iter().any(|n| n
            .strip_prefix("builder-")
            .is_some_and(|w| w.parse::<u32>().is_ok())),
        "builder lane metadata missing: {lanes:?}"
    );
    // The artifact-cache counter track samples every probe.
    assert!(stats.counters as u64 >= cold.stats.cache_misses);

    // Warm rebuild from the same cache: zero compile-phase spans, one
    // cache-load span per unit instead.
    let (warm, json) = traced_build(&src, 2, &cache);
    fil_trace::validate_chrome_trace(&json).expect("invalid warm-run trace");
    assert!(warm.stats.cache_loads > 0, "warm build must hit the cache");
    assert_eq!(warm.stats.expanded, 0);
    assert_eq!(spans_named(&json, "expand"), 0);
    assert_eq!(spans_named(&json, "check"), 0);
    assert_eq!(spans_named(&json, "lower"), 0);
    assert_eq!(spans_named(&json, "cache-load"), warm.stats.cache_loads);

    let _ = std::fs::remove_dir_all(&cache);
}

/// `filament build --trace out.json --stats` end to end on the golden
/// corpus entry named by the PR's acceptance criteria.
#[test]
fn filament_build_trace_cli_roundtrip() {
    let out_dir = temp_dir("cli");
    std::fs::create_dir_all(&out_dir).unwrap();
    let trace_path = out_dir.join("build_trace.json");
    let cache = out_dir.join("cache");

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_filament"))
        .args([
            "build",
            "tests/golden/systolic-8.expanded.fil",
            "-j",
            "2",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .expect("failed to spawn filament");
    assert!(
        output.status.success(),
        "filament build failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let json = std::fs::read_to_string(&trace_path).expect("--trace wrote no file");
    let stats = fil_trace::validate_chrome_trace(&json).expect("invalid Chrome trace");
    assert!(stats.spans > 0);
    for phase in ["expand", "check", "lower", "merge"] {
        assert!(
            spans_named(&json, phase) > 0,
            "no {phase} span in CLI trace"
        );
    }

    // The --stats JSON line: per-phase wall times plus the renamed
    // eviction counter. Its deprecated `cache_evictions` alias was
    // dropped after one release.
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The stats object is pretty-printed after the build's own output;
    // the quoted keys below cannot appear in emitted Verilog.
    let stats_line = &stdout[stdout.find('{').expect("--stats emitted no JSON")..];
    for key in [
        "\"phase_us\"",
        "\"parse\"",
        "\"expand\"",
        "\"check\"",
        "\"lower\"",
        "\"opt\"",
        "\"merge\"",
        "\"session_cache_evictions\"",
        "\"opt_level\"",
        "\"opt_iterations\"",
        "\"opt_cells_before\"",
        "\"opt_cells_after\"",
        "\"opt_pass_rewrites\"",
    ] {
        assert!(
            stats_line.contains(key),
            "--stats JSON missing {key}: {stats_line}"
        );
    }
    assert!(
        !stats_line.contains("\"cache_evictions\""),
        "removed alias resurfaced: {stats_line}"
    );
    // `build` defaults to -O0, so the stats report level 0 and the trace
    // has no optimizer spans.
    assert!(stats_line.contains("\"opt_level\": 0"), "{stats_line}");
    assert_eq!(spans_named(&json, "opt:const-fold"), 0);

    let _ = std::fs::remove_dir_all(&out_dir);
}

/// A cold `-O2` build leaves one span per optimizer pass per optimized
/// unit, and the stats JSON carries the per-pass rewrite counters.
#[test]
fn opt_passes_leave_trace_spans() {
    let src = fil_designs::systolic::source(4, 16);
    let collector = Arc::new(fil_trace::Collector::new());
    let req = BuildRequest::new(src)
        .lowered()
        .opt_level(2)
        .trace(collector.clone());
    let out = fil_stdlib::build(&req).expect("build failed");
    let json = collector.chrome_json();
    fil_trace::validate_chrome_trace(&json).expect("invalid Chrome trace");
    assert!(out.stats.opt.cells_before > 0, "optimizer saw no cells");
    let optimized_units = out.stats.lowered;
    for pass in fil_build::fil_opt::PASSES {
        assert_eq!(
            spans_named(&json, &format!("opt:{pass}")),
            optimized_units,
            "one {pass} span per optimized unit"
        );
    }
}

/// The lanes (`tid`s) of every `"X"` span with the given name.
fn span_lanes(json: &str, name: &str) -> Vec<u64> {
    use fil_trace::json::{parse, Json};
    let doc = parse(json).expect("trace is JSON");
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| {
            field(e, "ph").as_deref() == Some("X") && field(e, "name").as_deref() == Some(name)
        })
        .map(|e| e.get("tid").and_then(Json::as_u64).expect("tid"))
        .collect()
}

/// Elaboration and Verilog emission each leave one span on the main lane
/// (tid 0) when their output is requested, and none when it is not.
#[test]
fn backend_steps_leave_main_lane_spans() {
    let src = fil_designs::systolic::source(2, 8);
    let traced = |req: BuildRequest| {
        let collector = Arc::new(fil_trace::Collector::new());
        fil_stdlib::build(&req.trace(collector.clone())).expect("build failed");
        let json = collector.chrome_json();
        fil_trace::validate_chrome_trace(&json).expect("invalid Chrome trace");
        json
    };
    let top = fil_designs::systolic::top_name(2);
    let json = traced(BuildRequest::new(src.as_str()).netlist(top).verilog());
    assert_eq!(span_lanes(&json, "elaborate"), vec![0]);
    assert_eq!(span_lanes(&json, "verilog"), vec![0]);
    assert!(lane_names(&json).contains(&"main".to_string()));

    let json = traced(BuildRequest::new(src.as_str()).lowered());
    assert_eq!(spans_named(&json, "elaborate"), 0);
    assert_eq!(spans_named(&json, "verilog"), 0);
}
