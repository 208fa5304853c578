//! Criterion-free compile-time probe for the `fil-build` driver, printing
//! one JSON object — the compile-side companion of `sim_speed`, recorded
//! per PR in `BENCH_*.json` and gated in CI.
//!
//! ```text
//! cargo run --release -p fil-bench --bin compile_time
//! {"corpus_units": 47, "corpus_cold_ms": ..., "corpus_warm_ms": ...,
//!  "corpus_speedup": ..., "sweep": [{"design": "systolic-8", ...}, ...]}
//! ```
//!
//! * **corpus_{cold,warm}_ms** — wall time to full-build (expand + check +
//!   lower + Verilog-ready merge) every design in
//!   [`fil_bench::design_corpus`] through one shared artifact cache: cold
//!   from an empty directory, warm immediately after. The warm pass must
//!   do zero expand/check/lower work (asserted via the driver counters).
//!   These builds run at `-O0`, so `phase_us` has no `opt` entry.
//! * **corpus_o2_{cold,warm}_ms** / **phase_us_o2** — the same corpus
//!   pass at `-O2`, whose phase split adds the optimizer (`opt`).
//! * **sweep** — per-design cold/warm times for the parametric
//!   `Systolic[N, 32]` and `Enc[N]` families at growing N, where the
//!   check/lower work the warm cache skips grows with the design.
//! * **daemon_{cold,warm}_ms** — round-trip times through an in-process
//!   `filament serve` daemon for `Systolic[8, 32]`: cold runs the build,
//!   warm is an identical request served from the completion memo (no
//!   expand/check/lower, no re-elaboration). `null` on non-unix hosts.
//!
//! Parsing (source text → AST) is outside the timers: the cache skips
//! compilation, not reading sources.

use fil_build::{build_program, BuildOptions, BuildRequest, DriverOutput, PhaseTimes};
use filament_core::Program;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fil-compile-time-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache: &Path, opt_level: u8) -> BuildOptions {
    BuildOptions {
        opt_level,
        jobs: 1, // the corpus DAGs are small chains: thread spawns cost more than they buy
        cache_dir: Some(cache.to_path_buf()),
        salt: "reticle".into(),
        // Verilog-only: `filament build` does not materialize the
        // expanded program.
        emit_expanded: false,
        ..BuildOptions::default()
    }
}

fn with_std_raw(src: &str) -> Program {
    fil_stdlib::build(&BuildRequest::new(src).raw().expanded(false))
        .expect("parses")
        .raw
        .expect("raw was requested")
}

fn build(program: &Program, o: &BuildOptions) -> DriverOutput {
    build_program(program, &reticle::ReticleRegistry, o).expect("corpus builds")
}

/// Cold + warm wall times over a set of pre-parsed programs sharing one
/// cache directory, with the warm pass asserted to be zero-work. Both
/// sides are best-of-three (cold reps start from a freshly emptied cache)
/// so single-sample scheduler noise doesn't skew the ratio. Also returns
/// the per-phase wall-time breakdown of the fastest cold rep, summed
/// across the programs (same split as `filament build --stats`).
fn cold_warm(tag: &str, programs: &[Program], opt_level: u8) -> (u64, f64, f64, PhaseTimes) {
    let cache = temp_cache(tag);
    let o = opts(&cache, opt_level);
    let mut units = 0;
    let mut cold = f64::INFINITY;
    let mut phase = PhaseTimes::default();
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&cache);
        let start = Instant::now();
        units = 0;
        let mut rep_phase = PhaseTimes::default();
        for p in programs {
            let out = build(p, &o);
            units += out.stats.units;
            let ph = out.stats.phase;
            rep_phase.expand_us += ph.expand_us;
            rep_phase.check_us += ph.check_us;
            rep_phase.lower_us += ph.lower_us;
            rep_phase.cache_load_us += ph.cache_load_us;
            rep_phase.merge_us += ph.merge_us;
            rep_phase.opt_us += ph.opt_us;
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed < cold {
            cold = elapsed;
            phase = rep_phase;
        }
    }
    let mut warm = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for p in programs {
            let out = build(p, &o);
            assert_eq!(out.stats.expanded, 0, "warm build expanded units");
            assert_eq!(out.stats.checked, 0, "warm build checked units");
            assert_eq!(out.stats.lowered, 0, "warm build lowered units");
        }
        warm = warm.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&cache);
    (units, cold, warm, phase)
}

/// Round-trips `Systolic[8, 32]` through an in-process `filament serve`
/// daemon: cold (the daemon runs the build), then warm repeats of the
/// identical request, which must come straight off the completion memo —
/// zero expand/check/lower work. The timed request asks for Verilog so
/// the round trip measures the daemon, not client-side netlist decoding;
/// a separate netlist pair asserts that re-elaboration is skipped via
/// the process-wide cache. Returns the probe's JSON fragment.
#[cfg(unix)]
fn daemon_probe() -> String {
    use fil_stdlib::serve::{self, ServeOptions, Server};
    use std::time::Duration;

    let socket = std::env::temp_dir().join(format!("fil-ct-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let cache = temp_cache("daemon");
    let server = Server::bind(ServeOptions {
        socket: socket.clone(),
        jobs: 1,
        cache_dir: Some(cache.clone()),
        ..Default::default()
    })
    .expect("bind probe daemon");
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..300 {
        if serve::ping(&socket).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let req = BuildRequest::new(fil_designs::systolic::source(8, 32))
        .expanded(false)
        .verilog();
    let start = Instant::now();
    let cold_reply = serve::request_build(&socket, &req).expect("daemon cold build");
    let cold = start.elapsed().as_secs_f64() * 1e3;
    assert!(cold_reply.output.verilog.is_some());

    let mut warm = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let reply = serve::request_build(&socket, &req).expect("daemon warm build");
        warm = warm.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            reply.served,
            fil_build::Served::Memo,
            "warm request must skip the driver"
        );
        assert_eq!(reply.output.verilog, cold_reply.output.verilog);
    }

    // The netlist cache: the first netlist request elaborates, a second
    // request over the same lowered program must not.
    let first =
        serve::request_build(&socket, &req.clone().netlist("Sys8")).expect("daemon netlist build");
    assert!(first.output.netlist.is_some());
    let sibling = serve::request_build(&socket, &req.clone().netlist("Sys8").expanded(true))
        .expect("daemon sibling build");
    assert!(
        sibling.output.netlist_from_cache,
        "sibling request re-elaborated a warm lowered program"
    );

    serve::stop(&socket).expect("stop probe daemon");
    handle.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&cache);
    format!(
        "\"daemon_cold_ms\": {cold:.2}, \"daemon_warm_ms\": {warm:.3}, \
         \"daemon_speedup\": {:.1}",
        cold / warm
    )
}

#[cfg(not(unix))]
fn daemon_probe() -> String {
    "\"daemon_cold_ms\": null, \"daemon_warm_ms\": null, \"daemon_speedup\": null".into()
}

fn main() {
    // Whole corpus through one shared cache.
    let corpus: Vec<Program> = fil_bench::design_corpus()
        .into_iter()
        .map(|(_, src, _)| with_std_raw(&src))
        .collect();
    let (units, cold, warm, phase) = cold_warm("corpus", &corpus, 0);
    let (_, cold_o2, warm_o2, phase_o2) = cold_warm("corpus-o2", &corpus, 2);

    // Parametric N-sweeps: the work a warm cache skips grows with N.
    let mut sweep = Vec::new();
    for n in [2u64, 4, 8] {
        let p = with_std_raw(&fil_designs::systolic::source(n, 32));
        let (u, c, w, _) = cold_warm(&format!("sys{n}"), std::slice::from_ref(&p), 0);
        sweep.push(format!(
            "{{\"design\": \"systolic-{n}\", \"units\": {u}, \"cold_ms\": {c:.2}, \
             \"warm_ms\": {w:.2}, \"speedup\": {:.1}}}",
            c / w
        ));
    }
    for n in [8u64, 16, 32] {
        let p = with_std_raw(&fil_designs::encoder::source(n));
        let (u, c, w, _) = cold_warm(&format!("enc{n}"), std::slice::from_ref(&p), 0);
        sweep.push(format!(
            "{{\"design\": \"encoder-{n}\", \"units\": {u}, \"cold_ms\": {c:.2}, \
             \"warm_ms\": {w:.2}, \"speedup\": {:.1}}}",
            c / w
        ));
    }

    println!(
        "{{\"corpus_units\": {units}, \"corpus_cold_ms\": {cold:.2}, \
         \"corpus_warm_ms\": {warm:.2}, \"corpus_speedup\": {:.1}, \
         \"phase_us\": {{\"expand\": {}, \"check\": {}, \"lower\": {}, \
         \"cache_load\": {}, \"merge\": {}}}, \"corpus_o2_cold_ms\": {cold_o2:.2}, \
         \"corpus_o2_warm_ms\": {warm_o2:.2}, \"phase_us_o2\": {{\"expand\": {}, \
         \"check\": {}, \"lower\": {}, \"opt\": {}, \"cache_load\": {}, \"merge\": {}}}, \
         {}, \"sweep\": [{}]}}",
        cold / warm,
        phase.expand_us,
        phase.check_us,
        phase.lower_us,
        phase.cache_load_us,
        phase.merge_us,
        phase_o2.expand_us,
        phase_o2.check_us,
        phase_o2.lower_us,
        phase_o2.opt_us,
        phase_o2.cache_load_us,
        phase_o2.merge_us,
        daemon_probe(),
        sweep.join(", ")
    );
}
