//! One seeded benchmark for the whole pipeline: source → parse →
//! `mono::expand` → check → `lower` → `fil-opt` → elaborate/Verilog →
//! `rtl-sim`, plus the `fil-build` driver and the `filament serve` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-cold|sim-verify|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` calls each
//! layer's public entry point in sequence on the workload's inputs, writes
//! a Chrome trace to `.perfbench_out/`, and reports per-layer metrics. The
//! last line of standard output is the result object. `--selftest`
//! corrupts one expected value, so the run must report failures.

mod compile;
mod layers;
mod programs;
mod serve;
mod simv;
mod util;

use std::process::{Command, ExitCode};
use std::time::Instant;
use util::{median, quantile, Metrics, Tally};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub selftest: bool,
    setup_only: bool,
}

const WORKLOADS: [&str; 3] = ["compile-cold", "sim-verify", "serve-mix"];
/// Extra cold set-ups, each in a fresh process, behind `setup_s`.
const SETUP_REPEATS: usize = 8;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--selftest" => args.selftest = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Latency percentiles over all operations of a timed window, in ms at
/// the reference host speed (`samples`, see `util::Calibration`); the
/// wall-clock figures (`raw`) are printed alongside.
pub fn put_latency(m: &mut Metrics, samples: &[f64], raw: &[f64]) {
    println!(
        "latency samples = {}; wall-clock p50 {} ms, p99 {} ms",
        samples.len(),
        quantile(raw, 0.50),
        quantile(raw, 0.99)
    );
    m.put("latency_ms_p50", quantile(samples, 0.50), "ms");
    m.put("latency_ms_p99", quantile(samples, 0.99), "ms");
}

/// Seconds from `t0` to now, at the reference host speed (see
/// `util::Calibration`; the loop runs right after the set-up it scales).
pub fn setup_time(t0: Instant) -> f64 {
    let secs = t0.elapsed().as_secs_f64();
    secs * util::Calibration::new().scale()
}

/// The median set-up time over this process's own set-up and at least
/// [`SETUP_REPEATS`] more, each in a fresh process (so every one pays the
/// per-process memos this one paid); cheap set-ups get up to three times
/// as many probes, within 1.5 s.
pub fn setup_median(args: &Args, own: f64) -> f64 {
    let mut samples = vec![own];
    let exe = std::env::current_exe().expect("current executable");
    let start = Instant::now();
    let mut probes = 0;
    while probes < SETUP_REPEATS
        || (probes < 3 * SETUP_REPEATS && start.elapsed().as_secs_f64() < 1.5)
    {
        probes += 1;
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--setup-only",
            ])
            .output()
            .expect("run a set-up probe");
        let text = String::from_utf8_lossy(&out.stdout);
        match text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
        {
            Some(s) if out.status.success() => samples.push(s),
            _ => eprintln!(
                "perfbench: set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    }
    println!("setup samples (s) = {samples:?}");
    median(&samples)
}

fn untraced(args: &Args, t0: Instant) -> Result<(Tally, Metrics), String> {
    match args.workload.as_str() {
        "compile-cold" => compile::run(args, t0),
        "sim-verify" => simv::run(args, t0),
        _ => serve::run(args, t0),
    }
}

fn traced(args: &Args) -> Result<(Tally, Metrics), String> {
    let collector = fil_trace::Collector::new();
    let wall = Instant::now();
    let mut layers = layers::Layers::default();
    let mut tally = {
        let lane = collector.lane(0, "perfbench");
        let tally = match args.workload.as_str() {
            "compile-cold" => compile::run_traced(args, &mut layers, &lane)?,
            "sim-verify" => simv::run_traced(args, &mut layers, &lane)?,
            _ => serve::run_traced(args, &mut layers, &lane)?,
        };
        let _s = lane.span("bench", "roadmap-probes");
        layers::roadmap_probes(&mut layers, args.seed)?;
        tally
    };
    let json = collector.chrome_json();
    match fil_trace::validate_chrome_trace(&json) {
        Ok(stats) => {
            tally.ok();
            let dir = std::path::Path::new(".perfbench_out");
            let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &json))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "trace: {} ({} spans, depth {}), traced run {:.2} s",
                path.display(),
                stats.spans,
                stats.max_depth,
                wall.elapsed().as_secs_f64()
            );
        }
        Err(e) => tally.fail(&format!("Chrome trace fails validation: {e}")),
    }
    layers.print_table(&args.workload);
    let mut m = Metrics::default();
    layers.report(&mut m);
    Ok((tally, m))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, socket, cache] = argv.as_slice() {
        if mode == "--serve-daemon" {
            return serve::daemon_main(socket, cache);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let secs = match args.workload.as_str() {
            "compile-cold" => compile::warm_up().map(|()| setup_time(t0)),
            "sim-verify" => simv::setup_only(&args, t0),
            _ => serve::setup_only(&args, t0),
        };
        return match secs {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args, t0)
    };
    match result {
        Ok((tally, metrics)) => {
            util::print_result(&tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
