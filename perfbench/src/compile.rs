//! The `compile-cold` workload: one thread builds a seeded stream of
//! programs through `fil_stdlib::build` (none answered by a cache) and
//! checks every build by simulation, untimed.

use crate::layers::Layers;
use crate::programs::{self, Prog, Stream};
use crate::util::{ms, peak_rss_mb, Calibration, Digest, Metrics, Rng, Tally};
use crate::Args;
use fil_build::{BuildOutput, BuildRequest};
use fil_harness::InterfaceSpec;
use fil_trace::Lane;
use std::time::{Duration, Instant};

/// Programs whose cells `netlist_cells` counts and whose sources and
/// stimuli the digest covers: 25 full family rounds (600 generator
/// programs) plus 1800 fuzz programs, enough that the count varies little
/// between seeds. Every run builds at least these.
const PREFIX: usize = 2400;
/// Transactions each build is checked with.
const CHECK_TXNS: usize = 4;
/// Programs the traced run pushes through every layer.
const TRACED: usize = 120;
/// Of those, programs also sent through a daemon.
const TRACED_SERVED: usize = 16;

/// Parses the standard library and validates its externs once (both are
/// per-process memos), so the first timed build pays neither.
pub fn warm_up() -> Result<(), String> {
    let tiny = "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
        a := new Add[8]<G>(x, x);
        o = a.out;
    }";
    fil_stdlib::build(
        &BuildRequest::new(tiny)
            .netlist("Main")
            .verilog()
            .opt_level(2),
    )
    .map(drop)
    .map_err(|e| e.to_string())
}

/// The interface of a build's top component.
pub fn spec_of(prog: &Prog, out: &BuildOutput) -> Result<InterfaceSpec, String> {
    let sig = out
        .expanded
        .as_ref()
        .and_then(|p| p.sig(&prog.top))
        .ok_or_else(|| format!("{}: no signature in the expanded program", prog.top))?;
    InterfaceSpec::from_signature(sig).map_err(|e| e.to_string())
}

/// Runs a few random transactions of a finished build through `Sim` and
/// compares them with the program's model.
fn check_build(
    prog: &Prog,
    out: &BuildOutput,
    rng: &mut Rng,
    corrupt: bool,
    digest: Option<&mut Digest>,
) -> Result<(), String> {
    let netlist = out.netlist.as_ref().ok_or("no netlist")?;
    if out.verilog.as_ref().is_none_or(String::is_empty) {
        return Err(format!("{}: no Verilog", prog.top));
    }
    let spec = spec_of(prog, out)?;
    let inputs = programs::random_inputs(&spec, CHECK_TXNS, rng);
    if let Some(d) = digest {
        programs::digest_inputs(d, &inputs);
    }
    let mut want = programs::expected(prog, &spec, &inputs)?;
    if corrupt {
        programs::corrupt(&mut want);
    }
    let got = fil_harness::run_pipelined(netlist, &spec, &inputs).map_err(|e| e.to_string())?;
    programs::compare(&prog.top, &got, &want)
}

pub fn run(args: &Args, t0: Instant) -> Result<(Tally, Metrics), String> {
    warm_up()?;
    let mut stream = Stream::new(args.seed);
    let mut rng = Rng::new(args.seed ^ 0x57);
    let setup_s = crate::setup_time(t0);

    let mut digest = Digest::new();
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut raw = Vec::new();
    let mut cal = Calibration::new();
    let mut cells = 0u64;
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    while latencies.len() < PREFIX || start.elapsed() < window {
        let prog = stream.next_prog();
        let req = prog.request();
        cal.sample();
        let t = Instant::now();
        let built = fil_stdlib::build(&req);
        let dt = t.elapsed();
        let out = match built {
            Ok(out) => out,
            Err(e) => {
                tally.fail(&format!("{}: {e}", prog.top));
                continue;
            }
        };
        let n = latencies.len();
        raw.push(ms(dt));
        latencies.push(ms(dt) * cal.scale());
        if out.netlist_from_cache {
            tally.fail(&format!("{}: answered by the netlist cache", prog.top));
            continue;
        }
        let digest = (n < PREFIX).then_some(&mut digest);
        if let Some(d) = digest {
            d.bytes(prog.source.as_bytes());
            cells += out.netlist.as_ref().map_or(0, |n| n.cells().len() as u64);
            tally.check(check_build(
                &prog,
                &out,
                &mut rng,
                args.selftest && n == 0,
                Some(d),
            ));
        } else {
            tally.check(check_build(&prog, &out, &mut rng, false, None));
        }
    }
    println!("inputs_digest = {}", digest.hex());
    let rss = peak_rss_mb(std::process::id());
    let mut m = Metrics::default();
    m.put("setup_s", crate::setup_median(args, setup_s), "s");
    crate::put_latency(&mut m, &latencies, &raw);
    // Programs per second of build time.
    let per_s = |v: &[f64]| v.len() as f64 * 1e3 / v.iter().sum::<f64>();
    println!("raw throughput_per_s = {}", per_s(&raw));
    m.put("throughput_per_s", per_s(&latencies), "1/s");
    m.put("peak_rss_mb", rss, "MB");
    m.put("netlist_cells", cells as f64, "cells");
    Ok((tally, m))
}

/// The fused build of `prog`, untraced and timed, then the same program
/// through each layer in turn, then the wire codec on its request and
/// reply.
pub fn trace_compile(
    layers: &mut Layers,
    lane: &Lane<'_>,
    prog: &Prog,
) -> Result<BuildOutput, String> {
    let req = prog.request();
    let t = Instant::now();
    let out = fil_stdlib::build(&req).map_err(|e| format!("{}: {e}", prog.top))?;
    layers.untraced += t.elapsed();
    layers.trace_build(lane, &prog.source, &prog.top)?;
    layers.trace_wire(&req, &out)?;
    Ok(out)
}

/// Every layer on `progs`: compile layers, then simulation layers on the
/// checking transactions (checked against each program's model).
pub fn trace_programs(
    args: &Args,
    progs: &[Prog],
    layers: &mut Layers,
    lane: &Lane<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut rng = Rng::new(args.seed ^ 0x7ace);
    for prog in progs {
        let out = trace_compile(layers, lane, prog)?;
        let netlist = out.netlist.as_ref().ok_or("no netlist")?;
        let spec = spec_of(prog, &out)?;
        let inputs = programs::random_inputs(&spec, CHECK_TXNS, &mut rng);
        let want = programs::expected(prog, &spec, &inputs)?;
        let got = layers.trace_sim(lane, netlist, &spec, &inputs)?;
        tally.check(programs::compare(&prog.top, &got, &want));
    }
    Ok(())
}

pub fn run_traced(args: &Args, layers: &mut Layers, lane: &Lane<'_>) -> Result<Tally, String> {
    warm_up()?;
    let mut stream = Stream::new(args.seed);
    let progs: Vec<Prog> = (0..TRACED).map(|_| stream.next_prog()).collect();
    let mut digest = Digest::new();
    for p in &progs {
        digest.bytes(p.source.as_bytes());
    }
    println!("inputs_digest = {}", digest.hex());
    let mut tally = Tally::default();
    trace_programs(args, &progs, layers, lane, &mut tally)?;
    crate::serve::serve_pass(&progs[..TRACED_SERVED], layers, lane, &mut tally)?;
    Ok(tally)
}
