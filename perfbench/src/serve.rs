//! The `serve-mix` workload and the daemon plumbing every traced run uses.
//!
//! The daemon is this benchmark's own executable re-run as
//! `--serve-daemon <socket> <cache-dir>`, which serves exactly as
//! `filament serve --jobs 1 --cache-dir <cache-dir>` does (same
//! `fil_stdlib::serve::Server`), in its own process: the client's local
//! reference builds can never warm its caches, and its peak RSS is its own.

use crate::layers::Layers;
use crate::programs::{Prog, Stream};
use crate::util::{ms, peak_rss_mb, Calibration, Digest, Metrics, Rng, Scratch, Tally};
use crate::Args;
use fil_build::{BuildOutput, BuildRequest};
use fil_stdlib::serve::{self, ServeOptions, Server};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Programs prewarmed in the daemon before the timed window.
const WARM: usize = 32;
/// The warm programs are the first [`WARM`] of this fixed stream, the
/// same for every seed: which programs are warm sets the reply sizes
/// every memo round trip pays for, so a seeded warm set would spread the
/// latency figures over seeds. The seed drives the request mix and the
/// never-seen programs (small `fuzz::gen` programs: with the generator
/// families among them, the daemon's peak RSS followed the largest
/// program a seed happened to draw).
const WARM_STREAM: u64 = 0x5e7e;
/// Requests of the traced run's fixed mix.
const TRACED_REQUESTS: usize = 600;

/// Entry point of the `--serve-daemon` mode.
pub fn daemon_main(socket: &str, cache: &str) -> ExitCode {
    let server = match Server::bind(ServeOptions {
        socket: PathBuf::from(socket),
        jobs: 1,
        cache_dir: Some(PathBuf::from(cache)),
        // A safety net: a daemon whose client died exits on its own.
        idle_timeout: Some(Duration::from_secs(60)),
        ..Default::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: bind {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon process; stopped (and waited for) on drop.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    pub fn spawn(dir: &Path) -> Result<Daemon, String> {
        let socket = dir.join("d.sock");
        let cache = dir.join("cache");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("--serve-daemon")
            .arg(&socket)
            .arg(&cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        let start = Instant::now();
        while serve::ping(&daemon.socket).is_err() {
            if start.elapsed() > Duration::from_secs(20) {
                return Err("daemon never answered a ping".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Adds the daemon's request counters to the serve-layer metrics.
    fn record_stats(&self, layers: &mut Layers) -> Result<(), String> {
        let stats = serve::server_stats(&self.socket).map_err(|e| e.to_string())?;
        let stat = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        layers.requests += stat("requests");
        layers.memo_hits += stat("memo_hits");
        layers.coalesced += stat("coalesced");
        layers.builds_run += stat("builds_run");
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if serve::stop(&self.socket).is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// The four request shapes: 0 is the Verilog request repeated for warm
/// programs; 1–3 ask the same program for another output (netlist, or the
/// expanded text switched on).
fn variant(prog: &Prog, v: usize) -> BuildRequest {
    let r = BuildRequest::new(prog.source.clone()).opt_level(2);
    match v {
        0 => r.expanded(false).verilog(),
        1 => r.expanded(false).netlist(&prog.top),
        2 => r.verilog(),
        _ => r.netlist(&prog.top),
    }
}

/// The byte-comparable rendering of a reply's outputs.
#[derive(PartialEq, Eq, Clone, Default)]
struct Rendered {
    verilog: Option<String>,
    expanded: Option<String>,
    netlist: Option<Vec<u8>>,
}

fn render(out: &BuildOutput) -> Rendered {
    Rendered {
        verilog: out.verilog.clone(),
        expanded: out.expanded_text.clone(),
        netlist: out.netlist.as_ref().map(|n| {
            let mut bytes = Vec::new();
            calyx_lite::encode_netlist(n, &mut bytes);
            bytes
        }),
    }
}

fn local(req: &BuildRequest) -> Result<BuildOutput, String> {
    fil_stdlib::build(req).map_err(|e| e.to_string())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Memo,
    Warm,
    Cold,
}

struct Setup {
    _scratch: Scratch,
    daemon: Daemon,
    warm: Vec<Prog>,
    refs: Vec<Vec<Rendered>>,
    cells: u64,
    stream: Mutex<Stream>,
}

fn warm_programs() -> Vec<Prog> {
    let mut stream = Stream::new(WARM_STREAM);
    (0..WARM).map(|_| stream.next_prog()).collect()
}

fn setup(args: &Args, digest: &mut Digest) -> Result<Setup, String> {
    let warm = warm_programs();
    let mut stream = Stream::new(args.seed);
    stream.exclude(&warm);
    digest_mix(args, &warm, digest);
    // Expected replies, built locally in this process (the daemon's
    // caches live in another process).
    let mut refs = Vec::with_capacity(WARM);
    let mut cells = 0u64;
    for p in &warm {
        let outs: Vec<BuildOutput> = (0..4)
            .map(|v| local(&variant(p, v)))
            .collect::<Result<_, _>>()?;
        cells += outs[1]
            .netlist
            .as_ref()
            .map_or(0, |n| n.cells().len() as u64);
        refs.push(outs.iter().map(render).collect::<Vec<_>>());
    }
    if args.selftest {
        if let Some(v) = refs[0][0].verilog.as_mut() {
            v.push(' ');
        }
    }
    let scratch = Scratch::new("serve");
    let daemon = Daemon::spawn(&scratch.0)?;
    for p in &warm {
        serve::request_build(&daemon.socket, &variant(p, 0))
            .map_err(|e| format!("prewarm: {e}"))?;
    }
    Ok(Setup {
        _scratch: scratch,
        daemon,
        warm,
        refs,
        cells,
        stream: Mutex::new(stream),
    })
}

/// The next request of a client: its class, the warm program's index and
/// the request variant.
fn pick(rng: &mut Rng) -> (Class, usize, usize) {
    let r = rng.below(100);
    if r < 80 {
        (Class::Memo, rng.below(WARM as u64) as usize, 0)
    } else if r < 95 {
        let i = rng.below(WARM as u64) as usize;
        (Class::Warm, i, 1 + rng.below(3) as usize)
    } else {
        (Class::Cold, 0, 0)
    }
}

fn draw(rng: &mut Rng, s: &Setup) -> (Class, Prog, usize, Option<usize>) {
    match pick(rng) {
        (Class::Cold, _, _) => {
            let p = s.stream.lock().expect("stream lock").next_fuzz();
            (Class::Cold, p, 0, None)
        }
        (class, i, v) => (class, s.warm[i].clone(), v, Some(i)),
    }
}

fn client_seed(args: &Args, client: u64) -> u64 {
    args.seed ^ (0xc1 + client)
}

/// Digest of the generated inputs: the warm programs, each client's first
/// draws, and the first never-seen programs.
fn digest_mix(args: &Args, warm: &[Prog], digest: &mut Digest) {
    for p in warm {
        digest.bytes(p.source.as_bytes());
    }
    for c in 0..2 {
        let mut rng = Rng::new(client_seed(args, c));
        for _ in 0..1000 {
            let (class, i, v) = pick(&mut rng);
            digest.u64(class as u64 * 10_000 + i as u64 * 10 + v as u64);
        }
    }
    let mut cold = Stream::new(args.seed);
    cold.exclude(warm);
    for _ in 0..16 {
        digest.bytes(cold.next_fuzz().source.as_bytes());
    }
}

/// Seconds from process start to the end of set-up (`--setup-only`).
pub fn setup_only(args: &Args, t0: Instant) -> Result<f64, String> {
    let s = setup(args, &mut Digest::new())?;
    let secs = crate::setup_time(t0);
    drop(s);
    Ok(secs)
}

struct ClientLog {
    /// Round trips at the reference host speed, and as measured.
    rtts: Vec<f64>,
    raw: Vec<f64>,
    tally: Tally,
    cold: Vec<(Prog, Rendered)>,
}

/// One client's closed loop. Each client publishes its latest host-speed
/// multiplier in `speed[me]`; round trips are scaled by the mean over
/// both clients, since the daemon's work runs on either vCPU.
fn client(s: &Setup, seed: u64, deadline: Instant, speed: &[AtomicU64; 2], me: usize) -> ClientLog {
    let mut rng = Rng::new(seed);
    let mut cal = Calibration::new();
    let mut log = ClientLog {
        rtts: Vec::new(),
        raw: Vec::new(),
        tally: Tally::default(),
        cold: Vec::new(),
    };
    while Instant::now() < deadline {
        let (_, prog, v, warm) = draw(&mut rng, s);
        let req = variant(&prog, v);
        cal.sample();
        speed[me].store(cal.scale().to_bits(), Ordering::Relaxed);
        let t = Instant::now();
        let reply = serve::request_build(&s.daemon.socket, &req);
        let rtt = ms(t.elapsed());
        match reply {
            Ok(r) => {
                log.raw.push(rtt);
                let scale = speed
                    .iter()
                    .map(|a| f64::from_bits(a.load(Ordering::Relaxed)))
                    .sum::<f64>()
                    / 2.0;
                log.rtts.push(rtt * scale);
                let got = render(&r.output);
                match warm {
                    Some(i) if got == s.refs[i][v] => log.tally.ok(),
                    Some(_) => log
                        .tally
                        .fail(&format!("{}: reply differs from the local build", prog.top)),
                    None => log.cold.push((prog, got)),
                }
            }
            Err(e) => log.tally.fail(&format!("{}: {e}", prog.top)),
        }
    }
    log
}

pub fn run(args: &Args, t0: Instant) -> Result<(Tally, Metrics), String> {
    let mut digest = Digest::new();
    let s = setup(args, &mut digest)?;
    let setup_s = crate::setup_time(t0);
    println!("inputs_digest = {}", digest.hex());
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let one = Calibration::new().scale().to_bits();
    let speed = [AtomicU64::new(one), AtomicU64::new(one)];
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let s = &s;
                let speed = &speed;
                scope.spawn(move || client(s, client_seed(args, c), deadline, speed, c as usize))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb(s.daemon.pid());
    let cells = s.cells;
    let mut tally = Tally::default();
    let mut rtts = Vec::new();
    let mut raw = Vec::new();
    let mut cold = Vec::new();
    for log in logs {
        tally.absorb(log.tally);
        rtts.extend(log.rtts);
        raw.extend(log.raw);
        cold.extend(log.cold);
    }
    drop(s);
    // Never-seen programs are checked after the window, against local
    // builds the daemon cannot see.
    for (prog, got) in cold {
        match local(&variant(&prog, 0)) {
            Ok(out) if render(&out) == got => tally.ok(),
            Ok(_) => tally.fail(&format!(
                "{}: cold reply differs from the local build",
                prog.top
            )),
            Err(e) => tally.fail(&e),
        }
    }
    let mut m = Metrics::default();
    m.put("setup_s", crate::setup_median(args, setup_s), "s");
    crate::put_latency(&mut m, &rtts, &raw);
    // Completed requests per second of the window, with the window scaled
    // by the mean slow-down the round trips saw.
    let per_s = rtts.len() as f64 / window;
    println!("raw throughput_per_s = {per_s}");
    m.put(
        "throughput_per_s",
        per_s * raw.iter().sum::<f64>() / rtts.iter().sum::<f64>(),
        "1/s",
    );
    m.put("peak_rss_mb", rss, "MB");
    m.put("netlist_cells", cells as f64, "cells");
    Ok((tally, m))
}

/// The traced `serve-mix`: a fixed, single-client request mix timed per
/// class, then the warm programs through every layer.
pub fn run_traced(
    args: &Args,
    layers: &mut Layers,
    lane: &fil_trace::Lane<'_>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    // The warm programs through every layer first, while no cache of this
    // process has seen them.
    let warm = warm_programs();
    crate::compile::trace_programs(args, &warm, layers, lane, &mut tally)?;
    let mut digest = Digest::new();
    let s = setup(args, &mut digest)?;
    println!("inputs_digest = {}", digest.hex());
    let mut rng = Rng::new(client_seed(args, 0));
    for _ in 0..TRACED_REQUESTS {
        let (class, prog, v, warm) = draw(&mut rng, &s);
        let req = variant(&prog, v);
        let t = Instant::now();
        let reply = {
            let _s = lane.span("serve", "request_build");
            serve::request_build(&s.daemon.socket, &req).map_err(|e| e.to_string())?
        };
        let rtt = ms(t.elapsed());
        record_reply(layers, class, rtt, &reply.output);
        let got = render(&reply.output);
        let expected = match warm {
            Some(i) => s.refs[i][v].clone(),
            None => render(&local(&req)?),
        };
        tally.check(if got == expected {
            Ok(())
        } else {
            Err(format!("{}: reply differs from the local build", prog.top))
        });
    }
    s.daemon.record_stats(layers)?;
    Ok(tally)
}

fn record_reply(layers: &mut Layers, class: Class, rtt: f64, out: &BuildOutput) {
    match class {
        Class::Memo => layers.rtt_memo.push(rtt),
        Class::Warm => layers.rtt_warm.push(rtt),
        Class::Cold => layers.rtt_cold.push(rtt),
    }
    layers.cache_loads += out.stats.cache_loads;
    layers.cache_stores += out.stats.cache_stores;
    layers.cache_load_us += out.stats.phase.cache_load_us;
    if out.netlist.is_some() {
        layers.netlist_replies += 1;
        layers.netlist_from_cache += u64::from(out.netlist_from_cache);
    }
}

/// The serve layer on another workload's programs (its traced run): each
/// program cold, then repeated (memo), then asked for its netlist with
/// the expanded text on (a memo miss served from the warm caches).
pub fn serve_pass(
    progs: &[Prog],
    layers: &mut Layers,
    lane: &fil_trace::Lane<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    let scratch = Scratch::new("serve-pass");
    let daemon = Daemon::spawn(&scratch.0)?;
    for p in progs {
        for (class, v) in [(Class::Cold, 0), (Class::Memo, 0), (Class::Warm, 3)] {
            let req = variant(p, v);
            let t = Instant::now();
            let reply = {
                let _s = lane.span("serve", "request_build");
                serve::request_build(&daemon.socket, &req).map_err(|e| e.to_string())?
            };
            record_reply(layers, class, ms(t.elapsed()), &reply.output);
            let want = render(&local(&req)?);
            tally.check(if render(&reply.output) == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: daemon reply differs from the local build",
                    p.top
                ))
            });
        }
    }
    daemon.record_stats(layers)?;
    drop(daemon);
    drop(scratch);
    Ok(())
}
