//! The `filament` command-line compiler driver.
//!
//! Mirrors the workflow the paper describes: type-check Filament sources
//! (against the standard library), print a component's harness-facing
//! interface ("The harness extracts the availability intervals and the
//! event delays using a simple command-line flag provided to the
//! compiler", Section 7.1), lower to Calyx/Verilog, simulate, or reformat.
//!
//! ```text
//! filament check <file.fil>
//! filament expand <file.fil>                  # monomorphized program on stdout
//! filament expand --stats <file.fil>          # elaboration statistics as JSON
//! filament interface <file.fil> <component>
//! filament compile <file.fil> <component>     # emits Verilog on stdout
//! filament build <file.fil> [--cache-dir D] [--cache-limit S] [--jobs N] [-O N] [--stats]
//! filament sim <file.fil> <component> [--cycles N] [--vcd F] [--profile] [-O N]
//! filament fmt <file.fil>
//! filament serve --socket PATH [--jobs N] [--cache-dir D] [--timeout SECS]
//! filament serve --stop --socket PATH
//! filament build <file.fil> --remote PATH     # build on a running daemon
//! filament fuzz [--seed N] [--cases K] [--replay FILE] [--selftest]
//! ```
//!
//! `build` is the incremental driver: it expands, checks, and lowers every
//! component as an independent compile unit over a worker pool, reusing
//! per-unit artifacts from `--cache-dir` across sessions (a warm cache
//! does zero expand/check/lower work), and emits deterministic
//! whole-program Verilog. `expand` accepts the same `--cache-dir`/`--jobs`
//! flags, and with `--stats` reports the session-cache load/miss/store
//! counters alongside the elaboration numbers.
//!
//! `sim` compiles a component and runs it with deterministic pseudo-random
//! stimulus (one transaction every `delay` cycles, per the component's
//! timeline signature): `--vcd` dumps an IEEE 1364 waveform of the
//! top-level ports, `--profile` prints the simulator's hot-path profile
//! (settle and tick counts, evals by cell kind).
//!
//! `fuzz` runs the generative differential fuzzer: seeded random
//! parametric programs through the multi-stage oracle (fmt fixpoint,
//! build determinism, artifact cache, serve daemon, interpreter-vs-Sim
//! lockstep, BatchSim, `-O2` vs `-O0`), shrinking any violation to a
//! minimal `.fil` repro. `--replay FILE` re-checks a saved repro,
//! `--selftest` proves an injected oracle violation is caught and shrunk.
//!
//! `serve` starts the compile-farm daemon on a unix socket: it keeps the
//! parsed stdlib, the artifact cache, the elaborated-netlist cache, and a
//! memo of completed builds hot in one process, collapses concurrent
//! identical requests into a single build, and answers warm repeats in
//! microseconds. `filament build --remote PATH` sends the build to a
//! daemon (falling back to a local build if the socket is dead).
//!
//! `--trace FILE` (expand/build/sim) records every driver phase as a span
//! and writes a Chrome `trace_event` JSON timeline — load it at
//! <https://ui.perfetto.dev> or `chrome://tracing`. `--trace-summary`
//! prints a per-phase wall-time table to stderr instead.

use std::process::ExitCode;
use std::sync::Arc;

use fil_build::fil_trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: filament <check|expand|interface|compile|build|sim|fmt> <file.fil> [component]\n\
         \x20      filament serve --socket PATH [--jobs N] [--cache-dir DIR] [--timeout SECS]\n\
         \x20      filament fuzz [--seed N] [--cases K] [--replay FILE] [--selftest]\n\
         \n\
         check      parse and type-check (standard library preloaded)\n\
         expand     elaborate generators (param arithmetic, for-loops,\n\
                    derived params, monomorphization) and print the\n\
                    concrete program; with --stats, print elaboration\n\
                    statistics as JSON instead\n\
         interface  print a component's timing interface for the harness\n\
         compile    lower a component and emit structural Verilog\n\
         build      incremental whole-program build: per-component units,\n\
                    parallel (--jobs N), cached across sessions\n\
                    (--cache-dir DIR); emits Verilog, or counters with\n\
                    --stats\n\
         sim        compile one component and simulate it with pipelined\n\
                    pseudo-random stimulus from its timeline signature\n\
         fmt        pretty-print the program\n\
         serve      run the compile-farm daemon on a unix socket; stop a\n\
                    running daemon with `serve --stop --socket PATH`\n\
         fuzz       generate random parametric programs and cross-check\n\
                    every toolchain stage against a reference interpreter,\n\
                    shrinking violations to minimal .fil repros\n\
         \n\
         options (expand/build/sim): --jobs N --cache-dir DIR\n\
                    --cache-limit SIZE   evict least-recently-used artifacts\n\
                    once the cache exceeds SIZE bytes (k/m/g suffixes)\n\
                    --trace FILE         write a Chrome trace_event JSON\n\
                    timeline of the compile phases (open in Perfetto)\n\
                    --trace-summary      print per-phase wall times to stderr\n\
         options (build/sim): -O LEVEL / --opt-level LEVEL   netlist\n\
                    optimizer: 0 = off (byte-stable legacy output), 1 =\n\
                    const-fold + strength + forward + dead-cell, 2 = 1 +\n\
                    CSE. build defaults to 0, sim to 1; -O0/-O1/-O2 are\n\
                    accepted shorthands\n\
         options (expand/build): --stats\n\
         options (build): --remote PATH       build on the daemon at PATH,\n\
                    falling back to a local build if it is unreachable\n\
         options (serve): --timeout SECS      exit after SECS idle seconds\n\
         options (sim): --cycles N (default 64) --vcd FILE --profile\n\
         options (fuzz): --seed N --cases K (default 100) --txns N\n\
                    --replay FILE        re-check a saved repro (reads its\n\
                    recorded case seed; --seed overrides)\n\
                    --selftest           inject an interpreter bug and\n\
                    require it to be caught and shrunk\n\
                    --out-dir DIR        write shrunk repros here\n\
                    --cache-every N / --daemon-every N   run the artifact\n\
                    cache / serve-daemon stages every Nth case"
    );
    ExitCode::from(2)
}

/// The `--stats` JSON payload (hand-rendered: every field is a number or a
/// flat object of numbers, and the benchmark's result line follows the
/// same no-serde style). The first seven fields are the elaboration counters
/// `expand --stats` has always reported; the `units_*` / `session_cache_*`
/// block is the build driver's session accounting (loads are artifacts
/// reused from `--cache-dir`, skipping expand/check/lower entirely);
/// `phase_us` is per-phase wall time in microseconds, summed across
/// workers.
fn stats_json(stats: &fil_build::BuildStats) -> String {
    let pass_pairs: Vec<String> = fil_build::fil_opt::PASSES
        .iter()
        .zip(&stats.opt.pass_rewrites)
        .map(|(pass, n)| format!("\"{pass}\": {n}"))
        .collect();
    format!(
        "{{\n  \"components_monomorphized\": {},\n  \"cache_hits\": {},\n  \
         \"loops_unrolled\": {},\n  \"ifs_resolved\": {},\n  \
         \"bundles_flattened\": {},\n  \"derivations_evaluated\": {},\n  \
         \"commands_emitted\": {},\n  \"units\": {},\n  \
         \"units_expanded\": {},\n  \"units_checked\": {},\n  \
         \"units_lowered\": {},\n  \"session_cache_loads\": {},\n  \
         \"session_cache_misses\": {},\n  \"session_cache_stores\": {},\n  \
         \"session_cache_evictions\": {},\n  \
         \"opt_level\": {},\n  \"opt_iterations\": {},\n  \
         \"opt_cells_before\": {},\n  \"opt_cells_after\": {},\n  \
         \"opt_pass_rewrites\": {{{}}},\n  \
         \"phase_us\": {{\"parse\": {}, \"cache_load\": {}, \"expand\": {}, \
         \"check\": {}, \"lower\": {}, \"opt\": {}, \"merge\": {}}}\n}}",
        stats.mono.cache_misses,
        stats.mono.cache_hits,
        stats.mono.loops_unrolled,
        stats.mono.ifs_resolved,
        stats.mono.bundles_flattened,
        stats.mono.derivations_evaluated,
        stats.mono.commands_emitted,
        stats.units,
        stats.expanded,
        stats.checked,
        stats.lowered,
        stats.cache_loads,
        stats.cache_misses,
        stats.cache_stores,
        stats.session_cache_evictions,
        stats.opt.level,
        stats.opt.iterations,
        stats.opt.cells_before,
        stats.opt.cells_after,
        pass_pairs.join(", "),
        stats.phase.parse_us,
        stats.phase.cache_load_us,
        stats.phase.expand_us,
        stats.phase.check_us,
        stats.phase.lower_us,
        stats.phase.opt_us,
        stats.phase.merge_us,
    )
}

fn load(path: &str) -> Result<filament_core::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let out = fil_stdlib::build(&fil_build::BuildRequest::new(src)).map_err(|e| e.to_string())?;
    Ok(out.expanded.expect("expanded is requested by default"))
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `"512k"` → 524288.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, unit) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(unit)
}

/// Everything pulled out of the flag arguments, leaving positionals in
/// `args`.
struct Flags {
    opts: fil_build::BuildOptions,
    want_stats: bool,
    /// `--trace FILE`: write a Chrome trace_event timeline here.
    trace: Option<String>,
    /// `--trace-summary`: per-phase wall-time table on stderr.
    trace_summary: bool,
    /// `sim --vcd FILE`.
    vcd: Option<String>,
    /// `sim --profile`.
    profile: bool,
    /// `sim --cycles N`.
    cycles: u64,
    /// `-O N` / `--opt-level N`: netlist optimizer level. `None` takes
    /// the command default (0 for `build`, 1 for `sim`).
    opt_level: Option<u8>,
    /// `serve --socket PATH`: the daemon's unix socket.
    socket: Option<String>,
    /// `serve --timeout SECS`: idle shutdown.
    timeout: Option<u64>,
    /// `serve --stop`: shut down a running daemon instead of starting one.
    stop: bool,
    /// `build --remote PATH`: run the build on the daemon at PATH.
    remote: Option<String>,
    /// `fuzz --seed N`.
    seed: Option<u64>,
    /// `fuzz --cases K`.
    cases: Option<usize>,
    /// `fuzz --txns N`: transactions per generated program.
    txns: Option<usize>,
    /// `fuzz --replay FILE`.
    replay: Option<String>,
    /// `fuzz --selftest`.
    selftest: bool,
    /// `fuzz --out-dir DIR`.
    out_dir: Option<String>,
    /// `fuzz --cache-every N`.
    cache_every: Option<usize>,
    /// `fuzz --daemon-every N`.
    daemon_every: Option<usize>,
}

impl Flags {
    /// The [`fil_build::BuildRequest`] for `source` carrying this
    /// invocation's resource flags (wanted outputs are the caller's
    /// business). `default_opt` is the command's optimizer default when
    /// no `-O`/`--opt-level` was given: 0 for `build` (byte-stable
    /// legacy Verilog), 1 for `sim` (the netlist only feeds the
    /// simulator, so optimizing is pure win).
    fn request(&self, source: String, default_opt: u8) -> fil_build::BuildRequest {
        let mut req = fil_build::BuildRequest::new(source);
        req.options = fil_build::BuildOptions {
            opt_level: self.opt_level.unwrap_or(default_opt),
            ..self.opts.clone()
        };
        req
    }
}

/// Pulls every `--flag` out of the argument list, returning the parsed
/// flags; positional arguments stay in `args`.
fn parse_flags(args: &mut Vec<String>) -> Result<Flags, String> {
    let mut flags = Flags {
        opts: fil_build::BuildOptions::default(),
        want_stats: false,
        trace: None,
        trace_summary: false,
        vcd: None,
        profile: false,
        cycles: 64,
        opt_level: None,
        socket: None,
        timeout: None,
        stop: false,
        remote: None,
        seed: None,
        cases: None,
        txns: None,
        replay: None,
        selftest: false,
        out_dir: None,
        cache_every: None,
        daemon_every: None,
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => flags.want_stats = true,
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                flags.opts.jobs = v.parse().map_err(|_| format!("--jobs: bad number {v:?}"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory")?;
                flags.opts.cache_dir = Some(std::path::PathBuf::from(v));
            }
            "--cache-limit" => {
                let v = it.next().ok_or("--cache-limit needs a size")?;
                flags.opts.cache_limit =
                    Some(parse_size(&v).ok_or_else(|| format!("--cache-limit: bad size {v:?}"))?);
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                flags.trace = Some(v);
            }
            "--trace-summary" => flags.trace_summary = true,
            "--vcd" => {
                let v = it.next().ok_or("--vcd needs a file path")?;
                flags.vcd = Some(v);
            }
            "--profile" => flags.profile = true,
            "-O" | "--opt-level" => {
                let v = it.next().ok_or("--opt-level needs 0, 1, or 2")?;
                let n: u8 = v
                    .parse()
                    .map_err(|_| format!("--opt-level: bad level {v:?}"))?;
                if n > 2 {
                    return Err(format!("--opt-level: bad level {n} (max 2)"));
                }
                flags.opt_level = Some(n);
            }
            // gcc-style attached shorthands.
            "-O0" => flags.opt_level = Some(0),
            "-O1" => flags.opt_level = Some(1),
            "-O2" => flags.opt_level = Some(2),
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a number")?;
                flags.cycles = v
                    .parse()
                    .map_err(|_| format!("--cycles: bad number {v:?}"))?;
            }
            "--socket" => {
                let v = it.next().ok_or("--socket needs a path")?;
                flags.socket = Some(v);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                flags.timeout = Some(
                    v.parse()
                        .map_err(|_| format!("--timeout: bad number {v:?}"))?,
                );
            }
            "--stop" => flags.stop = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                flags.seed = Some(v.parse().map_err(|_| format!("--seed: bad number {v:?}"))?);
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a number")?;
                flags.cases = Some(
                    v.parse()
                        .map_err(|_| format!("--cases: bad number {v:?}"))?,
                );
            }
            "--txns" => {
                let v = it.next().ok_or("--txns needs a number")?;
                flags.txns = Some(v.parse().map_err(|_| format!("--txns: bad number {v:?}"))?);
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a file path")?;
                flags.replay = Some(v);
            }
            "--selftest" => flags.selftest = true,
            "--out-dir" => {
                let v = it.next().ok_or("--out-dir needs a directory")?;
                flags.out_dir = Some(v);
            }
            "--cache-every" => {
                let v = it.next().ok_or("--cache-every needs a number")?;
                flags.cache_every = Some(
                    v.parse()
                        .map_err(|_| format!("--cache-every: bad number {v:?}"))?,
                );
            }
            "--daemon-every" => {
                let v = it.next().ok_or("--daemon-every needs a number")?;
                flags.daemon_every = Some(
                    v.parse()
                        .map_err(|_| format!("--daemon-every: bad number {v:?}"))?,
                );
            }
            "--remote" => {
                let v = it.next().ok_or("--remote needs a socket path")?;
                flags.remote = Some(v);
            }
            _ => rest.push(a),
        }
    }
    drop(it);
    *args = rest;
    Ok(flags)
}

/// Compiles `<file> <comp>` and simulates it with pipelined deterministic
/// stimulus: a fresh pseudo-random transaction is launched every `delay`
/// cycles (the initiation interval from the component's timeline
/// signature), with the interface `go` pulsed on launch cycles.
fn run_sim(file: &str, comp: &str, flags: &Flags) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match fil_stdlib::build(&flags.request(src, 1).netlist(comp)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let netlist = out.netlist.expect("netlist was requested");
    let expanded = out.expanded.expect("expanded is requested by default");
    let Some(sig) = expanded.sig(comp) else {
        eprintln!("error: unknown component {comp}");
        return ExitCode::FAILURE;
    };
    let spec = match fil_harness::InterfaceSpec::from_signature(sig) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sim = match rtl_sim::Sim::new(&netlist) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.profile {
        sim.enable_profile();
    }
    let port = |name: &str| {
        netlist
            .signal_by_name(name)
            .unwrap_or_else(|| panic!("lowered netlist lost port {name}"))
    };
    let mut vcd = flags.vcd.as_ref().map(|_| {
        let mut w = rtl_sim::VcdWriter::new();
        if let Some(go) = &spec.go {
            w.watch(go.clone(), port(go), 1);
        }
        for p in spec.inputs.iter().chain(&spec.outputs) {
            w.watch(p.name.clone(), port(&p.name), p.width);
        }
        w
    });
    let delay = spec.delay.max(1);
    // splitmix64: deterministic stimulus, stable across platforms.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let sim_start = flags.opts.trace.as_ref().map(|c| c.now_us());
    let timer = std::time::Instant::now();
    for cycle in 0..flags.cycles {
        let launch = cycle % delay == 0;
        if let Some(go) = &spec.go {
            sim.poke(port(go), fil_bits::Value::from_u64(1, launch as u64));
        }
        if launch {
            for p in &spec.inputs {
                let mask = if p.width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << p.width) - 1
                };
                sim.poke(
                    port(&p.name),
                    fil_bits::Value::from_u64(p.width, next() & mask),
                );
            }
        }
        if let Err(e) = sim.settle() {
            eprintln!("error: cycle {cycle}: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(w) = &mut vcd {
            w.sample(&sim);
        }
        if let Err(e) = sim.tick() {
            eprintln!("error: cycle {cycle}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let sim_us = timer.elapsed().as_micros() as u64;
    if let (Some(c), Some(start)) = (&flags.opts.trace, sim_start) {
        c.lane(0, "main").complete(
            "sim",
            "run",
            start,
            sim_us,
            vec![("cycles", fil_trace::Arg::from(flags.cycles))],
        );
    }
    if let (Some(path), Some(w)) = (&flags.vcd, vcd) {
        if let Err(e) = std::fs::write(path, w.finish()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "simulated {} for {} cycles ({} transactions, delay {})",
        comp,
        flags.cycles,
        flags.cycles.div_ceil(delay),
        delay
    );
    let level = flags.opt_level.unwrap_or(1);
    if out.stats.opt.cells_before > 0 {
        eprintln!(
            "netlist: {} cells at -O{level} (optimizer: {} -> {} cells, {} rewrites)",
            netlist.cells().len(),
            out.stats.opt.cells_before,
            out.stats.opt.cells_after,
            out.stats.opt.rewrites(),
        );
    } else {
        // -O0, or every unit replayed from the artifact cache (already
        // stored in optimized form).
        eprintln!("netlist: {} cells at -O{level}", netlist.cells().len());
    }
    if flags.profile {
        if let Some(report) = sim.profile() {
            print!("{}", report.render());
        }
    }
    ExitCode::SUCCESS
}

/// `filament build --remote PATH`: run the build on the daemon at `sock`.
/// `Some(code)` finishes the command; `None` means the daemon was
/// unreachable and the caller should build locally.
#[cfg(unix)]
fn try_remote_build(
    sock: &str,
    req: &fil_build::BuildRequest,
    want_stats: bool,
) -> Option<ExitCode> {
    match fil_stdlib::serve::request_build(std::path::Path::new(sock), req) {
        Ok(remote) => {
            if want_stats {
                println!("{}", stats_json(&remote.output.stats));
            } else {
                print!("{}", remote.output.verilog.expect("verilog was requested"));
            }
            Some(ExitCode::SUCCESS)
        }
        // No daemon there: fall back to building locally.
        Err(fil_stdlib::serve::ClientError::Connect(e)) => {
            eprintln!("warning: daemon at {sock} unreachable ({e}); building locally");
            None
        }
        Err(e) => {
            eprintln!("error: {e}");
            Some(ExitCode::FAILURE)
        }
    }
}

#[cfg(not(unix))]
fn try_remote_build(
    _sock: &str,
    _req: &fil_build::BuildRequest,
    _want_stats: bool,
) -> Option<ExitCode> {
    eprintln!("error: --remote needs unix sockets");
    Some(ExitCode::FAILURE)
}

/// `filament serve`: run (or, with `--stop`, shut down) the compile-farm
/// daemon.
#[cfg(unix)]
fn run_serve(flags: &Flags) -> ExitCode {
    let Some(socket) = &flags.socket else {
        eprintln!("error: serve needs --socket PATH");
        return ExitCode::from(2);
    };
    let socket = std::path::PathBuf::from(socket);
    if flags.stop {
        return match fil_stdlib::serve::stop(&socket) {
            Ok(()) => {
                eprintln!("stopped daemon at {}", socket.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = fil_stdlib::serve::ServeOptions {
        socket,
        jobs: flags.opts.jobs,
        cache_dir: flags.opts.cache_dir.clone(),
        cache_limit: flags.opts.cache_limit,
        idle_timeout: flags.timeout.map(std::time::Duration::from_secs),
    };
    match fil_stdlib::serve::Server::bind(opts) {
        Ok(server) => {
            eprintln!("serving on {}", server.socket().display());
            match server.run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn run_serve(_flags: &Flags) -> ExitCode {
    eprintln!("error: `filament serve` needs unix sockets");
    ExitCode::FAILURE
}

/// An in-process `filament serve` daemon for the fuzz campaign's daemon
/// cross-check stage, shut down on drop.
#[cfg(unix)]
struct FuzzDaemon {
    socket: std::path::PathBuf,
    thread: Option<std::thread::JoinHandle<()>>,
}

#[cfg(unix)]
impl FuzzDaemon {
    fn start() -> Result<Self, String> {
        let socket = std::env::temp_dir().join(format!("filfz-{}.sock", std::process::id()));
        let server = fil_stdlib::serve::Server::bind(fil_stdlib::serve::ServeOptions {
            socket: socket.clone(),
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        for _ in 0..300 {
            if fil_stdlib::serve::ping(&socket).is_ok() {
                return Ok(FuzzDaemon {
                    socket,
                    thread: Some(thread),
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Err("daemon did not come up within 3s".to_string())
    }
}

#[cfg(unix)]
impl Drop for FuzzDaemon {
    fn drop(&mut self) {
        let _ = fil_stdlib::serve::stop(&self.socket);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The case seed recorded in a repro file's header
/// (`// ... case seed 123 ...`).
fn repro_seed(source: &str) -> Option<u64> {
    for line in source.lines().take_while(|l| l.starts_with("//")) {
        if let Some(rest) = line.split("case seed ").nth(1) {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = digits.parse() {
                return Some(n);
            }
        }
    }
    None
}

/// `filament fuzz`: campaign, `--replay`, or `--selftest`.
fn run_fuzz_cmd(flags: &Flags) -> ExitCode {
    use fil_harness::fuzz;

    let mut cfg = fuzz::FuzzConfig::default();
    if let Some(s) = flags.seed {
        cfg.seed = s;
    }
    if let Some(c) = flags.cases {
        cfg.cases = c;
    }
    if let Some(t) = flags.txns {
        cfg.txns = t;
    }
    cfg.cache_every = flags.cache_every.unwrap_or(0);
    cfg.out_dir = flags.out_dir.as_ref().map(std::path::PathBuf::from);

    if let Some(path) = &flags.replay {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let seed = flags.seed.or_else(|| repro_seed(&src)).unwrap_or(cfg.seed);
        return match fuzz::run::replay(&src, seed, cfg.txns) {
            Ok(()) => {
                println!("replay ok: {path} passes every oracle stage (seed {seed})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("replay: {path} still fails: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if flags.selftest {
        match fuzz::run::mutation_selftest(&cfg) {
            Ok(r) => {
                println!(
                    "selftest ok: injected Add bug caught at case {} (seed {}), \
                     shrunk {} -> {} bytes",
                    r.case, r.seed, r.original_bytes, r.shrunk_bytes
                );
            }
            Err(e) => {
                eprintln!("selftest FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        return match fuzz::run::opt_fold_selftest(&cfg) {
            Ok(r) => {
                println!(
                    "selftest ok: injected bad fold caught at case {} (seed {}), \
                     shrunk {} -> {} bytes",
                    r.case, r.seed, r.original_bytes, r.shrunk_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("opt selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // An in-process daemon backs the serve cross-check stage when asked.
    #[cfg(unix)]
    let mut _daemon = None;
    if let Some(every) = flags.daemon_every {
        #[cfg(unix)]
        {
            match FuzzDaemon::start() {
                Ok(d) => {
                    cfg.daemon = Some(d.socket.clone());
                    cfg.daemon_every = every;
                    _daemon = Some(d);
                }
                Err(e) => {
                    eprintln!("error: cannot start fuzz daemon: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        #[cfg(not(unix))]
        {
            let _ = every;
            eprintln!("error: --daemon-every needs unix sockets");
            return ExitCode::FAILURE;
        }
    }

    match fuzz::run_fuzz(&cfg) {
        Ok(stats) => {
            println!(
                "fuzz ok: {} cases clean (seed {}, {} txns/case, {} cache checks, \
                 {} daemon checks)",
                stats.cases, cfg.seed, cfg.txns, stats.cache_checks, stats.daemon_checks
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("fuzz FAILURE: {failure}");
            eprintln!("--- shrunk repro ---\n{}", failure.shrunk);
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, file: &str, args: &[String], flags: &Flags) -> ExitCode {
    // `fmt` is parse-only by design: it must reformat any syntactically
    // valid program, including parametric generators whose elaboration
    // would fail (that is `check`'s job).
    if cmd == "fmt" {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match filament_core::parse_program(&src) {
            Ok(user) => {
                print!("{}", filament_core::pretty::print_program(&user));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "sim" {
        let Some(comp) = args.get(2) else {
            return usage();
        };
        return run_sim(file, comp, flags);
    }
    // `expand` and `build` run through the build driver (per-component
    // units, session cache, worker pool). `expand` renders through the
    // shared helper — the same text the golden-corpus snapshots pin down.
    if cmd == "expand" || cmd == "build" {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if cmd == "expand" {
            return match fil_stdlib::build(&flags.request(src, 0)) {
                Ok(out) => {
                    if flags.want_stats {
                        println!("{}", stats_json(&out.stats));
                    } else {
                        print!(
                            "{}",
                            out.expanded_text.expect("expanded is requested by default")
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        // Verilog/stats only: skip materializing the expanded program.
        // `build` defaults to -O0: the golden corpus pins its bytes.
        let req = flags.request(src, 0).expanded(false).verilog();
        if let Some(sock) = &flags.remote {
            if let Some(code) = try_remote_build(sock, &req, flags.want_stats) {
                return code;
            }
        }
        return match fil_stdlib::build(&req) {
            Ok(out) => {
                if flags.want_stats {
                    println!("{}", stats_json(&out.stats));
                } else {
                    print!("{}", out.verilog.expect("verilog was requested"));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let program = match load(file) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "check" => match filament_core::check_program(&program) {
            Ok(()) => {
                println!("ok: {file} is well-typed");
                ExitCode::SUCCESS
            }
            Err(errors) => {
                for e in errors {
                    eprintln!("error: {e}");
                }
                ExitCode::FAILURE
            }
        },
        "interface" => {
            let Some(comp) = args.get(2) else {
                return usage();
            };
            let Some(sig) = program.sig(comp) else {
                eprintln!("error: unknown component {comp}");
                return ExitCode::FAILURE;
            };
            match fil_harness::InterfaceSpec::from_signature(sig) {
                Ok(spec) => {
                    println!("component {comp}:");
                    println!("  initiation interval (delay): {}", spec.delay);
                    if let Some(go) = &spec.go {
                        println!("  interface port: {go}");
                    }
                    for p in &spec.inputs {
                        println!(
                            "  input  {:<12} width {:<4} @[G+{}, G+{})",
                            p.name, p.width, p.start, p.end
                        );
                    }
                    for p in &spec.outputs {
                        println!(
                            "  output {:<12} width {:<4} @[G+{}, G+{})",
                            p.name, p.width, p.start, p.end
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "compile" => {
            let Some(comp) = args.get(2) else {
                return usage();
            };
            if let Err(errors) = filament_core::check_program(&program) {
                for e in errors {
                    eprintln!("error: {e}");
                }
                return ExitCode::FAILURE;
            }
            match filament_core::lower_program(&program, comp, &fil_stdlib::StdRegistry) {
                Ok(calyx) => {
                    print!("{}", calyx_lite::emit_program(&calyx));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = match parse_flags(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.first().map(String::as_str) == Some("fuzz") {
        if args.len() > 1
            || flags.want_stats
            || flags.trace.is_some()
            || flags.vcd.is_some()
            || flags.opt_level.is_some()
        {
            eprintln!(
                "error: fuzz takes only --seed/--cases/--txns/--replay/--selftest\
                 /--out-dir/--cache-every/--daemon-every"
            );
            return usage();
        }
        return run_fuzz_cmd(&flags);
    }
    let fuzz_flags = flags.seed.is_some()
        || flags.cases.is_some()
        || flags.txns.is_some()
        || flags.replay.is_some()
        || flags.selftest
        || flags.out_dir.is_some()
        || flags.cache_every.is_some()
        || flags.daemon_every.is_some();
    if fuzz_flags {
        eprintln!(
            "error: --seed/--cases/--txns/--replay/--selftest/--out-dir/--cache-every\
             /--daemon-every are only meaningful with `filament fuzz`"
        );
        return usage();
    }
    if args.first().map(String::as_str) == Some("serve") {
        if flags.want_stats
            || flags.trace.is_some()
            || flags.trace_summary
            || flags.vcd.is_some()
            || flags.profile
            || flags.remote.is_some()
            || flags.opt_level.is_some()
            || args.len() > 1
        {
            eprintln!("error: serve takes only --socket/--jobs/--cache-dir/--cache-limit/--timeout/--stop");
            return usage();
        }
        return run_serve(&flags);
    }
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) => (c.as_str().to_string(), f.as_str().to_string()),
        _ => return usage(),
    };
    let cmd = cmd.as_str();
    let driver_cmd = cmd == "expand" || cmd == "build" || cmd == "sim";
    if flags.want_stats && (cmd != "expand" && cmd != "build") {
        eprintln!("error: --stats is only meaningful with `filament expand` or `filament build`");
        return usage();
    }
    if (flags.opts.jobs != fil_build::BuildOptions::default().jobs
        || flags.opts.cache_dir.is_some()
        || flags.opts.cache_limit.is_some()
        || flags.trace.is_some()
        || flags.trace_summary)
        && !driver_cmd
    {
        eprintln!(
            "error: --jobs/--cache-dir/--cache-limit/--trace are only meaningful \
             with `filament expand`, `filament build`, or `filament sim`"
        );
        return usage();
    }
    if (flags.vcd.is_some() || flags.profile) && cmd != "sim" {
        eprintln!("error: --vcd/--profile are only meaningful with `filament sim`");
        return usage();
    }
    if flags.opt_level.is_some() && cmd != "build" && cmd != "sim" {
        eprintln!(
            "error: -O/--opt-level is only meaningful with `filament build` or `filament sim`"
        );
        return usage();
    }
    if flags.remote.is_some() && cmd != "build" {
        eprintln!("error: --remote is only meaningful with `filament build`");
        return usage();
    }
    if flags.socket.is_some() || flags.timeout.is_some() || flags.stop {
        eprintln!("error: --socket/--timeout/--stop are only meaningful with `filament serve`");
        return usage();
    }
    let collector = (flags.trace.is_some() || flags.trace_summary)
        .then(|| Arc::new(fil_trace::Collector::new()));
    if let Some(c) = &collector {
        flags.opts.trace = Some(c.clone());
    }
    let code = run(cmd, &file, &args, &flags);
    if let Some(c) = collector {
        if flags.trace_summary {
            eprint!("{}", c.summary());
        }
        if let Some(path) = &flags.trace {
            if let Err(e) = std::fs::write(path, c.chrome_json()) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}
