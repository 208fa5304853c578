//! The traced run's layer-by-layer calls. Instead of the fused entry
//! points, each layer's public function is called in sequence on the same
//! inputs, wrapped in a span recorded on a `fil_trace::Collector` (the
//! program itself records nothing extra), and timed with nanosecond
//! timers for the per-layer metrics.

use crate::util::{geomean, median, ms, ns, Metrics};
use fil_bits::Value;
use fil_build::fil_opt::{optimize_program, OptConfig, PASSES};
use fil_build::{BuildOptions, BuildRequest};
use fil_harness::InterfaceSpec;
use fil_trace::Lane;
use rtl_sim::{BatchSim, Netlist, SignalId, Sim};
use std::time::{Duration, Instant};

/// Lanes of every batched run.
pub const LANES: u32 = 128;

/// Per-layer accumulators for one traced run.
#[derive(Default)]
pub struct Layers {
    // core / opt / calyx, summed over traced builds
    pub builds: u64,
    pub src_bytes: u64,
    pub parse: Duration,
    pub expand: Duration,
    pub expand_components: u64,
    pub expand_commands: u64,
    pub check: Duration,
    pub lower: Duration,
    pub lower_cells: u64,
    pub opt: Duration,
    pub opt_iterations: u64,
    pub opt_cells_before: u64,
    pub opt_cells_after: u64,
    pub opt_rewrites: [u64; 5],
    pub elaborate: Duration,
    pub netlist_signals: u64,
    pub verilog: Duration,
    pub verilog_bytes: u64,
    pub units: u64,
    pub session_hits: u64,
    /// Fused `fil_stdlib::build` time of the same programs, untraced.
    pub untraced: Duration,
    /// Wall time of the traced layer sequence: the layer calls plus the
    /// span bookkeeping around them (the tracing overhead).
    pub traced: Duration,
    // wire codec, client side
    pub wire_ops: u64,
    pub wire_encode: Duration,
    pub wire_decode: Duration,
    // rtl-sim and harness, one entry per simulated design
    pub sim_new_us: Vec<f64>,
    pub settle_ns: Vec<f64>,
    pub tick_ns: Vec<f64>,
    pub harness_self_ns: Vec<f64>,
    pub harness_cycles_per_s: Vec<f64>,
    pub batch_settle_ns: Vec<f64>,
    pub batch_tick_ns: Vec<f64>,
    pub lane_cycles_per_s: Vec<f64>,
    pub sim_time: Duration,
    pub harness_time: Duration,
    pub evals: u64,
    pub settles: u64,
    pub cell_settles: u64,
    pub batch_evals: u64,
    pub batch_settles: u64,
    // serve (filled by `serve::serve_pass`)
    pub rtt_memo: Vec<f64>,
    pub rtt_warm: Vec<f64>,
    pub rtt_cold: Vec<f64>,
    pub requests: u64,
    pub memo_hits: u64,
    pub coalesced: u64,
    pub builds_run: u64,
    pub cache_loads: u64,
    pub cache_stores: u64,
    pub cache_load_us: u64,
    pub netlist_replies: u64,
    pub netlist_from_cache: u64,
    // ROADMAP probes
    pub shard_j2_over_j1: f64,
    pub o2_over_o0: f64,
}

fn per(d: Duration, n: u64) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

impl Layers {
    /// Parse → expand → check → lower → opt → elaborate → Verilog through
    /// each layer's public function.
    pub fn trace_build(&mut self, lane: &Lane<'_>, source: &str, top: &str) -> Result<(), String> {
        let wall = Instant::now();
        let _op = lane.span("bench", "build").arg("top", top);
        let t = Instant::now();
        let raw = {
            let _s = lane.span("core", "parse");
            fil_stdlib::build(&BuildRequest::new(source).raw().expanded(false))
                .map_err(|e| e.to_string())?
                .raw
                .ok_or("parse-only build returned no program")?
        };
        self.parse += t.elapsed();
        let t = Instant::now();
        let out = {
            let _s = lane.span("core", "expand");
            fil_build::expand_program(&raw, &BuildOptions::default()).map_err(|e| e.to_string())?
        };
        self.expand += t.elapsed();
        let t = Instant::now();
        {
            let _s = lane.span("core", "check");
            filament_core::check_program(&out.expanded)
                .map_err(|e| format!("{top} fails to check: {e:?}"))?;
        }
        self.check += t.elapsed();
        let t = Instant::now();
        let mut lowered = {
            let _s = lane.span("core", "lower");
            filament_core::lower_program(&out.expanded, top, &fil_stdlib::StdRegistry)
                .map_err(|e| e.to_string())?
        };
        self.lower += t.elapsed();
        let t = Instant::now();
        let report = {
            let _s = lane.span("opt", "optimize");
            optimize_program(&mut lowered, &OptConfig::level(2))
        };
        self.opt += t.elapsed();
        let t = Instant::now();
        let netlist = {
            let _s = lane.span("calyx", "elaborate");
            lowered.elaborate(top).map_err(|e| e.to_string())?
        };
        self.elaborate += t.elapsed();
        let t = Instant::now();
        let verilog = {
            let _s = lane.span("calyx", "verilog");
            calyx_lite::emit_program(&lowered)
        };
        self.verilog += t.elapsed();
        drop(_op);
        self.traced += wall.elapsed();

        self.builds += 1;
        self.src_bytes += source.len() as u64;
        self.expand_components += out.expanded.components.len() as u64;
        self.expand_commands += out.stats.mono.commands_emitted;
        self.units += out.stats.units;
        self.session_hits += out.stats.session_hits;
        self.lower_cells += report.cells_before;
        self.opt_iterations += report.iterations;
        self.opt_cells_before += report.cells_before;
        self.opt_cells_after += report.cells_after;
        for (sum, pass) in self.opt_rewrites.iter_mut().zip(&report.passes) {
            *sum += pass.rewrites;
        }
        self.netlist_signals += netlist.signals().len() as u64;
        self.verilog_bytes += verilog.len() as u64;
        Ok(())
    }

    /// Times the client-side wire codec on one request and its reply.
    pub fn trace_wire(
        &mut self,
        req: &BuildRequest,
        output: &fil_build::BuildOutput,
    ) -> Result<(), String> {
        use fil_build::request::{decode_output, encode_output, encode_request};
        let mut bytes = Vec::new();
        encode_output(output, &mut bytes);
        let t = Instant::now();
        let mut req_bytes = Vec::new();
        encode_request(req, &mut req_bytes);
        self.wire_encode += t.elapsed();
        let t = Instant::now();
        let decoded = decode_output(&bytes).map_err(|e| e.to_string())?;
        self.wire_decode += t.elapsed();
        std::hint::black_box((req_bytes, decoded));
        self.wire_ops += 1;
        Ok(())
    }

    /// Drives `inputs` through `netlist` four ways: `run_pipelined` (the
    /// harness), the same plan through `Sim` with each call timed, a
    /// profiled `Sim` pass for eval counts, and (when every port fits in
    /// 64 bits) a `LANES`-lane `BatchSim` with the same stream in lane 0.
    /// Returns the harness outputs after checking the direct drive agrees.
    pub fn trace_sim(
        &mut self,
        lane: &Lane<'_>,
        netlist: &Netlist,
        spec: &InterfaceSpec,
        inputs: &[Vec<Value>],
    ) -> Result<Vec<Vec<Value>>, String> {
        let _op = lane
            .span("bench", "simulate")
            .arg("design", spec.name.as_str());
        let t = Instant::now();
        let got = {
            let _s = lane.span("harness", "run_pipelined");
            fil_harness::run_pipelined(netlist, spec, inputs).map_err(|e| e.to_string())?
        };
        let harness = t.elapsed();
        self.harness_time += harness;
        let plan = Plan::new(spec, inputs.len());
        let ports = Ports::resolve(netlist, spec)?;
        let cycles = plan.cycles as f64;

        let (direct, times) = {
            let _s = lane.span("rtl-sim", "drive");
            drive_scalar(netlist, spec, &plan, &ports, inputs)?
        };
        compare_direct(&spec.name, &direct, &got)?;
        let sim_calls = times.new + times.settle + times.tick;
        self.sim_time += sim_calls;
        self.sim_new_us.push(times.new.as_secs_f64() * 1e6);
        self.settle_ns.push(ns(times.settle) / cycles);
        self.tick_ns.push(ns(times.tick) / cycles);
        self.harness_self_ns
            .push((ns(harness) - ns(sim_calls)).max(0.0) / cycles);
        self.harness_cycles_per_s
            .push(cycles / harness.as_secs_f64());

        {
            let _s = lane.span("rtl-sim", "profile");
            let mut sim = Sim::new(netlist).map_err(|e| e.to_string())?;
            sim.enable_profile();
            run_scalar(&mut sim, spec, &plan, &ports, inputs, &mut |_, _| {})?;
            let p = sim.profile().ok_or("profile missing")?;
            self.evals += p.total_evals;
            self.settles += p.settles;
            self.cell_settles += p.settles * netlist.cells().len() as u64;
        }

        let narrow = spec
            .inputs
            .iter()
            .chain(&spec.outputs)
            .all(|p| p.width <= 64);
        if narrow {
            let _s = lane.span("rtl-sim", "batch-drive");
            let lanes_in = lane_inputs(inputs);
            let mut sim = BatchSim::new(netlist, LANES).map_err(|e| e.to_string())?;
            let mut bt = SimTimes::default();
            let lanes_out = drive_batch(&mut sim, spec, &plan, &ports, &lanes_in, Some(&mut bt))?;
            let want0: Vec<Vec<u64>> = got
                .iter()
                .map(|t| t.iter().map(Value::to_u64).collect())
                .collect();
            if lanes_out[0] != want0 {
                return Err(format!(
                    "{}: BatchSim lane 0 disagrees with run_pipelined",
                    spec.name
                ));
            }
            self.batch_settle_ns.push(ns(bt.settle) / cycles);
            self.batch_tick_ns.push(ns(bt.tick) / cycles);
            self.lane_cycles_per_s
                .push(cycles * f64::from(LANES) / (bt.settle + bt.tick + bt.poke).as_secs_f64());
            let mut sim = BatchSim::new(netlist, LANES).map_err(|e| e.to_string())?;
            sim.enable_profile();
            drive_batch(&mut sim, spec, &plan, &ports, &lanes_in, None)?;
            let p = sim.profile().ok_or("batch profile missing")?;
            self.batch_evals += p.total_evals;
            self.batch_settles += p.settles;
        }
        Ok(got)
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn report(&self, m: &mut Metrics) {
        let b = self.builds;
        m.put("core.parse_us", per(self.parse, b), "us");
        m.put(
            "core.parse_mb_per_s",
            self.src_bytes as f64 / self.parse.as_secs_f64().max(1e-9) / 1e6,
            "MB/s",
        );
        m.put("core.expand_us", per(self.expand, b), "us");
        m.put(
            "core.expand_components",
            self.expand_components as f64,
            "count",
        );
        m.put("core.expand_commands", self.expand_commands as f64, "count");
        m.put("core.check_us", per(self.check, b), "us");
        m.put("core.lower_us", per(self.lower, b), "us");
        m.put("core.lower_cells", self.lower_cells as f64, "count");
        m.put("opt.us", per(self.opt, b), "us");
        m.put("opt.iterations", self.opt_iterations as f64, "count");
        m.put("opt.cells_before", self.opt_cells_before as f64, "count");
        m.put("opt.cells_after", self.opt_cells_after as f64, "count");
        for (pass, n) in PASSES.iter().zip(self.opt_rewrites) {
            m.put(format!("opt.rewrites.{pass}"), n as f64, "count");
        }
        m.put("calyx.elaborate_us", per(self.elaborate, b), "us");
        m.put(
            "calyx.netlist_signals",
            self.netlist_signals as f64,
            "count",
        );
        m.put("calyx.verilog_us", per(self.verilog, b), "us");
        m.put("calyx.verilog_bytes", self.verilog_bytes as f64, "bytes");
        m.put("build.units", self.units as f64, "count");
        m.put("build.session_hits", self.session_hits as f64, "count");
        m.put("compile.untraced_us", per(self.untraced, b), "us");
        m.put(
            "compile.unexplained_us",
            per(self.untraced, b) - per(self.layer_sum(), b),
            "us",
        );
        m.put(
            "compile.tracing_overhead_us",
            per(self.traced, b) - per(self.layer_sum(), b),
            "us",
        );
        m.put("build.cache_loads", self.cache_loads as f64, "count");
        m.put("build.cache_stores", self.cache_stores as f64, "count");
        m.put("build.cache_load_us", self.cache_load_us as f64, "us");
        m.put(
            "build.netcache_hit_ratio",
            ratio(self.netlist_from_cache, self.netlist_replies),
            "ratio",
        );
        m.put(
            "build.wire_encode_us",
            per(self.wire_encode, self.wire_ops),
            "us",
        );
        m.put(
            "build.wire_decode_us",
            per(self.wire_decode, self.wire_ops),
            "us",
        );
        m.put(
            "serve.memo_hit_ratio",
            ratio(self.memo_hits, self.requests),
            "ratio",
        );
        m.put("serve.coalesced", self.coalesced as f64, "count");
        m.put("serve.builds_run", self.builds_run as f64, "count");
        m.put("serve.rtt_ms_p50.memo", median(&self.rtt_memo), "ms");
        m.put("serve.rtt_ms_p50.warm", median(&self.rtt_warm), "ms");
        m.put("serve.rtt_ms_p50.cold", median(&self.rtt_cold), "ms");
        m.put("rtl-sim.new_us", geomean(&self.sim_new_us), "us");
        m.put(
            "rtl-sim.settle_ns_per_cycle",
            geomean(&self.settle_ns),
            "ns",
        );
        m.put("rtl-sim.tick_ns_per_cycle", geomean(&self.tick_ns), "ns");
        m.put(
            "rtl-sim.batch_settle_ns_per_cycle",
            geomean(&self.batch_settle_ns),
            "ns",
        );
        m.put(
            "rtl-sim.batch_tick_ns_per_cycle",
            geomean(&self.batch_tick_ns),
            "ns",
        );
        m.put(
            "rtl-sim.evals_per_cycle",
            ratio(self.evals, self.settles),
            "count",
        );
        m.put(
            "rtl-sim.batch_evals_per_cycle",
            ratio(self.batch_evals, self.batch_settles),
            "count",
        );
        m.put(
            "rtl-sim.activity",
            ratio(self.evals, self.cell_settles),
            "ratio",
        );
        m.put(
            "rtl-sim.lane_cycles_per_s",
            geomean(&self.lane_cycles_per_s),
            "cycles/s",
        );
        m.put("rtl-sim.shard_j2_over_j1", self.shard_j2_over_j1, "ratio");
        m.put(
            "harness.self_ns_per_cycle",
            geomean(&self.harness_self_ns),
            "ns",
        );
        m.put(
            "harness.cycles_per_s",
            geomean(&self.harness_cycles_per_s),
            "cycles/s",
        );
        m.put("opt.o2_over_o0_lane_cycles", self.o2_over_o0, "ratio");
    }

    fn layer_sum(&self) -> Duration {
        self.parse
            + self.expand
            + self.check
            + self.lower
            + self.opt
            + self.elaborate
            + self.verilog
    }

    /// Self time per layer, its share of the end-to-end time it belongs
    /// to, and the unexplained remainder.
    pub fn print_table(&self, workload: &str) {
        println!("== {workload}: layer self time (traced run) ==");
        let row = |name: &str, d: Duration, total: Duration| {
            println!(
                "  {name:<28} {:>12.3} ms {:>7.1}%",
                ms(d),
                100.0 * d.as_secs_f64() / total.as_secs_f64().max(1e-12)
            );
        };
        let compile = self.untraced;
        println!(
            "  compile (untraced fil_stdlib::build, {} programs): {:.3} ms",
            self.builds,
            ms(compile)
        );
        for (name, d) in [
            ("core.parse", self.parse),
            ("core.expand", self.expand),
            ("core.check", self.check),
            ("core.lower", self.lower),
            ("opt", self.opt),
            ("calyx.elaborate", self.elaborate),
            ("calyx.verilog", self.verilog),
        ] {
            row(name, d, compile);
        }
        println!(
            "  {:<28} {:>12.3} ms {:>7.1}%",
            "unexplained (driver, merge)",
            ms(compile) - ms(self.layer_sum()),
            100.0 * (1.0 - self.layer_sum().as_secs_f64() / compile.as_secs_f64().max(1e-12))
        );
        println!(
            "  tracing overhead: {:.3} ms (traced wall {:.3} ms - layer sum {:.3} ms)",
            ms(self.traced) - ms(self.layer_sum()),
            ms(self.traced),
            ms(self.layer_sum())
        );
        let harness = self.harness_time;
        println!("  simulate (run_pipelined): {:.3} ms", ms(harness));
        row("rtl-sim (new+settle+tick)", self.sim_time, harness);
        println!(
            "  {:<28} {:>12.3} ms {:>7.1}%",
            "harness self",
            ms(harness) - ms(self.sim_time),
            100.0 * (1.0 - self.sim_time.as_secs_f64() / harness.as_secs_f64().max(1e-12))
        );
    }
}

fn compare_direct(name: &str, direct: &[Vec<Value>], harness: &[Vec<Value>]) -> Result<(), String> {
    if direct != harness {
        return Err(format!(
            "{name}: direct Sim drive disagrees with run_pipelined"
        ));
    }
    Ok(())
}

/// The harness's drive protocol, precomputed: which transaction owns each
/// input port in each cycle, when `go` pulses, and when each output is
/// captured (the first cycle of its window).
pub struct Plan {
    pub cycles: u64,
    owner: Vec<Vec<Option<u32>>>,
    go: Vec<bool>,
    capture: Vec<Vec<(u32, usize)>>,
}

impl Plan {
    pub fn new(spec: &InterfaceSpec, txns: usize) -> Plan {
        let period = spec.delay.max(1);
        let cycles = (txns as u64).saturating_sub(1) * period + spec.horizon() + 1;
        let mut owner = vec![vec![None; spec.inputs.len()]; cycles as usize];
        let mut go = vec![false; cycles as usize];
        let mut capture = vec![Vec::new(); cycles as usize];
        for k in 0..txns as u64 {
            let t0 = k * period;
            go[t0 as usize] = true;
            for (i, p) in spec.inputs.iter().enumerate() {
                for t in t0 + p.start..t0 + p.end {
                    owner[t as usize][i] = Some(k as u32);
                }
            }
            for (j, p) in spec.outputs.iter().enumerate() {
                capture[(t0 + p.start) as usize].push((k as u32, j));
            }
        }
        Plan {
            cycles,
            owner,
            go,
            capture,
        }
    }
}

/// Signal ids of the spec's ports, resolved once.
pub struct Ports {
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    go: Option<SignalId>,
}

impl Ports {
    pub fn resolve(netlist: &Netlist, spec: &InterfaceSpec) -> Result<Ports, String> {
        let find = |name: &str| {
            netlist
                .signal_by_name(name)
                .ok_or_else(|| format!("{}: no port {name}", spec.name))
        };
        Ok(Ports {
            inputs: spec
                .inputs
                .iter()
                .map(|p| find(&p.name))
                .collect::<Result<_, _>>()?,
            outputs: spec
                .outputs
                .iter()
                .map(|p| find(&p.name))
                .collect::<Result<_, _>>()?,
            go: spec.go.as_deref().map(find).transpose()?,
        })
    }
}

fn poison(width: u32) -> Value {
    Value::from_u64(64, 0xa5a5_5a5a_c3c3_3c3c).resize(width)
}

#[derive(Default)]
pub struct SimTimes {
    pub new: Duration,
    pub settle: Duration,
    pub tick: Duration,
    pub poke: Duration,
}

fn run_scalar(
    sim: &mut Sim<'_>,
    spec: &InterfaceSpec,
    plan: &Plan,
    ports: &Ports,
    inputs: &[Vec<Value>],
    observe: &mut dyn FnMut(Duration, Duration),
) -> Result<Vec<Vec<Value>>, String> {
    let mut out = vec![vec![Value::zero(1); spec.outputs.len()]; inputs.len()];
    for t in 0..plan.cycles as usize {
        for (i, &sig) in ports.inputs.iter().enumerate() {
            let v = match plan.owner[t][i] {
                Some(k) => inputs[k as usize][i].clone(),
                None => poison(spec.inputs[i].width),
            };
            sim.poke(sig, v);
        }
        if let Some(go) = ports.go {
            sim.poke(go, Value::from_bool(plan.go[t]));
        }
        let s = Instant::now();
        sim.settle().map_err(|e| e.to_string())?;
        let settle = s.elapsed();
        for &(k, j) in &plan.capture[t] {
            out[k as usize][j] = sim.peek(ports.outputs[j]).clone();
        }
        let s = Instant::now();
        sim.tick().map_err(|e| e.to_string())?;
        observe(settle, s.elapsed());
    }
    Ok(out)
}

/// The plan through a scalar `Sim`, timing construction, settle and tick.
pub fn drive_scalar(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    plan: &Plan,
    ports: &Ports,
    inputs: &[Vec<Value>],
) -> Result<(Vec<Vec<Value>>, SimTimes), String> {
    let mut times = SimTimes::default();
    let t = Instant::now();
    let mut sim = Sim::new(netlist).map_err(|e| e.to_string())?;
    times.new = t.elapsed();
    let out = run_scalar(&mut sim, spec, plan, ports, inputs, &mut |s, k| {
        times.settle += s;
        times.tick += k;
    })?;
    Ok((out, times))
}

/// Per-lane transaction streams: lane 0 gets `inputs` as given, lane `l`
/// the same transactions rotated by `l`.
pub fn lane_inputs(inputs: &[Vec<Value>]) -> Vec<Vec<Vec<u64>>> {
    let n = inputs.len();
    (0..LANES as usize)
        .map(|l| {
            (0..n)
                .map(|k| inputs[(k + l) % n].iter().map(Value::to_u64).collect())
                .collect()
        })
        .collect()
}

/// The plan through a `BatchSim`, one transaction stream per lane
/// (`lanes_in[lane][txn][port]`), returning every lane's captured outputs
/// (`[lane][txn][output]`). With `times`, poke, settle and tick time are
/// measured per cycle.
pub fn drive_batch(
    sim: &mut BatchSim<'_>,
    spec: &InterfaceSpec,
    plan: &Plan,
    ports: &Ports,
    lanes_in: &[Vec<Vec<u64>>],
    mut times: Option<&mut SimTimes>,
) -> Result<Vec<Vec<Vec<u64>>>, String> {
    let txns = lanes_in[0].len();
    let mut out = vec![vec![vec![0u64; spec.outputs.len()]; txns]; lanes_in.len()];
    let timed = times.is_some();
    let clock = || timed.then(Instant::now);
    let mut add = |s: Option<Instant>, field: fn(&mut SimTimes) -> &mut Duration| {
        if let (Some(t), Some(s)) = (times.as_deref_mut(), s) {
            *field(t) += s.elapsed();
        }
    };
    for t in 0..plan.cycles as usize {
        let s = clock();
        for (i, &sig) in ports.inputs.iter().enumerate() {
            let width = spec.inputs[i].width;
            match plan.owner[t][i] {
                Some(k) => {
                    for (l, lane) in lanes_in.iter().enumerate() {
                        sim.poke(sig, l as u32, Value::from_u64(width, lane[k as usize][i]));
                    }
                }
                None => sim.poke_all(sig, poison(width)),
            }
        }
        if let Some(go) = ports.go {
            sim.poke_all(go, Value::from_bool(plan.go[t]));
        }
        add(s, |t| &mut t.poke);
        let s = clock();
        sim.settle().map_err(|e| e.to_string())?;
        add(s, |t| &mut t.settle);
        for &(k, j) in &plan.capture[t] {
            for (l, lane) in out.iter_mut().enumerate() {
                lane[k as usize][j] = sim.peek(ports.outputs[j], l as u32).to_u64();
            }
        }
        let s = clock();
        sim.tick().map_err(|e| e.to_string())?;
        add(s, |t| &mut t.tick);
    }
    Ok(out)
}

/// ROADMAP evidence, measured in every traced run: `-j2` over `-j1`
/// scalar settle on `Systolic[16, 32]`, and batched lane-cycles/s of the
/// `-O2` over the `-O0` `Systolic[8, 32]` netlist. Construction stays
/// outside the timers; the sides alternate and the median ratio is kept.
pub fn roadmap_probes(layers: &mut Layers, seed: u64) -> Result<(), String> {
    use fil_designs::systolic;
    let build = |n: u64, level: u8| {
        fil_harness::compile_request(
            &BuildRequest::new(systolic::source(n, 32))
                .netlist(systolic::top_name(n))
                .opt_level(level),
        )
    };
    let mut rng = crate::util::Rng::new(seed ^ 0x5eed);
    let (net16, spec16) = build(16, 2)?;
    let inputs16 = crate::programs::random_inputs(&spec16, 48, &mut rng);
    let plan16 = Plan::new(&spec16, inputs16.len());
    let ports16 = Ports::resolve(&net16, &spec16)?;
    let rate = |jobs: usize| -> Result<f64, String> {
        let mut sim = Sim::new_with_jobs(&net16, jobs).map_err(|e| e.to_string())?;
        let t = Instant::now();
        run_scalar(
            &mut sim,
            &spec16,
            &plan16,
            &ports16,
            &inputs16,
            &mut |_, _| {},
        )?;
        Ok(plan16.cycles as f64 / t.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let j1 = rate(1)?;
        let j2 = rate(2)?;
        ratios.push(j2 / j1);
    }
    layers.shard_j2_over_j1 = median(&ratios);

    let (o0, spec8) = build(8, 0)?;
    let (o2, _) = build(8, 2)?;
    let inputs8 = crate::programs::random_inputs(&spec8, 48, &mut rng);
    let lanes_in = lane_inputs(&inputs8);
    let plan8 = Plan::new(&spec8, inputs8.len());
    let lane_rate = |net: &Netlist| -> Result<f64, String> {
        let ports = Ports::resolve(net, &spec8)?;
        let mut sim = BatchSim::new(net, LANES).map_err(|e| e.to_string())?;
        let t = Instant::now();
        drive_batch(&mut sim, &spec8, &plan8, &ports, &lanes_in, None)?;
        Ok(plan8.cycles as f64 * f64::from(LANES) / t.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let r0 = lane_rate(&o0)?;
        let r2 = lane_rate(&o2)?;
        ratios.push(r2 / r0);
    }
    layers.o2_over_o0 = median(&ratios);
    Ok(())
}
