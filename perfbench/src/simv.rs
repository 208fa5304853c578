//! The `sim-verify` workload: eight designs built once at `-O2` in
//! set-up, then driven round-robin with seeded random pipelined
//! transactions, both through `fil_harness::run_pipelined` (64
//! transactions per call) and through a 128-lane `BatchSim` (one stream
//! per lane), every output checked against the design's software model.

use crate::layers::{self, Layers, Plan, Ports, LANES};
use crate::programs::{self, Model, Prog};
use crate::util::{geomean, ms, peak_rss_mb, quantile, Calibration, Digest, Metrics, Rng, Tally};
use crate::Args;
use fil_bits::Value;
use fil_build::BuildRequest;
use fil_harness::{InterfaceSpec, PortSpec};
use rtl_sim::{BatchSim, Netlist};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions per `run_pipelined` call.
const SCALAR_TXNS: usize = 64;
/// Stimulus sets per design, cycled through by the rounds.
const SCALAR_SETS: usize = 4;
/// Transactions per lane of a batched run.
const BATCH_TXNS: usize = 16;

type ModelFn = fn(&InterfaceSpec, &[Vec<Value>]) -> Vec<Vec<Value>>;
type StimFn = fn(&InterfaceSpec, &mut Rng) -> Vec<Value>;

struct Design {
    name: &'static str,
    netlist: Arc<Netlist>,
    spec: InterfaceSpec,
    model: ModelFn,
    stim: StimFn,
}

struct Batch {
    plan: Plan,
    ports: Ports,
    lanes_in: Vec<Vec<Vec<u64>>>,
    want: Vec<Vec<Vec<u64>>>,
}

/// Transactions and their expected outputs.
type Stimulus = (Vec<Vec<Value>>, Vec<Vec<Value>>);

/// A design's name, its source and top (`None` for the imported AES
/// netlist), its model and its stimulus generator.
type Entry = (&'static str, Option<(String, String)>, ModelFn, StimFn);

struct Loaded {
    design: Design,
    scalar: Vec<Stimulus>,
    batch: Option<Batch>,
}

fn val(spec: &InterfaceSpec, txn: &[Value], name: &str) -> u64 {
    let i = spec
        .inputs
        .iter()
        .position(|p| p.name == name)
        .unwrap_or_else(|| panic!("{}: no input {name}", spec.name));
    txn[i].to_u64()
}

fn outs(spec: &InterfaceSpec, f: impl Fn(&str) -> u64) -> Vec<Value> {
    spec.outputs
        .iter()
        .map(|p| Value::from_u64(p.width, f(&p.name)))
        .collect()
}

fn per_txn(
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    f: impl Fn(&[Value], &str) -> u64,
) -> Vec<Vec<Value>> {
    inputs
        .iter()
        .map(|t| outs(spec, |name| f(t, name)))
        .collect()
}

fn uniform(spec: &InterfaceSpec, rng: &mut Rng) -> Vec<Value> {
    spec.inputs
        .iter()
        .map(|p| {
            let limbs: Vec<u64> = (0..p.width.div_ceil(64)).map(|_| rng.next_u64()).collect();
            Value::from_limbs(p.width, &limbs)
        })
        .collect()
}

fn fp_operands(spec: &InterfaceSpec, rng: &mut Rng) -> Vec<Value> {
    // Normal operands in a range where the adder's rounding is defined
    // the same way in hardware and model.
    spec.inputs
        .iter()
        .map(|p| {
            let sign = rng.below(2);
            let exp = rng.range(60, 190);
            let mant = rng.bits(23);
            Value::from_u64(p.width, (sign << 31) | (exp << 23) | mant)
        })
        .collect()
}

fn divider_operands(spec: &InterfaceSpec, rng: &mut Rng) -> Vec<Value> {
    spec.inputs
        .iter()
        .map(|p| match p.name.as_str() {
            "div" => Value::from_u64(16, rng.range(1, 0xffff)),
            _ => Value::from_u64(p.width, rng.bits(p.width)),
        })
        .collect()
}

fn bytes16(f: impl Fn(usize) -> u64) -> [u8; 16] {
    std::array::from_fn(|i| f(i) as u8)
}

fn aes_fil_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    inputs
        .iter()
        .map(|t| {
            let st = bytes16(|b| val(spec, t, &format!("st_{b}")));
            let rks: [[u8; 16]; 10] =
                std::array::from_fn(|r| bytes16(|i| val(spec, t, &format!("key_{}", 16 * r + i))));
            let ct = pipelinec::aes::aes_golden(st, &rks);
            outs(spec, |name| {
                let b: usize = name.trim_start_matches("ct_").parse().expect("ct_b");
                u64::from(ct[b])
            })
        })
        .collect()
}

fn aes_netlist_model(_: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    inputs
        .iter()
        .map(|t| {
            let st = pipelinec::aes::unpack_block(&t[0]);
            let rks: [[u8; 16]; 10] = std::array::from_fn(|r| {
                bytes16(|i| {
                    t[1].slice((128 * r + 8 * i + 7) as u32, (128 * r + 8 * i) as u32)
                        .to_u64()
                })
            });
            vec![pipelinec::aes::pack_block(pipelinec::aes::aes_golden(
                st, &rks,
            ))]
        })
        .collect()
}

fn systolic8_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let prog = Prog {
        source: String::new(),
        top: spec.name.clone(),
        model: Model::Systolic { n: 8, w: 32 },
    };
    programs::expected(&prog, spec, inputs).expect("systolic model")
}

fn conv2d_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let pixels: Vec<u8> = inputs.iter().map(|t| t[0].to_u64() as u8).collect();
    fil_designs::conv2d::golden_stream(&pixels)
        .into_iter()
        .map(|o| outs(spec, |_| u64::from(o)))
        .collect()
}

fn alu_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    per_txn(spec, inputs, |t, _| {
        let (op, l, r) = (val(spec, t, "op"), val(spec, t, "l"), val(spec, t, "r"));
        u64::from(fil_designs::alu::golden(op, l as u32, r as u32))
    })
}

fn div_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    per_txn(spec, inputs, |t, _| {
        u64::from(fil_designs::divider::golden(
            val(spec, t, "left") as u8,
            val(spec, t, "div") as u16,
        ))
    })
}

fn enc_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    per_txn(spec, inputs, |t, name| {
        let (out, valid) = fil_designs::encoder::golden(16, val(spec, t, "x"));
        if name == "valid" {
            u64::from(valid)
        } else {
            out
        }
    })
}

fn fp_model(spec: &InterfaceSpec, inputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    per_txn(spec, inputs, |t, _| {
        u64::from(fil_designs::fp_add::golden(
            val(spec, t, "x") as u32,
            val(spec, t, "y") as u32,
        ))
    })
}

/// The eight designs' sources (the AES netlist aside) with their models.
fn catalog() -> Vec<Entry> {
    use fil_designs::{alu, conv2d, divider, encoder, fp_add, systolic};
    vec![
        (
            "systolic8",
            Some((systolic::source(8, 32), systolic::top_name(8))),
            systolic8_model,
            uniform,
        ),
        (
            "aesfil10",
            Some((
                pipelinec::aes_fil::source(10),
                pipelinec::aes_fil::top_name(10),
            )),
            aes_fil_model,
            uniform,
        ),
        ("aes", None, aes_netlist_model, uniform),
        (
            "alu",
            Some((alu::source(alu::ALU_PIPELINED), "ALU".into())),
            alu_model,
            uniform,
        ),
        (
            "div-iter",
            Some((divider::iterative_source(), "DivIter".into())),
            div_model,
            divider_operands,
        ),
        (
            "enc16",
            Some((encoder::source(16), encoder::top_name(16))),
            enc_model,
            uniform,
        ),
        (
            "fp-add-pipe",
            Some((fp_add::source(fp_add::Style::Pipelined), "FpAdd".into())),
            fp_model,
            fp_operands,
        ),
        (
            "conv2d",
            Some((conv2d::base_source(), "Conv2d".into())),
            conv2d_model,
            uniform,
        ),
    ]
}

/// The programs of the designs that have a source.
fn design_progs() -> Vec<Prog> {
    catalog()
        .into_iter()
        .filter_map(|(_, src, _, _)| {
            src.map(|(source, top)| Prog {
                source,
                top,
                model: Model::Interp,
            })
        })
        .collect()
}

fn aes_spec() -> InterfaceSpec {
    InterfaceSpec {
        name: "AES".into(),
        go: None,
        delay: 1,
        inputs: vec![
            PortSpec::new("state_words", 128, 0, 1),
            PortSpec::new("keys", 1280, 0, 1),
        ],
        outputs: vec![PortSpec::new("out_words$out", 128, 18, 19)],
    }
}

fn build_designs() -> Result<Vec<Design>, String> {
    catalog()
        .into_iter()
        .map(|(name, src, model, stim)| {
            let (netlist, spec) = match src {
                Some((source, top)) => fil_harness::compile_request(
                    &BuildRequest::new(source).netlist(top).opt_level(2),
                )?,
                // The imported PipelineC netlist has no source.
                None => (Arc::new(pipelinec::aes::aes_netlist()), aes_spec()),
            };
            Ok(Design {
                name,
                netlist,
                spec,
                model,
                stim,
            })
        })
        .collect()
}

fn stream(d: &Design, txns: usize, rng: &mut Rng) -> Vec<Vec<Value>> {
    (0..txns).map(|_| (d.stim)(&d.spec, rng)).collect()
}

fn load(d: Design, rng: &mut Rng, digest: &mut Digest, corrupt: bool) -> Result<Loaded, String> {
    let mut scalar = Vec::new();
    for set in 0..SCALAR_SETS {
        let inputs = stream(&d, SCALAR_TXNS, rng);
        programs::digest_inputs(digest, &inputs);
        let mut want = (d.model)(&d.spec, &inputs);
        if corrupt && set == 0 {
            programs::corrupt(&mut want);
        }
        scalar.push((inputs, want));
    }
    let narrow = d
        .spec
        .inputs
        .iter()
        .chain(&d.spec.outputs)
        .all(|p| p.width <= 64);
    let batch = if narrow {
        let mut lanes_in = Vec::with_capacity(LANES as usize);
        let mut want = Vec::with_capacity(LANES as usize);
        for _ in 0..LANES {
            let inputs = stream(&d, BATCH_TXNS, rng);
            programs::digest_inputs(digest, &inputs);
            want.push(
                (d.model)(&d.spec, &inputs)
                    .iter()
                    .map(|t| t.iter().map(Value::to_u64).collect())
                    .collect(),
            );
            lanes_in.push(
                inputs
                    .iter()
                    .map(|t| t.iter().map(Value::to_u64).collect())
                    .collect(),
            );
        }
        Some(Batch {
            plan: Plan::new(&d.spec, BATCH_TXNS),
            ports: Ports::resolve(&d.netlist, &d.spec)?,
            lanes_in,
            want,
        })
    } else {
        None
    };
    Ok(Loaded {
        design: d,
        scalar,
        batch,
    })
}

fn setup(args: &Args, digest: &mut Digest) -> Result<Vec<Loaded>, String> {
    crate::compile::warm_up()?;
    let mut rng = Rng::new(args.seed);
    build_designs()?
        .into_iter()
        .enumerate()
        .map(|(i, d)| load(d, &mut rng, digest, args.selftest && i == 0))
        .collect()
}

pub fn setup_only(args: &Args, t0: Instant) -> Result<f64, String> {
    setup(args, &mut Digest::new())?;
    Ok(crate::setup_time(t0))
}

pub fn run(args: &Args, t0: Instant) -> Result<(Tally, Metrics), String> {
    let mut digest = Digest::new();
    let designs = setup(args, &mut digest)?;
    let setup_s = crate::setup_time(t0);
    println!("inputs_digest = {}", digest.hex());
    let mut tally = Tally::default();
    // Call times (ms, at the reference host speed) per design: scalar
    // `run_pipelined` calls and batched runs.
    let mut cal = Calibration::new();
    let mut raw_ms = Vec::new();
    let mut scalar_ms: Vec<Vec<f64>> = designs.iter().map(|_| Vec::new()).collect();
    let mut batch_ms: Vec<Vec<f64>> = designs.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut round = 0usize;
    while round < 2 || start.elapsed() < window {
        for (i, l) in designs.iter().enumerate() {
            let d = &l.design;
            let (inputs, want) = &l.scalar[round % SCALAR_SETS];
            cal.sample();
            let t = Instant::now();
            let got = fil_harness::run_pipelined(&d.netlist, &d.spec, inputs);
            let dt = ms(t.elapsed());
            raw_ms.push(dt);
            scalar_ms[i].push(dt * cal.scale());
            tally.check(
                got.map_err(|e| e.to_string())
                    .and_then(|got| programs::compare(d.name, &got, want)),
            );

            if let Some(b) = &l.batch {
                cal.sample();
                let t = Instant::now();
                let got = BatchSim::new(&d.netlist, LANES)
                    .map_err(|e| e.to_string())
                    .and_then(|mut sim| {
                        layers::drive_batch(&mut sim, &d.spec, &b.plan, &b.ports, &b.lanes_in, None)
                    });
                batch_ms[i].push(ms(t.elapsed()) * cal.scale());
                tally.check(got.and_then(|got| {
                    if got == b.want {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} (batched): outputs differ from the model",
                            d.name
                        ))
                    }
                }));
            }
        }
        round += 1;
    }
    let rss = peak_rss_mb(std::process::id());
    // Verified transactions per second of call time, per design and path.
    let rate = |txns: f64, v: &Vec<f64>| txns * v.len() as f64 * 1e3 / v.iter().sum::<f64>();
    let scalar_rate: Vec<f64> = scalar_ms
        .iter()
        .map(|v| rate(SCALAR_TXNS as f64, v))
        .collect();
    let batch_txns = f64::from(LANES) * BATCH_TXNS as f64;
    let batch_rate: Vec<Option<f64>> = batch_ms
        .iter()
        .map(|v| (!v.is_empty()).then(|| rate(batch_txns, v)))
        .collect();
    let rates: Vec<f64> = scalar_rate
        .iter()
        .copied()
        .chain(batch_rate.iter().flatten().copied())
        .collect();
    let cells: usize = designs.iter().map(|l| l.design.netlist.cells().len()).sum();
    let mut m = Metrics::default();
    m.put("setup_s", crate::setup_median(args, setup_s), "s");
    // Per-design percentiles, then the geometric mean over designs: the
    // designs differ by 100x in call cost, so pooled percentiles would
    // land on whichever design straddles the rank.
    let pct = |q: f64| geomean(&scalar_ms.iter().map(|v| quantile(v, q)).collect::<Vec<_>>());
    println!(
        "latency samples = {} per design; wall-clock pooled p50 {} ms",
        scalar_ms[0].len(),
        quantile(&raw_ms, 0.5)
    );
    m.put("latency_ms_p50", pct(0.50), "ms");
    m.put("latency_ms_p99", pct(0.99), "ms");
    m.put("throughput_per_s", geomean(&rates), "1/s");
    m.put("peak_rss_mb", rss, "MB");
    m.put("netlist_cells", cells as f64, "cells");
    for (l, (s, b)) in designs.iter().zip(scalar_rate.iter().zip(&batch_rate)) {
        let per_txn = |txns: usize| Plan::new(&l.design.spec, txns).cycles as f64 / txns as f64;
        println!(
            "  {:<12} scalar {:>12.0} cycles/s   batched {:>14.0} lane-cycles/s",
            l.design.name,
            s * per_txn(SCALAR_TXNS),
            b.map_or(0.0, |b| b * per_txn(BATCH_TXNS))
        );
    }
    Ok((tally, m))
}

/// The traced `sim-verify`: the designs' sources through every compile
/// layer (before set-up, so no cache answers), then each design's first
/// stimulus set through every simulation layer, then the serve layer.
pub fn run_traced(
    args: &Args,
    layers: &mut Layers,
    lane: &fil_trace::Lane<'_>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let progs = design_progs();
    for p in &progs {
        crate::compile::trace_compile(layers, lane, p)?;
    }
    let mut digest = Digest::new();
    let designs = setup(args, &mut digest)?;
    println!("inputs_digest = {}", digest.hex());
    for l in &designs {
        let (inputs, want) = &l.scalar[0];
        let got = layers.trace_sim(lane, &l.design.netlist, &l.design.spec, inputs)?;
        tally.check(programs::compare(l.design.name, &got, want));
        let last = |v: &Vec<f64>| v.last().copied().unwrap_or(0.0);
        println!(
            "  {:<12} new {:>9.1} us  settle {:>9.1} ns/cycle  tick {:>7.1} ns/cycle  harness self {:>7.1} ns/cycle",
            l.design.name,
            last(&layers.sim_new_us),
            last(&layers.settle_ns),
            last(&layers.tick_ns),
            last(&layers.harness_self_ns),
        );
    }
    crate::serve::serve_pass(&progs, layers, lane, &mut tally)?;
    Ok(tally)
}
