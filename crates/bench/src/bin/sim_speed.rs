//! Criterion-free simulator speed probe, for recording perf trajectory
//! across PRs: runs the pipelined-ALU and AES cycle loops plus an N-sweep
//! over the generator-produced `Systolic[N, 32]` arrays and a
//! batched-lanes run over `Systolic[8, 32]`, and prints one line of JSON.
//!
//! ```text
//! cargo run --release -p fil-bench --bin sim_speed
//! {"alu_cycles_per_sec": 7241329.0, "aes_cycles_per_sec": 10891.2,
//!  "systolic": [{"n": 2, "cycles_per_sec": ..., "pe_cells_per_sec": ...}, ...],
//!  "systolic8_seq_traces_per_sec": ...,
//!  "systolic8_batch_traces_per_sec_o0": ..., ...}
//! ```
//!
//! `pe_cells_per_sec` is `N² × cycles/sec` — processing-element updates per
//! wall-clock second, comparable across array sizes. The `_traces_per_sec`
//! keys compare one 128-lane `BatchSim` pass against 128 back-to-back
//! scalar runs of the same stimulus.
//!
//! The `_o0`/`_o2` key pairs (PR 10) compare the same design built at
//! `-O0` and `-O2`: elaborated cell counts for `Systolic[8,32]`,
//! `AesFil10`, and `EncTop16` (deterministic — CI gates `o2 <= o0`
//! exactly), plus lane-batched traces/s on the optimized vs unoptimized
//! `Systolic[8,32]` netlist.

use fil_bits::Value;
use rtl_sim::{BatchSim, Sim};
use std::time::Instant;

/// Repeats `run` (a full construct-poke-run loop over `cycles` cycles) until
/// ~0.5 s of wall time is spent, returning simulated cycles per second.
fn measure(cycles: u64, run: impl FnMut()) -> f64 {
    measure_for(500, cycles, run)
}

/// [`measure`] with an explicit wall-time window: the trace-throughput
/// pair below runs one full batch per rep (~0.5 s), so it needs a longer
/// window to average over several reps.
fn measure_for(window_ms: u128, cycles: u64, mut run: impl FnMut()) -> f64 {
    // Warm-up.
    run();
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed().as_millis() < window_ms {
        run();
        reps += 1;
    }
    (reps * cycles) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let cycles = 1000u64;
    let (alu, _) = fil_harness::compile_request(
        &fil_build::BuildRequest::new(fil_designs::alu::source(fil_designs::alu::ALU_PIPELINED))
            .netlist("ALU"),
    )
    .expect("compiles");
    let alu_rate = measure(cycles, || {
        let mut sim = Sim::new(&alu).unwrap();
        sim.poke_by_name("en", Value::from_u64(1, 1));
        sim.poke_by_name("l", Value::from_u64(32, 3));
        sim.poke_by_name("r", Value::from_u64(32, 4));
        sim.poke_by_name("op", Value::from_u64(1, 1));
        sim.run(cycles).unwrap();
        std::hint::black_box(sim.peek_by_name("o").to_u64());
    });

    let aes = pipelinec::aes::aes_netlist();
    let aes_cycles = 100u64;
    let aes_rate = measure(aes_cycles, || {
        let mut sim = Sim::new(&aes).unwrap();
        sim.poke_by_name("state_words", Value::from_u64(64, 42).resize(128));
        sim.poke_by_name("keys", Value::ones(1280));
        sim.run(aes_cycles).unwrap();
        std::hint::black_box(sim.peek_by_name("out_words$out").to_u64());
    });

    // Generator sweep: the parametric systolic array at N = 2, 4, 8.
    let systolic: Vec<String> = [2u64, 4, 8]
        .iter()
        .map(|&n| {
            let src = fil_designs::systolic::source(n, 32);
            let top = fil_designs::systolic::top_name(n);
            let (netlist, _) = fil_designs::build(&src, &top).expect("systolic compiles");
            let sys_cycles = 200u64;
            let rate = measure(sys_cycles, || {
                let mut sim = Sim::new(&netlist).unwrap();
                sim.poke_by_name("go", Value::from_u64(1, 1));
                // Per-lane bundle ports: left_i / top_i, W = 32 each.
                for i in 0..n {
                    sim.poke_by_name(&format!("left_{i}"), Value::from_u64(32, 7 + i));
                    sim.poke_by_name(&format!("top_{i}"), Value::from_u64(32, 3 + i));
                }
                sim.run(sys_cycles).unwrap();
                std::hint::black_box(sim.peek_by_name("out_0").to_u64());
            });
            format!(
                "{{\"n\": {n}, \"cycles_per_sec\": {rate:.1}, \"pe_cells_per_sec\": {:.1}}}",
                rate * (n * n) as f64
            )
        })
        .collect();

    // Lane-batched throughput on Systolic[8, 32] (64 PEs — the largest
    // array in the N-sweep above).
    let n8 = 8u64;
    let src8 = fil_designs::systolic::source(n8, 32);
    let (net8, _) =
        fil_designs::build(&src8, &fil_designs::systolic::top_name(n8)).expect("systolic compiles");
    let sys_cycles = 200u64;
    let poke_lane = |sim: &mut Sim, salt: u64| {
        sim.poke_by_name("go", Value::from_u64(1, 1));
        for i in 0..n8 {
            sim.poke_by_name(&format!("left_{i}"), Value::from_u64(32, 7 + i + salt));
            sim.poke_by_name(&format!("top_{i}"), Value::from_u64(32, 3 + i + salt));
        }
    };
    // Traces/second: B independent stimulus lanes, each simulated for
    // `sys_cycles` cycles — one BatchSim pass vs B scalar runs.
    let lanes = 128u32;
    let seq_traces = measure_for(2000, u64::from(lanes), || {
        for l in 0..u64::from(lanes) {
            let mut sim = Sim::new(&net8).unwrap();
            poke_lane(&mut sim, l);
            sim.run(sys_cycles).unwrap();
            std::hint::black_box(sim.peek_by_name("out_0").to_u64());
        }
    });
    let batch_lanes = |netlist: &rtl_sim::Netlist| {
        measure_for(2000, u64::from(lanes), || {
            let mut sim = BatchSim::new(netlist, lanes).unwrap();
            for l in 0..lanes {
                sim.poke_by_name("go", l, Value::from_u64(1, 1));
                for i in 0..n8 {
                    let salt = u64::from(l);
                    sim.poke_by_name(&format!("left_{i}"), l, Value::from_u64(32, 7 + i + salt));
                    sim.poke_by_name(&format!("top_{i}"), l, Value::from_u64(32, 3 + i + salt));
                }
            }
            sim.run(sys_cycles).unwrap();
            std::hint::black_box(sim.peek_by_name("out_0", 0).to_u64());
        })
    };
    let batch_traces = batch_lanes(&net8);

    // The optimizer's win (PR 10): the same designs at -O2 vs the -O0
    // netlists above. Cell counts are deterministic; the traces/s pair is
    // a same-box comparison on the lane-batched Systolic[8,32] run.
    let at_level = |src: &str, top: &str, level: u8| {
        fil_harness::compile_request(
            &fil_build::BuildRequest::new(src)
                .netlist(top)
                .opt_level(level),
        )
        .expect("compiles")
        .0
    };
    let net8_o2 = at_level(&src8, &fil_designs::systolic::top_name(n8), 2);
    let batch_traces_o2 = batch_lanes(&net8_o2);
    let aes_src = pipelinec::aes_fil::source(10);
    let enc_src = fil_designs::encoder::source(16);
    let cells = |src: &str, top: &str| {
        (
            at_level(src, top, 0).cells().len(),
            at_level(src, top, 2).cells().len(),
        )
    };
    let (sys_c0, sys_c2) = (net8.cells().len(), net8_o2.cells().len());
    let (aes_c0, aes_c2) = cells(&aes_src, &pipelinec::aes_fil::top_name(10));
    let (enc_c0, enc_c2) = cells(&enc_src, &fil_designs::encoder::top_name(16));

    println!(
        "{{\"alu_cycles_per_sec\": {alu_rate:.1}, \"aes_cycles_per_sec\": {aes_rate:.1}, \
         \"systolic\": [{}], \
         \"systolic8_seq_traces_per_sec\": {seq_traces:.1}, \
         \"systolic8_batch_traces_per_sec_o0\": {batch_traces:.1}, \
         \"systolic8_batch_traces_per_sec_o2\": {batch_traces_o2:.1}, \
         \"systolic8_cells_o0\": {sys_c0}, \"systolic8_cells_o2\": {sys_c2}, \
         \"aes_fil10_cells_o0\": {aes_c0}, \"aes_fil10_cells_o2\": {aes_c2}, \
         \"enc16_cells_o0\": {enc_c0}, \"enc16_cells_o2\": {enc_c2}}}",
        systolic.join(", ")
    );
}
