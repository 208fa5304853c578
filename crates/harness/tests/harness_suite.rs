//! Integration tests for the cycle-accurate harness: interval-exact
//! driving, poison outside windows, pipelining, latency discovery, delay
//! discovery, and fuzzing.

use fil_bits::Value;
use fil_build::BuildRequest;
use fil_harness::{
    compile_request, compile_request_with, discover_latency, discover_min_delay,
    fuzz_against_golden, fuzz_equivalent, run_pipelined, HarnessError, InterfaceSpec, PortSpec,
};
use rtl_sim::{CellKind, Netlist, Sim};

fn v(w: u32, x: u64) -> Value {
    Value::from_u64(w, x)
}

/// Filament source for a pipelined multiply-accumulate-style unit:
/// o = (a + b) delayed a cycle.
const ADD_DELAY: &str = "
comp AddDelay<G: 1>(@interface[G] go: 1, @[G, G+1] a: 8, @[G, G+1] b: 8)
    -> (@[G+1, G+2] o: 8) {
  s := new Add[8]<G>(a, b);
  d := new Delay[8]<G>(s.out);
  o = d.out;
}";

#[test]
fn pipelined_transactions_capture_outputs() {
    let (netlist, spec) =
        compile_request(&BuildRequest::new(ADD_DELAY).netlist("AddDelay")).unwrap();
    let inputs: Vec<Vec<Value>> = (0..5u64).map(|k| vec![v(8, k), v(8, 10 * k)]).collect();
    let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
    let got: Vec<u64> = outs.iter().map(|o| o[0].to_u64()).collect();
    assert_eq!(got, vec![0, 11, 22, 33, 44]);
}

#[test]
fn poison_catches_interface_lies() {
    // A design that *actually* samples its input one cycle late, but whose
    // claimed spec says the input is only valid in cycle 0: the harness
    // drives poison in cycle 1, so the captured outputs are garbage.
    let mut n = Netlist::new("late");
    let x = n.add_input("x", 8);
    let q = n.add_signal("q", 8);
    let qq = n.add_signal("qq", 8);
    n.add_cell(
        "r0",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
        vec![x],
        vec![q],
    );
    n.add_cell(
        "r1",
        CellKind::Reg {
            width: 8,
            init: 0,
            has_en: false,
        },
        vec![x],
        vec![qq],
    );
    n.mark_output(q);
    // Claimed interface: input valid [0,1), output = input registered twice
    // at cycle 2 — but the second register here samples x directly in
    // cycle 1 (a "held input" assumption the spec does not license).
    let spec = InterfaceSpec {
        name: "late".into(),
        go: None,
        delay: 3,
        inputs: vec![PortSpec::new("x", 8, 0, 1)],
        outputs: vec![PortSpec::new("qq", 8, 2, 3)],
    };
    // qq at cycle 2 holds x as sampled during cycle 1 = poison, not 42.
    let mut n2 = n.clone();
    n2.mark_output(qq);
    let outs =
        fil_harness::discover_latency(&n2, &spec, &[vec![v(8, 42)]], &[vec![v(8, 42)]], 0, 3)
            .unwrap();
    assert_eq!(outs, None, "the lie is exposed by poison driving");
}

#[test]
fn overlap_detected_when_interval_exceeds_period() {
    // Input held for 3 cycles but transactions launched every cycle: the
    // physical port cannot carry both values (Section 2.4).
    let mut n = Netlist::new("hold");
    let x = n.add_input("x", 8);
    n.mark_output(x); // irrelevant; never driven
    let x_out = n.add_signal("o", 8);
    n.connect(x_out, x);
    n.mark_output(x_out);
    let spec = InterfaceSpec {
        name: "hold".into(),
        go: None,
        delay: 1,
        inputs: vec![PortSpec::new("x", 8, 0, 3)],
        outputs: vec![PortSpec::new("o", 8, 0, 1)],
    };
    let inputs = vec![vec![v(8, 1)], vec![v(8, 2)]];
    let err = run_pipelined(&n, &spec, &inputs).unwrap_err();
    assert!(matches!(
        err,
        HarnessError::InterfaceOverlap { cycle: 1, .. }
    ));
    // Identical values do not clash.
    let inputs = vec![vec![v(8, 7)], vec![v(8, 7)]];
    assert!(run_pipelined(&n, &spec, &inputs).is_ok());
}

#[test]
fn latency_discovery_finds_real_latency() {
    // A 3-deep register chain claimed to have latency 1: discovery reports
    // the actual latency 3 (the Table 1 methodology).
    let mut n = Netlist::new("chain");
    let x = n.add_input("x", 8);
    let mut cur = x;
    for i in 0..3 {
        let nxt = n.add_signal(format!("s{i}"), 8);
        n.add_cell(
            format!("r{i}"),
            CellKind::Reg {
                width: 8,
                init: 0,
                has_en: false,
            },
            vec![cur],
            vec![nxt],
        );
        cur = nxt;
    }
    n.mark_output(cur);
    let spec = InterfaceSpec {
        name: "chain".into(),
        go: None,
        delay: 1,
        inputs: vec![PortSpec::new("x", 8, 0, 1)],
        outputs: vec![PortSpec::new("s2", 8, 1, 2)], // wrong claim: latency 1
    };
    let inputs: Vec<Vec<Value>> = (1..=4u64).map(|k| vec![v(8, k)]).collect();
    let expected: Vec<Vec<Value>> = (1..=4u64).map(|k| vec![v(8, k)]).collect();
    let found = discover_latency(&n, &spec, &inputs, &expected, 8, 1).unwrap();
    assert_eq!(found, Some(3));
}

#[test]
fn min_delay_discovery() {
    // The sequential multiplier only works when transactions are spaced 3
    // apart.
    let (netlist, spec) = compile_request(
        &BuildRequest::new(
            "comp M<G: 3>(@interface[G] go: 1, @[G, G+1] a: 8, @[G, G+1] b: 8)
                 -> (@[G+2, G+3] o: 8) {
               m := new Mult[8]<G>(a, b);
               o = m.out;
             }",
        )
        .netlist("M"),
    )
    .unwrap();
    let inputs: Vec<Vec<Value>> = vec![
        vec![v(8, 3), v(8, 5)],
        vec![v(8, 7), v(8, 9)],
        vec![v(8, 11), v(8, 13)],
    ];
    let expected: Vec<Vec<Value>> = vec![vec![v(8, 15)], vec![v(8, 63)], vec![v(8, 143)]];
    let min = discover_min_delay(&netlist, &spec, &inputs, &expected, 6).unwrap();
    assert_eq!(min, Some(3), "the multiplier's initiation interval is 3");
    // And at its declared delay the outputs are correct.
    let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
    assert_eq!(outs[2][0].to_u64(), 143);
}

#[test]
fn fuzz_against_software_model() {
    let (netlist, spec) =
        compile_request(&BuildRequest::new(ADD_DELAY).netlist("AddDelay")).unwrap();
    fuzz_against_golden(
        &netlist,
        &spec,
        |ins| vec![ins[0].add(&ins[1])],
        200,
        0xf11a,
    )
    .expect("adder matches the golden model");
}

#[test]
fn fuzz_differential_between_designs() {
    // Combinational vs pipelined implementations of the same function.
    let (nc, sc) = compile_request(
        &BuildRequest::new(
            "comp C<G: 1>(@[G, G+1] a: 8, @[G, G+1] b: 8) -> (@[G, G+1] o: 8) {
               s := new Add[8]<G>(a, b);
               o = s.out;
             }",
        )
        .netlist("C"),
    )
    .unwrap();
    let (np, sp) = compile_request(&BuildRequest::new(ADD_DELAY).netlist("AddDelay")).unwrap();
    fuzz_equivalent((&nc, &sc), (&np, &sp), 200, 42).expect("designs agree");
}

#[test]
fn fuzz_reports_mismatch() {
    let (nc, sc) = compile_request(
        &BuildRequest::new(
            "comp C<G: 1>(@[G, G+1] a: 8, @[G, G+1] b: 8) -> (@[G, G+1] o: 8) {
               s := new Add[8]<G>(a, b);
               o = s.out;
             }",
        )
        .netlist("C"),
    )
    .unwrap();
    let err = fuzz_against_golden(&nc, &sc, |ins| vec![ins[0].sub(&ins[1])], 50, 7)
        .expect_err("adder is not a subtractor");
    assert!(err.to_string().contains("mismatch"));
}

#[test]
fn arity_errors_are_reported() {
    let (netlist, spec) =
        compile_request(&BuildRequest::new(ADD_DELAY).netlist("AddDelay")).unwrap();
    let err = run_pipelined(&netlist, &spec, &[vec![v(8, 1)]]).unwrap_err();
    assert!(matches!(
        err,
        HarnessError::Arity {
            expected: 2,
            got: 1,
            ..
        }
    ));
}

#[test]
fn missing_port_is_reported() {
    let n = Netlist::new("empty");
    let spec = InterfaceSpec {
        name: "empty".into(),
        go: None,
        delay: 1,
        inputs: vec![PortSpec::new("ghost", 8, 0, 1)],
        outputs: vec![],
    };
    let err = run_pipelined(&n, &spec, &[vec![v(8, 1)]]).unwrap_err();
    assert!(matches!(err, HarnessError::MissingPort(_)));
}

#[test]
fn compile_request_surfaces_type_errors() {
    let err = compile_request(
        &BuildRequest::new(
            "comp Bad<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
               m := new Mult[8]<G>(x, x);
               o = m.out;
             }",
        )
        .netlist("Bad"),
    )
    .unwrap_err();
    assert!(err.contains("error"), "{err}");
}

/// The harness's original capture, kept as an oracle: drive the plan
/// (transaction values inside each input window, poison outside), record
/// every in-window sample of every (transaction, output) by name, and
/// check stability after the run.
fn reference_run_transactions(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    period: u64,
) -> Result<Vec<Vec<Value>>, HarnessError> {
    fn poison(width: u32, port_idx: usize, cycle: u64) -> Value {
        let x =
            (cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (port_idx as u64) ^ 0xa5a5_a5a5_a5a5_a5a5;
        Value::from_u64(64, x).resize(width)
    }

    // Drive plan.
    let period = period.max(1);
    let n = inputs.len() as u64;
    let total_cycles = n.saturating_sub(1) * period + spec.horizon() + 1;
    let mut plan: Vec<Vec<Option<Value>>> =
        vec![vec![None; spec.inputs.len()]; total_cycles as usize];
    let mut go_cycles = Vec::new();
    for (k, txn) in inputs.iter().enumerate() {
        if txn.len() != spec.inputs.len() {
            return Err(HarnessError::Arity {
                txn: k,
                expected: spec.inputs.len(),
                got: txn.len(),
            });
        }
        let t0 = k as u64 * period;
        go_cycles.push(t0);
        for (i, port) in spec.inputs.iter().enumerate() {
            let value = txn[i].resize(port.width);
            for t in (t0 + port.start)..(t0 + port.end) {
                let slot = &mut plan[t as usize][i];
                match slot {
                    None => *slot = Some(value.clone()),
                    Some(existing) if *existing == value => {}
                    Some(_) => {
                        return Err(HarnessError::InterfaceOverlap {
                            port: port.name.clone(),
                            cycle: t,
                        })
                    }
                }
            }
        }
    }

    // Simulation, sampling every transaction's every output each cycle.
    let resolve = |name: &str| {
        netlist
            .signal_by_name(name)
            .ok_or_else(|| HarnessError::MissingPort(name.to_string()))
    };
    let input_ids = spec
        .inputs
        .iter()
        .map(|p| resolve(&p.name))
        .collect::<Result<Vec<_>, _>>()?;
    let go_id = spec.go.as_deref().map(resolve).transpose()?;
    for p in &spec.outputs {
        resolve(&p.name)?;
    }
    let mut captured: Vec<Vec<Vec<Value>>> =
        vec![vec![Vec::new(); spec.outputs.len()]; inputs.len()];
    let mut sim = Sim::new(netlist)?;
    let mut next_go = go_cycles.iter().peekable();
    for t in 0..total_cycles {
        for (i, port) in spec.inputs.iter().enumerate() {
            let v = match &plan[t as usize][i] {
                Some(v) => v.clone(),
                None => poison(port.width, i, t),
            };
            sim.poke(input_ids[i], v);
        }
        if let Some(go) = go_id {
            let pulse = next_go.peek().is_some_and(|&&g| g == t);
            if pulse {
                next_go.next();
            }
            sim.poke(go, Value::from_bool(pulse));
        }
        sim.settle()?;
        for (k, txn) in captured.iter_mut().enumerate() {
            let t0 = k as u64 * period;
            for (j, port) in spec.outputs.iter().enumerate() {
                if t >= t0 + port.start && t < t0 + port.end {
                    txn[j].push(sim.peek_by_name(&port.name).clone());
                }
            }
        }
        sim.tick()?;
    }

    let mut results = Vec::with_capacity(inputs.len());
    for (k, txn) in captured.into_iter().enumerate() {
        let mut outs = Vec::with_capacity(spec.outputs.len());
        for (j, samples) in txn.into_iter().enumerate() {
            let first = samples
                .first()
                .cloned()
                .unwrap_or_else(|| Value::zero(spec.outputs[j].width));
            if samples.iter().any(|s| *s != first) {
                return Err(HarnessError::UnstableOutput {
                    port: spec.outputs[j].name.clone(),
                    txn: k,
                });
            }
            outs.push(first);
        }
        results.push(outs);
    }
    Ok(results)
}

/// `run_pipelined` with transactions launched every `period` cycles.
fn run_at(
    netlist: &Netlist,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
    period: u64,
) -> Result<Vec<Vec<Value>>, HarnessError> {
    let spec = InterfaceSpec {
        delay: period,
        ..spec.clone()
    };
    run_pipelined(netlist, &spec, inputs)
}

/// Seeded random transactions: `n` rows of full-width values per input.
fn random_txns(spec: &InterfaceSpec, n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state ^ (state >> 29)
    };
    (0..n)
        .map(|_| {
            spec.inputs
                .iter()
                .map(|p| {
                    let limbs: Vec<u64> = (0..p.width.div_ceil(64)).map(|_| next()).collect();
                    Value::from_limbs(p.width, &limbs)
                })
                .collect()
        })
        .collect()
}

/// `spec` with every window of the chosen ports extended `by` cycles.
fn stretched(spec: &InterfaceSpec, inputs: bool, by: u64) -> InterfaceSpec {
    let mut spec = spec.clone();
    let ports = if inputs {
        &mut spec.inputs
    } else {
        &mut spec.outputs
    };
    for p in ports {
        p.end += by;
    }
    spec
}

#[test]
fn capture_matches_reference_on_corpus_at_every_period() {
    let mut outcomes = [0usize; 4];
    for (name, src, top) in fil_designs::corpus() {
        // The Reticle registry is a superset of the standard one.
        let (netlist, spec) = compile_request_with(
            &BuildRequest::new(src.as_str()).netlist(top),
            &reticle::ReticleRegistry,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let inputs = random_txns(&spec, 4, name.len() as u64);
        // The declared windows, plus longer output windows (which
        // overlap across transactions and see values change) and longer
        // input windows (which clash on the wire).
        let variants = [
            ("declared", spec.clone()),
            ("outputs+2", stretched(&spec, false, 2)),
            ("inputs+2", stretched(&spec, true, 2)),
        ];
        for (variant, spec) in &variants {
            // Periods up to the horizon include every overlap of output
            // windows a pipelined run can produce.
            for period in 1..=spec.horizon() {
                let got = run_at(&netlist, spec, &inputs, period);
                let want = reference_run_transactions(&netlist, spec, &inputs, period);
                assert_eq!(got, want, "{name} ({variant}) at period {period}");
                outcomes[match want {
                    Ok(_) => 0,
                    Err(HarnessError::InterfaceOverlap { .. }) => 1,
                    Err(HarnessError::UnstableOutput { .. }) => 2,
                    Err(HarnessError::Sim(_)) => 3,
                    Err(e) => panic!("{name} ({variant}) at period {period}: {e}"),
                }] += 1;
            }
        }
    }
    // The sweep must reach success, every capture error and a simulator
    // error, or it is not comparing what it claims to.
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "ok/overlap/unstable/sim outcomes: {outcomes:?}"
    );
}

/// A chain of `depth` registers fed by the constant 1: the last one reads
/// 0 for `depth` cycles, then 1 forever.
fn step_chain(n: &mut Netlist, depth: usize) {
    let one = n.add_signal("one", 8);
    n.add_cell(
        "c1",
        CellKind::Const {
            value: Value::from_u64(8, 1),
        },
        vec![],
        vec![one],
    );
    let mut cur = one;
    for i in 1..=depth {
        let nxt = n.add_signal(format!("r{i}"), 8);
        n.add_cell(
            format!("reg{i}"),
            CellKind::Reg {
                width: 8,
                init: 0,
                has_en: false,
            },
            vec![cur],
            vec![nxt],
        );
        n.mark_output(nxt);
        cur = nxt;
    }
}

#[test]
fn output_changing_mid_window_is_unstable() {
    // r2 reads 0,0,1,1,… and r3 reads 0,0,0,1,…; with two-cycle output
    // windows launched every cycle, r2 changes inside transaction 1's
    // window (cycles 1-2) and r3 inside transaction 2's (cycles 2-3). The
    // lowest (transaction, output) wins, though r3 is listed first.
    let mut n = Netlist::new("steps");
    step_chain(&mut n, 3);
    let spec = InterfaceSpec {
        name: "steps".into(),
        go: None,
        delay: 1,
        inputs: vec![],
        outputs: vec![PortSpec::new("r3", 8, 0, 2), PortSpec::new("r2", 8, 0, 2)],
    };
    let inputs = vec![vec![]; 3];
    let err = run_at(&n, &spec, &inputs, 1).unwrap_err();
    assert_eq!(
        err,
        HarnessError::UnstableOutput {
            port: "r2".into(),
            txn: 1,
        }
    );
    assert_eq!(reference_run_transactions(&n, &spec, &inputs, 1), Err(err));
    // Launched three cycles apart, every window sits on a flat stretch.
    let outs = run_at(&n, &spec, &inputs, 3).unwrap();
    assert_eq!(outs[0], vec![v(8, 0), v(8, 0)]);
    assert_eq!(outs[1], vec![v(8, 1), v(8, 1)]);
}

#[test]
fn empty_output_window_captures_zero() {
    let mut n = Netlist::new("steps");
    step_chain(&mut n, 1);
    let spec = InterfaceSpec {
        name: "steps".into(),
        go: None,
        delay: 1,
        inputs: vec![],
        outputs: vec![PortSpec::new("r1", 8, 2, 2)],
    };
    let outs = run_pipelined(&n, &spec, &[vec![], vec![]]).unwrap();
    assert_eq!(outs, vec![vec![Value::zero(8)], vec![Value::zero(8)]]);
}

/// `filament sim` on a design whose signals are over the simulator's
/// storage budget (three 4e9-bit signals, 500 MB each) reports a
/// diagnostic instead of aborting in an allocation.
#[test]
fn sim_cli_refuses_a_design_over_the_storage_budget() {
    let src = "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 4000000000, \
               @[G, G+1] b: 4000000000) -> (@[G, G+1] o: 4000000000) {
                 s := new Add[4000000000]<G>(a, b);
                 o = s.out;
               }";
    let path = std::env::temp_dir().join(format!("fil-huge-{}.fil", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_filament"))
        .args(["sim", path.to_str().unwrap(), "Main"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!(
            "error: design too large to simulate: 500000014 words of \
             storage at 1 lane(s), over the budget of {}",
            rtl_sim::MAX_WORDS
        )
    );
}
