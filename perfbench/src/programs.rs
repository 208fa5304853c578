//! The seeded stream of programs that `compile-cold` builds and
//! `serve-mix` sends, and the software models their builds are checked
//! against.
//!
//! The stream comes in blocks of four: three `fuzz::gen` programs (small,
//! feature-diverse, never repeated) and one parametric-generator program
//! (larger, heavy in check and lower) at a seeded position. Generator
//! families rotate through a fixed 24-slot round, so the family mix is the
//! same for every seed and at every point of a run however fast it goes.
//! Each family draws its parameters from a seeded, size-stratified shuffle
//! of all its variants and reshuffles when they run out: a generator
//! program repeats only after every variant of its family was drawn, and
//! at least 93 programs later (`AesFil[R≤3]`, one slot per 96-program
//! round, has the fewest variants) — beyond the 32 entries of the
//! process-wide netlist cache, which therefore never answers.

use crate::util::{mask, Digest, Rng};
use fil_bits::Value;
use fil_build::BuildRequest;
use fil_harness::interp::Interp;
use fil_harness::InterfaceSpec;
use std::collections::HashSet;

/// How a program's outputs are predicted.
#[derive(Clone, Debug)]
pub enum Model {
    /// Stateless per-transaction semantics: the reference interpreter over
    /// the reference monomorphizer's expansion (`mono::expand`), which
    /// never touches the driver, `lower`, `fil-opt` or `rtl-sim`.
    Interp,
    /// `Systolic[N, W]`: accumulators over the skewed streams.
    Systolic { n: usize, w: u32 },
}

#[derive(Clone, Debug)]
pub struct Prog {
    pub source: String,
    pub top: String,
    pub model: Model,
}

impl Prog {
    /// The request `compile-cold` builds: netlist and Verilog at `-O2`,
    /// one job, no artifact cache.
    pub fn request(&self) -> BuildRequest {
        BuildRequest::new(self.source.clone())
            .netlist(&self.top)
            .verilog()
            .opt_level(2)
            .jobs(1)
    }
}

/// Generator families: Systolic, Enc, Chain, Taps, Alu, WSum, Stencil,
/// AesFil.
const FAMILIES: usize = 8;

/// The fixed 24-slot round of generator families, each spread evenly:
/// Systolic 6, Stencil 5, Enc 3, Chain 3, Taps 3, Alu 2, WSum 1, AesFil 1.
/// Evenly spread, a family's programs are about 96 / (its slots)
/// programs apart.
const ROUND: [usize; 24] = [
    0, 6, 1, 2, 0, 3, 6, 4, 0, 1, 6, 2, 0, 3, 7, 0, 6, 1, 2, 0, 3, 6, 4, 5,
];

/// A family's `(size, other)` parameter grid, in draw order: every size
/// once per pass (seeded order), passes over the other parameter in
/// seeded order. Sizes are stratified, so the size mix of any run prefix
/// barely depends on the seed.
fn variants(family: usize, rng: &mut Rng) -> Vec<(u64, u64)> {
    let (sizes, others) = match family {
        0 => (2..=8, 4..=64),  // Systolic[N, W]
        1 => (2..=64, 1..=4),  // Enc[N] behind a D-deep delay
        2 => (1..=16, 1..=64), // Chain[W, D]: (D, W)
        3 => (1..=16, 1..=64), // Taps[W, D]: (D, W)
        4 => (1..=64, 0..=0),  // Alu[W]
        5 => (3..=64, 0..=0),  // WSum8 at width W (weights need 3 bits)
        6 => (2..=16, 2..=64), // Stencil[N] at width W (weights need 2 bits)
        _ => (1..=3, 0..=0),   // AesFil[R]
    };
    let mut others: Vec<u64> = others.collect();
    rng.shuffle(&mut others);
    let mut out = Vec::new();
    for b in others {
        let mut pass: Vec<(u64, u64)> = sizes.clone().map(|a| (a, b)).collect();
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    // Drawn from the back.
    out.reverse();
    out
}

fn family_prog(family: usize, (a, b): (u64, u64)) -> Prog {
    use fil_designs::{alu, encoder, shift, systolic, wsum};
    let (source, top, model) = match family {
        0 => (
            systolic::source(a, b),
            systolic::top_name(a),
            Model::Systolic {
                n: a as usize,
                w: b as u32,
            },
        ),
        1 => {
            let w = encoder::ceil_log2(a);
            let end = b + 1;
            let mut s = format!(
                "{}\ncomp EncTop{a}x{b}<G: 1>(@[G, G+1] x: {a}) -> (@[G+{b}, G+{end}] out: {w}, \
                 @[G+{b}, G+{end}] valid: 1) {{\n  e := new Enc[{a}]<G>(x);\n",
                encoder::ENCODER
            );
            let (mut o, mut v) = ("e.out".to_string(), "e.valid".to_string());
            for k in 0..b {
                s.push_str(&format!(
                    "  d{k} := new Delay[{w}]<G+{k}>({o});\n  v{k} := new Delay[1]<G+{k}>({v});\n"
                ));
                o = format!("d{k}.out");
                v = format!("v{k}.out");
            }
            s.push_str(&format!("  out = {o};\n  valid = {v};\n}}\n"));
            (s, format!("EncTop{a}x{b}"), Model::Interp)
        }
        2 => (shift::source(b, a), shift::top_name(b, a), Model::Interp),
        3 => (
            shift::taps_source(b, a),
            shift::taps_top_name(b, a),
            Model::Interp,
        ),
        4 => (alu::param_source(a), format!("Alu{a}"), Model::Interp),
        5 => (wsum::naive_source(a as u32), "WSum8".into(), Model::Interp),
        6 => (
            wsum::stencil_source(a as usize, b as u32),
            format!("Stencil{a}"),
            Model::Interp,
        ),
        _ => (
            pipelinec::aes_fil::source(a as u32),
            pipelinec::aes_fil::top_name(a as u32),
            Model::Interp,
        ),
    };
    Prog { source, top, model }
}

fn source_hash(source: &str) -> u64 {
    let mut d = Digest::new();
    d.bytes(source.as_bytes());
    d.value()
}

pub struct Stream {
    rng: Rng,
    /// Hashes of the fuzz sources drawn so far and of excluded programs
    /// (hashes, so the benchmark's own memory stays flat however long it
    /// runs).
    seen: HashSet<u64>,
    queues: Vec<Vec<(u64, u64)>>,
    slot: usize,
    block: [bool; 4],
    pos: usize,
}

impl Stream {
    pub fn new(seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed),
            seen: HashSet::new(),
            queues: vec![Vec::new(); FAMILIES],
            slot: 0,
            block: [false; 4],
            pos: 4,
        }
    }

    pub fn next_prog(&mut self) -> Prog {
        if self.pos == 4 {
            self.block = [false; 4];
            self.block[self.rng.below(4) as usize] = true;
            self.pos = 0;
        }
        let family_slot = self.block[self.pos];
        self.pos += 1;
        if !family_slot {
            return self.next_fuzz();
        }
        loop {
            let prog = self.next_family();
            if !self.seen.contains(&source_hash(&prog.source)) {
                return prog;
            }
        }
    }

    /// The next `fuzz::gen` program, never one drawn before.
    pub fn next_fuzz(&mut self) -> Prog {
        loop {
            let case = fil_harness::fuzz::gen::generate(self.rng.next_u64());
            if self.seen.insert(source_hash(&case.source)) {
                return Prog {
                    source: case.source,
                    top: fil_harness::fuzz::gen::TOP.to_string(),
                    model: Model::Interp,
                };
            }
        }
    }

    /// Never draws any of `progs`.
    pub fn exclude(&mut self, progs: &[Prog]) {
        self.seen
            .extend(progs.iter().map(|p| source_hash(&p.source)));
    }

    fn next_family(&mut self) -> Prog {
        let family = ROUND[self.slot % ROUND.len()];
        self.slot += 1;
        if self.queues[family].is_empty() {
            self.queues[family] = variants(family, &mut self.rng);
        }
        let params = self.queues[family].pop().expect("refilled above");
        family_prog(family, params)
    }
}

/// Random transactions for `spec` (every port at most 64 bits wide).
pub fn random_inputs(spec: &InterfaceSpec, txns: usize, rng: &mut Rng) -> Vec<Vec<Value>> {
    (0..txns)
        .map(|_| {
            spec.inputs
                .iter()
                .map(|p| Value::from_u64(p.width, rng.bits(p.width)))
                .collect()
        })
        .collect()
}

pub fn digest_inputs(d: &mut Digest, inputs: &[Vec<Value>]) {
    for txn in inputs {
        for v in txn {
            for limb in v.limbs() {
                d.u64(*limb);
            }
        }
    }
}

/// The expected outputs of `inputs` run as pipelined transactions.
pub fn expected(
    prog: &Prog,
    spec: &InterfaceSpec,
    inputs: &[Vec<Value>],
) -> Result<Vec<Vec<Value>>, String> {
    match &prog.model {
        Model::Interp => {
            let raw =
                fil_stdlib::build(&BuildRequest::new(prog.source.clone()).raw().expanded(false))
                    .map_err(|e| e.to_string())?
                    .raw
                    .ok_or("raw program missing")?;
            let expanded = filament_core::expand(&raw).map_err(|e| e.to_string())?;
            let interp = Interp::new(&expanded);
            inputs
                .iter()
                .map(|txn| interp.eval(&prog.top, txn).map_err(|e| e.to_string()))
                .collect()
        }
        Model::Systolic { n, w } => {
            let stream = |port: &str, i: usize| -> Vec<u64> {
                let idx = spec
                    .inputs
                    .iter()
                    .position(|p| p.name == format!("{port}_{i}"))
                    .expect("systolic lane port");
                inputs.iter().map(|t| t[idx].to_u64()).collect()
            };
            let left: Vec<Vec<u64>> = (0..*n).map(|i| stream("left", i)).collect();
            let top: Vec<Vec<u64>> = (0..*n).map(|i| stream("top", i)).collect();
            let accs = systolic_model(*n, *w, &left, &top);
            Ok(accs
                .into_iter()
                .map(|acc| {
                    spec.outputs
                        .iter()
                        .map(|p| {
                            let k: usize =
                                p.name.trim_start_matches("out_").parse().expect("out_k");
                            Value::from_u64(p.width, acc[k])
                        })
                        .collect()
                })
                .collect())
        }
    }
}

/// Accumulator values after each transaction of a `Systolic[n, w]` array
/// driven one transaction per cycle: PE(i, j) adds
/// `left[i][k-j] * top[j][k-i]` at step `k`.
pub fn systolic_model(n: usize, w: u32, left: &[Vec<u64>], top: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let m = mask(w);
    let get = |s: &[u64], k: isize| if k < 0 { 0 } else { s[k as usize] };
    let steps = left[0].len();
    let mut acc = vec![0u64; n * n];
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps as isize {
        for i in 0..n {
            for j in 0..n {
                let p = get(&left[i], k - j as isize).wrapping_mul(get(&top[j], k - i as isize));
                acc[i * n + j] = acc[i * n + j].wrapping_add(p) & m;
            }
        }
        out.push(acc.clone());
    }
    out
}

/// Compares simulated against expected outputs.
pub fn compare(what: &str, got: &[Vec<Value>], want: &[Vec<Value>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} results, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!("{what}: transaction {k} got {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// Flips the low bit of the first expected value (the selftest's
/// deliberate corruption).
pub fn corrupt(want: &mut [Vec<Value>]) {
    if let Some(v) = want.first_mut().and_then(|t| t.first_mut()) {
        *v = Value::from_u64(v.width(), v.to_u64() ^ 1);
    }
}
