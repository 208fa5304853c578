//! Seeded generation of well-formed-by-construction parametric Filament.
//!
//! The generator builds a random dataflow DAG and *derives every timeline
//! offset from the schedule it constructs*: each value node carries its
//! availability interval, consumers fire at the max of their operands'
//! ready times, and operands are retimed across gaps with `Delay` chains
//! or a single `Register` bridge — exactly the discipline a Filament
//! programmer follows, so generated programs are checkable, not garbage.
//!
//! Coverage per program (probabilistically):
//!
//! * every combinational stdlib extern plus the three multipliers and the
//!   two state primitives,
//! * literal invocation arguments,
//! * a bundle input with per-index availability windows, passed whole to a
//!   parametric `for`-generate chain subcomponent,
//! * a derived-parameter (`some OW = W + W`) subcomponent whose published
//!   parameter is read back by the caller (`fw.OW`),
//! * an `if`-generate subcomponent selected by a parameter comparison,
//!   plus concrete `if`/`for`-generate blocks in the top body,
//! * initiation intervals above 1 whenever a sequential callee (`Mult`,
//!   `Register`) demands one.
//!
//! Widths stay ≤ 64 so every program is drivable by `BatchSim` and the
//! reference interpreter's machine-word model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The name of every generated top component.
pub const TOP: &str = "FzTop";

/// One generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCase {
    /// The seed that produced it (same seed ⇒ same source, always).
    pub seed: u64,
    /// Filament source text (subcomponents + the concrete [`TOP`]).
    pub source: String,
}

/// Generates the program for `seed`.
pub fn generate(seed: u64) -> GenCase {
    let mut g = Gen::new(seed);
    let source = g.program();
    GenCase { seed, source }
}

const WIDTHS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32];

/// A value in the DAG: where to read it (`expr`), how wide it is, and the
/// half-open cycle interval it is available in.
#[derive(Clone)]
struct Node {
    expr: String,
    width: u64,
    ready: u64,
    end: u64,
}

struct Gen {
    rng: StdRng,
    body: String,
    nodes: Vec<Node>,
    next: usize,
    /// Largest callee delay used — the floor for the top's own delay.
    max_callee_delay: u64,
    /// `(node index, cycle) -> expr` memo so one value retimed twice
    /// shares hardware (keeps programs compact).
    retimed: HashMap<(usize, u64), String>,
    has_chain: bool,
    has_wide: bool,
    has_sel: bool,
    chain_op: &'static str,
    wide_op: &'static str,
    sel_ops: (&'static str, &'static str),
}

const BIN_COMB: &[&str] = &["Add", "Sub", "And", "Or", "Xor", "MultComb", "Shl", "Shr"];

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain_op = BIN_COMB[rng.random_range(0..6usize)];
        let wide_op = BIN_COMB[rng.random_range(0..6usize)];
        let sel_ops = (
            BIN_COMB[rng.random_range(0..6usize)],
            BIN_COMB[rng.random_range(0..6usize)],
        );
        Gen {
            rng,
            body: String::new(),
            nodes: Vec::new(),
            next: 0,
            max_callee_delay: 1,
            retimed: HashMap::new(),
            has_chain: false,
            has_wide: false,
            has_sel: false,
            chain_op,
            wide_op,
            sel_ops,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}{}", self.next)
    }

    fn pick_width(&mut self) -> u64 {
        WIDTHS[self.rng.random_range(0..WIDTHS.len())]
    }

    fn pick_node(&mut self) -> usize {
        self.rng.random_range(0..self.nodes.len())
    }

    /// An expression for node `idx` readable during `[t, t+1)`, inserting
    /// retiming hardware when the node's own window misses `t`.
    fn at(&mut self, idx: usize, t: u64) -> String {
        let node = self.nodes[idx].clone();
        if t >= node.ready && t < node.end {
            return node.expr;
        }
        debug_assert!(t >= node.end, "consumers never fire before producers");
        if let Some(e) = self.retimed.get(&(idx, t)) {
            return e.clone();
        }
        let gap = t - node.ready;
        let expr = if gap >= 2 && self.rng.random_range(0..2) == 0 {
            // One Register holds the value across the whole gap; its
            // parametric delay (`L-(G+1)` = gap) raises the top's floor.
            let name = self.fresh("rg");
            let _ = writeln!(
                self.body,
                "  {name} := new Register[{}]<G+{}, G+{}>({});",
                node.width,
                node.ready,
                t + 1,
                node.expr
            );
            self.max_callee_delay = self.max_callee_delay.max(gap);
            format!("{name}.out")
        } else {
            // One Delay step from the latest cycle we already reached.
            let prev = self.at(idx, t - 1);
            let name = self.fresh("dy");
            let _ = writeln!(
                self.body,
                "  {name} := new Delay[{}]<G+{}>({prev});",
                node.width,
                t - 1
            );
            format!("{name}.out")
        };
        self.retimed.insert((idx, t), expr.clone());
        expr
    }

    /// Node `idx` as a `width`-bit value readable at `t` (ZExt adapts
    /// mismatched widths — widening or truncating, both well-formed).
    fn at_width(&mut self, idx: usize, t: u64, width: u64) -> String {
        let node_width = self.nodes[idx].width;
        let expr = self.at(idx, t);
        if node_width == width {
            return expr;
        }
        let name = self.fresh("zx");
        let _ = writeln!(
            self.body,
            "  {name} := new ZExt[{node_width}, {width}]<G+{t}>({expr});"
        );
        format!("{name}.out")
    }

    fn push_node(&mut self, expr: String, width: u64, ready: u64) -> usize {
        self.nodes.push(Node {
            expr,
            width,
            ready,
            end: ready + 1,
        });
        self.nodes.len() - 1
    }

    /// Emits one random operation over existing nodes.
    fn op(&mut self) {
        match self.rng.random_range(0..100u32) {
            // Two-input combinational op, sometimes under a concrete
            // if-generate (both arms define the same name on the same
            // schedule; only the op differs).
            0..=34 => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at(a, t);
                let eb = if self.rng.random_range(0..5) == 0 {
                    // A literal argument.
                    format!("{}", self.rng.next_u64() & mask(w))
                } else {
                    self.at_width(b, t, w)
                };
                let op = BIN_COMB[self.rng.random_range(0..BIN_COMB.len())];
                let name = self.fresh("n");
                if self.rng.random_range(0..4) == 0 {
                    let alt = BIN_COMB[self.rng.random_range(0..BIN_COMB.len())];
                    let (l, r) = (
                        self.rng.random_range(0..32u64),
                        self.rng.random_range(0..32u64),
                    );
                    let (then_op, else_op) = if l < r { (op, alt) } else { (alt, op) };
                    let _ = writeln!(
                        self.body,
                        "  if {l} < {r} {{\n    {name} := new {then_op}[{w}]<G+{t}>({ea}, {eb});\n  \
                         }} else {{\n    {name} := new {else_op}[{w}]<G+{t}>({ea}, {eb});\n  }}"
                    );
                } else {
                    let _ = writeln!(self.body, "  {name} := new {op}[{w}]<G+{t}>({ea}, {eb});");
                }
                self.push_node(format!("{name}.out"), w, t);
            }
            // Unary ops.
            35..=44 => {
                let a = self.pick_node();
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready;
                let ea = self.at(a, t);
                let (op, ow) = match self.rng.random_range(0..4u32) {
                    0 => ("Not", w),
                    1 => ("Clz", w),
                    2 => ("ReduceOr", 1),
                    _ => ("ReduceAnd", 1),
                };
                let name = self.fresh("n");
                let _ = writeln!(self.body, "  {name} := new {op}[{w}]<G+{t}>({ea});");
                self.push_node(format!("{name}.out"), ow, t);
            }
            // Comparisons (1-bit results feed later Muxes).
            45..=52 => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at(a, t);
                let eb = self.at_width(b, t, w);
                let op = ["Eq", "Lt", "Ge"][self.rng.random_range(0..3usize)];
                let name = self.fresh("n");
                let _ = writeln!(self.body, "  {name} := new {op}[{w}]<G+{t}>({ea}, {eb});");
                self.push_node(format!("{name}.out"), 1, t);
            }
            // Mux: a 1-bit selector (reduced if necessary) picks between
            // two width-aligned values.
            53..=59 => {
                let (s, a, b) = (self.pick_node(), self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[s]
                    .ready
                    .max(self.nodes[a].ready)
                    .max(self.nodes[b].ready);
                let sel = if self.nodes[s].width == 1 {
                    self.at(s, t)
                } else {
                    let sw = self.nodes[s].width;
                    let es = self.at(s, t);
                    let rn = self.fresh("n");
                    let _ = writeln!(self.body, "  {rn} := new ReduceOr[{sw}]<G+{t}>({es});");
                    format!("{rn}.out")
                };
                let ea = self.at(a, t);
                let eb = self.at_width(b, t, w);
                let name = self.fresh("n");
                let _ = writeln!(
                    self.body,
                    "  {name} := new Mux[{w}]<G+{t}>({sel}, {ea}, {eb});"
                );
                self.push_node(format!("{name}.out"), w, t);
            }
            // Bit plumbing: Slice / Concat / constant shifts / SBox.
            60..=74 => {
                let a = self.pick_node();
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready;
                match self.rng.random_range(0..4u32) {
                    0 if w >= 2 => {
                        let hi = self.rng.random_range(1..w);
                        let lo = self.rng.random_range(0..=hi);
                        let ea = self.at(a, t);
                        let name = self.fresh("n");
                        let _ = writeln!(
                            self.body,
                            "  {name} := new Slice[{w}, {hi}, {lo}]<G+{t}>({ea});"
                        );
                        self.push_node(format!("{name}.out"), hi - lo + 1, t);
                    }
                    1 => {
                        let b = self.pick_node();
                        let wb = self.nodes[b].width;
                        if w + wb <= 64 {
                            let t = t.max(self.nodes[b].ready);
                            let ea = self.at(a, t);
                            let eb = self.at(b, t);
                            let name = self.fresh("n");
                            let _ = writeln!(
                                self.body,
                                "  {name} := new Concat[{w}, {wb}]<G+{t}>({ea}, {eb});"
                            );
                            self.push_node(format!("{name}.out"), w + wb, t);
                        }
                    }
                    2 => {
                        let amt = self.rng.random_range(0..w.max(2));
                        let op = if self.rng.random_range(0..2) == 0 {
                            "ShlConst"
                        } else {
                            "ShrConst"
                        };
                        let ea = self.at(a, t);
                        let name = self.fresh("n");
                        let _ =
                            writeln!(self.body, "  {name} := new {op}[{w}, {amt}]<G+{t}>({ea});");
                        self.push_node(format!("{name}.out"), w, t);
                    }
                    _ => {
                        let ea = self.at_width(a, t, 8);
                        let name = self.fresh("n");
                        let _ = writeln!(self.body, "  {name} := new SBox<G+{t}>({ea});");
                        self.push_node(format!("{name}.out"), 8, t);
                    }
                }
            }
            // Multipliers: same function, three schedules.
            75..=84 => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at(a, t);
                let eb = self.at_width(b, t, w);
                let (op, lat, delay) = match self.rng.random_range(0..3u32) {
                    0 => ("Mult", 2, 3),
                    1 => ("FastMult", 2, 1),
                    _ => ("LogiMult", 3, 1),
                };
                self.max_callee_delay = self.max_callee_delay.max(delay);
                let name = self.fresh("n");
                let _ = writeln!(self.body, "  {name} := new {op}[{w}]<G+{t}>({ea}, {eb});");
                self.push_node(format!("{name}.out"), w, t + lat);
            }
            // A concrete for-generate Delay tower over one value.
            85..=89 => {
                let a = self.pick_node();
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready;
                let depth = self.rng.random_range(2..5u64);
                let ea = self.at(a, t);
                let name = self.fresh("tw");
                let _ = writeln!(
                    self.body,
                    "  {name}[0] := new Delay[{w}]<G+{t}>({ea});\n  for i in 1..{depth} {{\n    \
                     {name}[i] := new Delay[{w}]<G+({t}+i)>({name}[i-1].out);\n  }}"
                );
                self.push_node(format!("{name}[{}].out", depth - 1), w, t + depth);
            }
            // Derived-param subcomponent; the caller reads `inst.OW` back.
            90..=93 if self.has_wide => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width.min(32);
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at_width(a, t, w);
                let eb = self.at_width(b, t, w);
                let name = self.fresh("fw");
                let _ = writeln!(self.body, "  {name} := new FzWide[{w}]<G+{t}>({ea}, {eb});");
                let idx = self.push_node(format!("{name}.out"), 2 * w, t + 1);
                if self.rng.random_range(0..2) == 0 {
                    // Read the published derived parameter instead of
                    // repeating the constant.
                    let dn = self.fresh("dw");
                    let _ = writeln!(
                        self.body,
                        "  {dn} := new Delay[{name}.OW]<G+{}>({name}.out);",
                        t + 1
                    );
                    self.push_node(format!("{dn}.out"), 2 * w, t + 2);
                }
                let _ = idx;
            }
            // If-generate subcomponent: a parameter comparison picks the op.
            _ if self.has_sel => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at(a, t);
                let eb = self.at_width(b, t, w);
                let m = self.rng.random_range(0..16u64);
                let name = self.fresh("sl");
                let _ = writeln!(
                    self.body,
                    "  {name} := new FzSel[{w}, {m}]<G+{t}>({ea}, {eb});"
                );
                self.push_node(format!("{name}.out"), w, t);
            }
            // Subcomponent disabled this program: plain Xor instead.
            _ => {
                let (a, b) = (self.pick_node(), self.pick_node());
                let w = self.nodes[a].width;
                let t = self.nodes[a].ready.max(self.nodes[b].ready);
                let ea = self.at(a, t);
                let eb = self.at_width(b, t, w);
                let name = self.fresh("n");
                let _ = writeln!(self.body, "  {name} := new Xor[{w}]<G+{t}>({ea}, {eb});");
                self.push_node(format!("{name}.out"), w, t);
            }
        }
    }

    fn program(&mut self) -> String {
        self.has_chain = self.rng.random_range(0..2) == 0;
        self.has_wide = self.rng.random_range(0..2) == 0;
        self.has_sel = self.rng.random_range(0..2) == 0;

        // Top inputs: 2-4 scalars, plus (usually, when the chain
        // subcomponent is in play) a bundle with per-index windows.
        let n_scalar = self.rng.random_range(2..5usize);
        let mut sig_inputs = Vec::new();
        for i in 0..n_scalar {
            let w = self.pick_width();
            sig_inputs.push(format!("@[G, G+1] x{i}: {w}"));
            self.push_node(format!("x{i}"), w, 0);
        }
        let bundle = if self.has_chain {
            let b = self.rng.random_range(2..5u64);
            let w = self.pick_width();
            sig_inputs.push(format!("@[G+k, G+(k+1)] xs[k: 0..{b}]: {w}"));
            for k in 0..b {
                self.nodes.push(Node {
                    expr: format!("xs[{k}]"),
                    width: w,
                    ready: k,
                    end: k + 1,
                });
            }
            Some((b, w))
        } else {
            None
        };

        // The whole-bundle chain invocation, when a bundle exists.
        if let Some((b, w)) = bundle {
            if self.rng.random_range(0..4) != 0 {
                let name = self.fresh("ch");
                let _ = writeln!(self.body, "  {name} := new FzChain[{b}, {w}]<G>(xs);");
                self.push_node(format!("{name}.out"), w, b - 1);
            }
        }

        let ops = self.rng.random_range(4..12usize);
        for _ in 0..ops {
            self.op();
        }

        // Outputs: the final node plus up to two random earlier ones.
        let mut picks = vec![self.nodes.len() - 1];
        for _ in 0..self.rng.random_range(0..3usize) {
            let p = self.pick_node();
            if !picks.contains(&p) {
                picks.push(p);
            }
        }
        let mut sig_outputs = Vec::new();
        let mut connects = String::new();
        for (j, &idx) in picks.iter().enumerate() {
            let n = self.nodes[idx].clone();
            sig_outputs.push(format!(
                "@[G+{}, G+{}] o{j}: {}",
                n.ready,
                n.ready + 1,
                n.width
            ));
            let expr = self.at(idx, n.ready);
            let _ = writeln!(connects, "  o{j} = {expr};");
        }

        let mut src = String::new();
        if self.has_chain {
            let op = self.chain_op;
            let _ = write!(
                src,
                "comp FzChain[N, W]<G: 1>(@[G+k, G+(k+1)] xs[k: 0..N]: W)
    -> (@[G+(N-1), G+N] out: W) {{
  acc[0] := new Delay[W]<G>(xs[0]);
  for i in 1..N {{
    st[i] := new {op}[W]<G+i>(acc[i-1].out, xs[i]);
    if i < N-1 {{
      acc[i] := new Delay[W]<G+i>(st[i].out);
    }}
  }}
  out = st[N-1].out;
}}
"
            );
        }
        if self.has_wide {
            let op = self.wide_op;
            let _ = write!(
                src,
                "comp FzWide[W, some OW = W + W]<G: 1>(@[G, G+1] a: W, @[G, G+1] b: W)
    -> (@[G+1, G+2] out: OW) {{
  m := new {op}[W]<G>(a, b);
  c := new Concat[W, W]<G>(a, m.out);
  d := new Delay[OW]<G>(c.out);
  out = d.out;
}}
"
            );
        }
        if self.has_sel {
            let (op1, op2) = self.sel_ops;
            let cmp = ["<", "==", ">="][self.rng.random_range(0..3usize)];
            let k = self.rng.random_range(0..16u64);
            let _ = write!(
                src,
                "comp FzSel[W, M]<G: 1>(@[G, G+1] a: W, @[G, G+1] b: W)
    -> (@[G, G+1] out: W) {{
  if M {cmp} {k} {{
    o1 := new {op1}[W]<G>(a, b);
    out = o1.out;
  }} else {{
    o2 := new {op2}[W]<G>(a, b);
    out = o2.out;
  }}
}}
"
            );
        }
        let delay = self.max_callee_delay.max(1);
        let _ = write!(
            src,
            "comp {TOP}<G: {delay}>(@interface[G] go: 1, {})
    -> ({}) {{\n{}{}}}\n",
            sig_inputs.join(", "),
            sig_outputs.join(", "),
            self.body,
            connects
        );
        src
    }
}

fn mask(w: u64) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xf17] {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
        assert_ne!(generate(1).source, generate(2).source);
    }

    #[test]
    fn generated_programs_build_clean() {
        for seed in 0..30u64 {
            let case = generate(seed);
            let req = fil_build::BuildRequest::new(case.source.clone()).netlist(TOP);
            if let Err(e) = crate::compile_request(&req) {
                panic!("seed {seed} failed to build: {e}\n{}", case.source);
            }
        }
    }
}
