//! Naively-generated weighted-sum kernels: the optimizer's motivating
//! corpus.
//!
//! Generator back ends (and unrolled `for`-generates) routinely emit
//! straight-line code with redundancy a human would never write: a
//! multiplier per tap even when the coefficient is 0 or 1, an adder per
//! tap even when the addend is constant zero, zero-extensions to the
//! accumulator width that turn out to be identities, and one product cell
//! *per use* even when adjacent outputs share the same term. Both designs
//! here are written in exactly that style, combinationally (a phantom
//! top event, so lowering emits unguarded wires — Section 5.4), which is
//! what `fil-opt` is built to clean up:
//!
//! * [`naive_source`] — an 8-tap weighted sum whose coefficient vector is
//!   sparse (zeros), trivial (ones), and power-of-two heavy; const-fold
//!   kills the zero taps, strength reduction turns the rest into wires
//!   and shifts.
//! * [`stencil_source`] — a 1-D 3-tap stencil
//!   `y[i] = 3·x[i-1] + 2·x[i] + 3·x[i+1]` with zero boundary padding;
//!   each output recomputes its neighbours' products, so CSE (at `-O2`)
//!   merges the duplicates and const-fold deletes the padded boundary
//!   cones.

use std::fmt::Write as _;

/// The 8-tap coefficient vector: sparse, trivial, and power-of-two heavy,
/// like a quantized filter kernel.
pub const WSUM_WEIGHTS: [u64; 8] = [0, 1, 4, 5, 0, 2, 0, 1];

/// An 8-tap weighted sum in naive generated style: one `MultComb` per tap
/// (coefficient 0 and 1 included) and a linear adder chain.
pub fn naive_source(width: u32) -> String {
    let mut s = String::new();
    let ports: Vec<String> = (0..WSUM_WEIGHTS.len())
        .map(|i| format!("@[G, G+1] x{i}: {width}"))
        .collect();
    writeln!(
        s,
        "comp WSum8<G: 1>({}) -> (@[G, G+1] y: {width}) {{",
        ports.join(", ")
    )
    .unwrap();
    for (i, w) in WSUM_WEIGHTS.iter().enumerate() {
        writeln!(s, "  m{i} := new MultComb[{width}]<G>(x{i}, {w});").unwrap();
    }
    let mut acc = "m0.out".to_owned();
    for i in 1..WSUM_WEIGHTS.len() {
        writeln!(s, "  s{i} := new Add[{width}]<G>({acc}, m{i}.out);").unwrap();
        acc = format!("s{i}.out");
    }
    writeln!(s, "  y = {acc};").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// A 1-D 3-tap stencil over `n` points, zero-padded at the boundary, in
/// naive generated style: every output materializes its own three product
/// cells (duplicating its neighbours'), its own adder pair, and a
/// same-width "extension" to the accumulator width. Top: `Stencil{n}`.
pub fn stencil_source(n: usize, width: u32) -> String {
    assert!(n >= 2, "a stencil needs at least two points");
    let mut s = String::new();
    let ins: Vec<String> = (0..n).map(|i| format!("@[G, G+1] x{i}: {width}")).collect();
    let outs: Vec<String> = (0..n).map(|i| format!("@[G, G+1] y{i}: {width}")).collect();
    writeln!(
        s,
        "comp Stencil{n}<G: 1>({}) -> ({}) {{",
        ins.join(", "),
        outs.join(", ")
    )
    .unwrap();
    // x[-1] and x[n] read as the constant 0 (the generator pads rather
    // than specializing the boundary outputs).
    let tap = |i: isize| -> String {
        if i < 0 || i as usize >= n {
            "0".to_owned()
        } else {
            format!("x{i}")
        }
    };
    for i in 0..n as isize {
        writeln!(s, "  l{i} := new MultComb[{width}]<G>({}, 3);", tap(i - 1)).unwrap();
        writeln!(s, "  c{i} := new MultComb[{width}]<G>({}, 2);", tap(i)).unwrap();
        writeln!(s, "  r{i} := new MultComb[{width}]<G>({}, 3);", tap(i + 1)).unwrap();
        writeln!(s, "  t{i} := new Add[{width}]<G>(l{i}.out, c{i}.out);").unwrap();
        writeln!(s, "  a{i} := new Add[{width}]<G>(t{i}.out, r{i}.out);").unwrap();
        writeln!(s, "  e{i} := new ZExt[{width}, {width}]<G>(a{i}.out);").unwrap();
        writeln!(s, "  y{i} = e{i}.out;").unwrap();
    }
    writeln!(s, "}}").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model shared by both designs' golden tests.
    fn wsum(xs: &[u64], ws: &[u64], width: u32) -> u64 {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        xs.iter()
            .zip(ws)
            .fold(0u64, |a, (x, w)| a.wrapping_add(x.wrapping_mul(*w)))
            & mask
    }

    #[test]
    fn naive_wsum_matches_the_reference_model() {
        let (netlist, spec) = crate::build(&naive_source(16), "WSum8").unwrap();
        fil_harness::fuzz_against_golden(
            &netlist,
            &spec,
            |ins| {
                let xs: Vec<u64> = ins.iter().map(|v| v.limbs()[0]).collect();
                vec![fil_bits::Value::from_u64(16, wsum(&xs, &WSUM_WEIGHTS, 16))]
            },
            24,
            0xB5,
        )
        .unwrap();
    }

    #[test]
    fn naive_stencil_matches_the_reference_model() {
        let n = 5;
        let (netlist, spec) = crate::build(&stencil_source(n, 12), "Stencil5").unwrap();
        fil_harness::fuzz_against_golden(
            &netlist,
            &spec,
            |ins| {
                let xs: Vec<u64> = ins.iter().map(|v| v.limbs()[0]).collect();
                (0..n as isize)
                    .map(|i| {
                        let tap = |j: isize| {
                            if j < 0 || j as usize >= n {
                                0
                            } else {
                                xs[j as usize]
                            }
                        };
                        let y = wsum(&[tap(i - 1), tap(i), tap(i + 1)], &[3, 2, 3], 12);
                        fil_bits::Value::from_u64(12, y)
                    })
                    .collect()
            },
            24,
            0xB6,
        )
        .unwrap();
    }
}
