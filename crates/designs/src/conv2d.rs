//! Section 7.2's two-dimensional convolution designs (Table 2).
//!
//! The architecture mirrors the Aetherling-derived structure (Figure 8):
//! a `Stencil` line buffer built from `ContPrev` stream registers supplies
//! the last 11 pixels of the stream; a kernel combines the nine 3×3 window
//! taps with the blur weights `[1 2 1; 2 4 2; 1 2 1]` and scales by 1/16.
//!
//! * **Design 1** ([`base_source`]): LogiCORE-style pipelined multipliers
//!   (latency 3) feeding a partially-registered 16-bit adder tree — 9 DSPs,
//!   the 833 MHz point of Table 2.
//! * **Design 2** ([`reticle_source`]): three Reticle DSP-cascade `Tdot`
//!   units, one per kernel row, with inputs *staggered* through `Delay`
//!   registers exactly as the cascade's timeline type demands — an order of
//!   magnitude fewer LUTs, bounded by the DSP cascade's ≈645 MHz ceiling.
//!
//! Both designs are continuous pipelines over a phantom event (Section 5.4):
//! the compiled hardware has no FSMs and no guards.

use std::fmt::Write as _;

/// Kernel weights, row-major (a 3×3 binomial blur; sum = 16).
pub const WEIGHTS: [[u64; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];

/// Image width used throughout the evaluation (the paper's 4×4 matrix).
pub const IMAGE_WIDTH: usize = 4;

/// Stencil depth: two full rows plus three pixels.
pub const STENCIL_DEPTH: usize = 2 * IMAGE_WIDTH + 3;

/// Emits the `Stencil` component: a chain of `ContPrev` stream registers
/// (Figure 8a). `tap0` is the newest pixel; `tapN` arrived `N` cycles ago.
/// With `phantom = false`, the stencil takes an interface port and uses
/// enabled `Prev` registers instead — the §5.4 ablation.
fn stencil_source_impl(phantom: bool) -> String {
    let mut s = String::new();
    let taps: Vec<String> = (0..STENCIL_DEPTH)
        .map(|i| format!("@[G, G+1] tap{i}: 8"))
        .collect();
    let iface = if phantom { "" } else { "@interface[G] go: 1, " };
    writeln!(
        s,
        "comp Stencil<G: 1>({iface}@[G, G+1] pixel: 8) -> ({}) {{",
        taps.join(", ")
    )
    .unwrap();
    writeln!(s, "  tap0 = pixel;").unwrap();
    let prim = if phantom { "ContPrev" } else { "Prev" };
    let mut prev = "pixel".to_owned();
    for i in 1..STENCIL_DEPTH {
        writeln!(s, "  p{i} := new {prim}[8, 1]<G>({prev});").unwrap();
        writeln!(s, "  tap{i} = p{i}.out;").unwrap();
        prev = format!("p{i}.out");
    }
    writeln!(s, "}}").unwrap();
    s
}

fn stencil_source() -> String {
    stencil_source_impl(true)
}

/// Window tap index (into the stencil) for kernel position (row, col):
/// row-relative offsets of `IMAGE_WIDTH`, column offsets of 1. `(0,0)` is
/// the oldest pixel (top-left of the window).
fn tap_index(row: usize, col: usize) -> usize {
    (2 - row) * IMAGE_WIDTH + (2 - col)
}

/// Design 1: pipelined multipliers + 16-bit adder tree.
///
/// Timeline: taps at `[G, G+1)` → `LogiMult` products at `[G+3, G+4)` →
/// two combinational tree levels → `Delay` → two more levels → output at
/// `[G+4, G+5)`.
pub fn base_source() -> String {
    base_source_impl(true)
}

/// The §5.4 ablation: the *same* conv2d with a real interface port instead
/// of a phantom event. The compiler must now reify the event as an FSM and
/// synthesize guards for every invocation — the overhead phantom events
/// avoid ("Filament generated code for continuous pipelines matches
/// expert-written code").
pub fn base_source_interfaced() -> String {
    base_source_impl(false)
}

fn base_source_impl(phantom: bool) -> String {
    let mut s = stencil_source_impl(phantom);
    let iface = if phantom { "" } else { "@interface[G] go: 1, " };
    writeln!(
        s,
        "comp Conv2d<G: 1>({iface}@[G, G+1] pixel: 8) -> (@[G+4, G+5] out: 8) {{"
    )
    .unwrap();
    writeln!(s, "  st := new Stencil<G>(pixel);").unwrap();
    // Nine weighted products at 16 bits.
    let mut prods = Vec::new();
    for (r, row) in WEIGHTS.iter().enumerate() {
        for (c, &w) in row.iter().enumerate() {
            let i = r * 3 + c;
            let tap = tap_index(r, c);
            writeln!(s, "  z{i} := new ZExt[8, 16]<G>(st.tap{tap});").unwrap();
            writeln!(s, "  m{i} := new LogiMult[16]<G>(z{i}.out, {w});").unwrap();
            prods.push(format!("m{i}.out"));
        }
    }
    // Tree levels 1–2 (combinational, at G+3): 9 → 5 → 3.
    let mut level = prods;
    for (lvl, sched) in [(1u32, 3u64), (2, 3), (3, 4), (4, 4)] {
        let mut next = Vec::new();
        let mut it = level.chunks(2);
        for (j, pair) in it.by_ref().enumerate() {
            if pair.len() == 2 {
                writeln!(
                    s,
                    "  t{lvl}_{j} := new Add[16]<G+{sched}>({}, {});",
                    pair[0], pair[1]
                )
                .unwrap();
                next.push(format!("t{lvl}_{j}.out"));
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
        // Register the three survivors of level 2 before the final levels.
        if lvl == 2 {
            let mut regged = Vec::new();
            for (j, v) in level.iter().enumerate() {
                writeln!(s, "  d{j} := new Delay[16]<G+3>({v});").unwrap();
                regged.push(format!("d{j}.out"));
            }
            level = regged;
        }
    }
    assert_eq!(level.len(), 1);
    // Scale by 1/16 and truncate to 8 bits.
    writeln!(s, "  sh := new ShrConst[16, 4]<G+4>({});", level[0]).unwrap();
    writeln!(s, "  tr := new Slice[16, 7, 0]<G+4>(sh.out);").unwrap();
    writeln!(s, "  out = tr.out;").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// Design 2: three Reticle `Tdot` DSP cascades, one per kernel row.
///
/// Each cascade wants its elements staggered one cycle apart, so taps for
/// columns 1 and 2 pass through one and two `Delay` registers — 9 extra
/// register cells in total, matching Table 2's register count. Row partial
/// sums (all at `[G+5, G+6)`) combine with two 12-bit adders.
pub fn reticle_source() -> String {
    let mut s = format!("{}{}", reticle::TDOT_SIG, stencil_source());
    writeln!(
        s,
        "comp Conv2dReticle<G: 1>(@[G, G+1] pixel: 8) -> (@[G+5, G+6] out: 8) {{"
    )
    .unwrap();
    writeln!(s, "  st := new Stencil<G>(pixel);").unwrap();
    let mut partials = Vec::new();
    for (r, wrow) in WEIGHTS.iter().enumerate() {
        // Column 0: direct at G.
        let t0 = tap_index(r, 0);
        writeln!(s, "  x{r}0 := new ZExt[8, 12]<G>(st.tap{t0});").unwrap();
        // Column 1: one Delay → valid [G+1, G+2).
        let t1 = tap_index(r, 1);
        writeln!(s, "  x{r}1 := new ZExt[8, 12]<G>(st.tap{t1});").unwrap();
        writeln!(s, "  s{r}1 := new Delay[12]<G>(x{r}1.out);").unwrap();
        // Column 2: two Delays → valid [G+2, G+3).
        let t2 = tap_index(r, 2);
        writeln!(s, "  x{r}2 := new ZExt[8, 12]<G>(st.tap{t2});").unwrap();
        writeln!(s, "  s{r}2a := new Delay[12]<G>(x{r}2.out);").unwrap();
        writeln!(s, "  s{r}2b := new Delay[12]<G+1>(s{r}2a.out);").unwrap();
        writeln!(
            s,
            "  td{r} := new Tdot[12]<G>(x{r}0.out, {}, s{r}1.out, {}, s{r}2b.out, {}, 0);",
            wrow[0], wrow[1], wrow[2]
        )
        .unwrap();
        partials.push(format!("td{r}.y"));
    }
    writeln!(
        s,
        "  sum01 := new Add[12]<G+5>({}, {});",
        partials[0], partials[1]
    )
    .unwrap();
    writeln!(s, "  sum := new Add[12]<G+5>(sum01.out, {});", partials[2]).unwrap();
    writeln!(s, "  sh := new ShrConst[12, 4]<G+5>(sum.out);").unwrap();
    writeln!(s, "  tr := new Slice[12, 7, 0]<G+5>(sh.out);").unwrap();
    writeln!(s, "  out = tr.out;").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// Software golden model over a pixel stream: for each cycle `t`, the
/// convolution of the window ending at pixel `t` (positions `t-10 … t`),
/// scaled by 1/16 and truncated to 8 bits. Entries before the stencil is
/// warm (`t < 10`) depend on the zero-initialized stencil, which the model
/// reproduces by treating earlier pixels as 0.
pub fn golden_stream(pixels: &[u8]) -> Vec<u8> {
    let get = |i: isize| -> u64 {
        if i < 0 {
            0
        } else {
            pixels.get(i as usize).copied().unwrap_or(0) as u64
        }
    };
    (0..pixels.len())
        .map(|t| {
            let mut acc = 0u64;
            for (r, row) in WEIGHTS.iter().enumerate() {
                for (c, &w) in row.iter().enumerate() {
                    let lag = tap_index(r, c) as isize;
                    acc += w * get(t as isize - lag);
                }
            }
            ((acc >> 4) & 0xff) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, build_with};
    use fil_bits::Value;
    use fil_harness::run_pipelined;
    use reticle::ReticleRegistry;

    fn pixels(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 23 + 7) as u8).collect()
    }

    #[test]
    fn base_design_matches_golden() {
        let (netlist, spec) = build(&base_source(), "Conv2d").unwrap();
        assert_eq!(spec.delay, 1, "one pixel per clock");
        assert_eq!(spec.advertised_latency(), 4);
        let px = pixels(24);
        let inputs: Vec<Vec<Value>> = px
            .iter()
            .map(|&p| vec![Value::from_u64(8, p as u64)])
            .collect();
        let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
        let want = golden_stream(&px);
        let got: Vec<u8> = outs.iter().map(|o| o[0].to_u64() as u8).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reticle_design_matches_golden() {
        let (netlist, spec) =
            build_with(&reticle_source(), "Conv2dReticle", &ReticleRegistry).unwrap();
        assert_eq!(spec.delay, 1);
        assert_eq!(spec.advertised_latency(), 5);
        let px = pixels(24);
        let inputs: Vec<Vec<Value>> = px
            .iter()
            .map(|&p| vec![Value::from_u64(8, p as u64)])
            .collect();
        let outs = run_pipelined(&netlist, &spec, &inputs).unwrap();
        let want = golden_stream(&px);
        let got: Vec<u8> = outs.iter().map(|o| o[0].to_u64() as u8).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn designs_agree_with_each_other() {
        let (nb, sb) = build(&base_source(), "Conv2d").unwrap();
        let (nr, sr) = build_with(&reticle_source(), "Conv2dReticle", &ReticleRegistry).unwrap();
        let px = pixels(30);
        let inputs: Vec<Vec<Value>> = px
            .iter()
            .map(|&p| vec![Value::from_u64(8, p as u64)])
            .collect();
        let ob = run_pipelined(&nb, &sb, &inputs).unwrap();
        let or = run_pipelined(&nr, &sr, &inputs).unwrap();
        assert_eq!(ob, or, "both designs compute the same convolution");
    }

    #[test]
    fn both_are_continuous_pipelines() {
        // Phantom events: no FSMs, no guards (Section 5.4).
        let (nb, _) = build(&base_source(), "Conv2d").unwrap();
        assert!(!nb
            .cells()
            .iter()
            .any(|c| matches!(c.kind, rtl_sim::CellKind::ShiftFsm { .. })));
        assert!(nb.assigns().iter().all(|a| a.guard.is_none()));
    }

    #[test]
    fn phantom_elision_ablation() {
        // Section 5.4: the phantom-event pipeline compiles to bare wires;
        // the interfaced variant pays for an FSM and guard logic while
        // computing the same function.
        let (phantom, ps) = build(&base_source(), "Conv2d").unwrap();
        let (iface, is) = build(&base_source_interfaced(), "Conv2d").unwrap();
        assert!(!phantom
            .cells()
            .iter()
            .any(|c| matches!(c.kind, rtl_sim::CellKind::ShiftFsm { .. })));
        assert!(iface
            .cells()
            .iter()
            .any(|c| matches!(c.kind, rtl_sim::CellKind::ShiftFsm { .. })));
        assert!(iface.assigns().iter().any(|a| a.guard.is_some()));
        assert!(phantom.assigns().iter().all(|a| a.guard.is_none()));
        // Same function on the same stream.
        let px = pixels(20);
        let inputs: Vec<Vec<Value>> = px
            .iter()
            .map(|&p| vec![Value::from_u64(8, p as u64)])
            .collect();
        let po = run_pipelined(&phantom, &ps, &inputs).unwrap();
        let io = run_pipelined(&iface, &is, &inputs).unwrap();
        assert_eq!(po, io);
        // The overhead is measurable.
        let rp = fil_area::resources(&phantom);
        let ri = fil_area::resources(&iface);
        assert!(
            ri.luts > rp.luts || ri.regs > rp.regs,
            "interfaced: {ri}, phantom: {rp}"
        );
    }

    #[test]
    fn phantom_builds_fewer_cells_than_interfaced() {
        // Section 5.4's comparison: eliding the phantom event's FSM and
        // guards leaves fewer cells for the same function.
        let (phantom, _) = build(&base_source(), "Conv2d").unwrap();
        let (iface, _) = build(&base_source_interfaced(), "Conv2d").unwrap();
        let (p, i) = (phantom.cells().len(), iface.cells().len());
        assert!(p < i, "phantom: {p} cells, interfaced: {i}");
    }

    #[test]
    fn custom_registry_builds_honour_jobs() {
        // A custom-registry build runs on the driver's worker pool like a
        // standard one, with the same output at any job count.
        let verilog = |jobs| {
            let req = fil_build::BuildRequest::new(reticle_source())
                .verilog()
                .jobs(jobs);
            fil_stdlib::build_with_registry(&req, &ReticleRegistry)
                .unwrap()
                .verilog
                .unwrap()
        };
        assert_eq!(verilog(1), verilog(4));
    }

    #[test]
    fn table2_shape_holds() {
        // The Table 2 comparison: Filament base vs Filament+Reticle.
        let (nb, _) = build(&base_source(), "Conv2d").unwrap();
        let (nr, _) = build_with(&reticle_source(), "Conv2dReticle", &ReticleRegistry).unwrap();
        let rb = fil_area::resources(&nb);
        let rr = fil_area::resources(&nr);
        assert_eq!(rb.dsps, 9, "base: nine pipelined multipliers");
        assert_eq!(rr.dsps, 9, "reticle: three cascades of three");
        assert!(
            rr.luts * 4 < rb.luts,
            "reticle uses far fewer LUTs ({} vs {})",
            rr.luts,
            rb.luts
        );
        let fb = fil_area::fmax_mhz(&nb);
        let fr = fil_area::fmax_mhz(&nr);
        assert!(fb > fr, "base is faster ({fb:.1} vs {fr:.1} MHz)");
        assert!((fb - 833.3).abs() < 5.0, "base ≈ 833 MHz, got {fb:.1}");
        assert!((fr - 645.1).abs() < 5.0, "reticle ≈ 645 MHz, got {fr:.1}");
    }
}
