//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 7 and Appendix B).
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table 1a/1b (Aetherling latencies) | [`table1`] | `table1` |
//! | Table 2 (conv2d area/frequency) | [`table2`] | `table2` |
//! | Figure 2 (divider trade-off) | [`divider_tradeoff`] | `divider_tradeoff` |
//! | §7 "compile in under a second" | [`compile_durations`] | (unit test `all_designs_compile_in_under_a_second`) |
//! | App B.1/B.2 FP + AES imports | [`pipelinec_report`] | `pipelinec_report` |
//!
//! The design corpus itself is [`fil_designs::corpus`]. Performance is
//! measured end to end, layer by layer, by the seeded `perfbench/`
//! benchmark at the repository root; this crate holds no perf probe.

use aetherling::{DesignPoint, Kernel, Throughput};
use fil_area::SynthesisReport;
use fil_bits::Value;
use fil_harness::discover_latency;
use std::time::{Duration, Instant};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Throughput label (`16` … `1/9`).
    pub throughput: String,
    /// What the Aetherling CLI reports.
    pub reported: u64,
    /// What the cycle-accurate harness measures.
    pub actual: Option<u64>,
}

/// Regenerates Table 1a (`conv2d`) or 1b (`sharpen`): drives every design
/// point per its (corrected) interface and discovers the true latency.
pub fn table1(kernel: Kernel) -> Vec<Table1Row> {
    aetherling::throughputs()
        .into_iter()
        .map(|throughput| {
            let point = DesignPoint { kernel, throughput };
            Table1Row {
                throughput: throughput.label(),
                reported: point.reported_latency(),
                actual: measure_latency(&point),
            }
        })
        .collect()
}

/// The Table 1 measurement: interval-exact driving plus latency search.
pub fn measure_latency(point: &DesignPoint) -> Option<u64> {
    let netlist = point.generate();
    let spec = point.corrected_spec();
    let lanes = point.throughput.lanes() as usize;
    let txns = if point.throughput.lanes() <= 2 { 16 } else { 6 };
    let stream: Vec<u8> = (0..lanes * txns)
        .map(|i| (235 - ((i * 7) % 180)) as u8)
        .collect();
    let inputs: Vec<Vec<Value>> = stream
        .chunks(lanes)
        .map(|c| vec![point.pack_input(c)])
        .collect();
    let expected = point.golden(&stream);
    discover_latency(
        &netlist,
        &spec,
        &inputs,
        &expected,
        40,
        point.throughput.period(),
    )
    .expect("harness drives the generated design")
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(kernel: Kernel, rows: &[Table1Row]) -> String {
    let mut out = format!(
        "Table 1{}: Latencies of Aetherling {} designs\n",
        if kernel == Kernel::Conv2d { "a" } else { "b" },
        kernel.name()
    );
    out.push_str("Throughput   Reported   Actual\n");
    for r in rows {
        let actual = r
            .actual
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into());
        let flag = if r.actual == Some(r.reported) {
            " "
        } else {
            "*"
        };
        out.push_str(&format!(
            "{:<12} {:>8} {:>8}{flag}\n",
            r.throughput, r.reported, actual
        ));
    }
    out.push_str("(* = reported incorrectly by Aetherling)\n");
    out
}

/// Regenerates Table 2: resource usage and frequency of the three conv2d
/// designs (Aetherling, Filament, Filament+Reticle).
///
/// # Panics
///
/// Panics if any design fails to compile (ruled out by the test suites).
pub fn table2() -> Vec<SynthesisReport> {
    let aeth = DesignPoint {
        kernel: Kernel::Conv2d,
        throughput: Throughput::Full(1),
    }
    .generate();
    let (base, _) =
        fil_designs::build(&fil_designs::conv2d::base_source(), "Conv2d").expect("base conv2d");
    let (reticle, _) = fil_designs::build_with(
        &fil_designs::conv2d::reticle_source(),
        "Conv2dReticle",
        &reticle::ReticleRegistry,
    )
    .expect("reticle conv2d");
    vec![
        SynthesisReport::of("Aetherling", &aeth),
        SynthesisReport::of("Filament", &base),
        SynthesisReport::of("Filament Reticle", &reticle),
    ]
}

/// Renders Table 2 in the paper's layout.
pub fn render_table2(rows: &[SynthesisReport]) -> String {
    let mut out = String::from("Table 2: Resource usage and frequency of conv2d designs\n");
    out.push_str(&format!(
        "{:<18} {:>6} {:>5} {:>10} {:>10}\n",
        "Name", "LUTs", "DSPs", "Registers", "Freq.(MHz)"
    ));
    for r in rows {
        out.push_str(&format!("{r}\n"));
    }
    out
}

/// One divider design point for the Figure 2 trade-off.
#[derive(Debug, Clone)]
pub struct DividerRow {
    /// Design name.
    pub name: String,
    /// Initiation interval (the event delay).
    pub initiation_interval: u64,
    /// Latency (first output cycle offset).
    pub latency: u64,
    /// Resource usage.
    pub resources: fil_area::Resources,
    /// Estimated frequency.
    pub fmax_mhz: f64,
}

/// Regenerates the Figure 2 area–throughput trade-off for the three
/// restoring-divider designs.
///
/// # Panics
///
/// Panics if a divider fails to compile.
pub fn divider_tradeoff() -> Vec<DividerRow> {
    let points = [
        (
            "Combinational (2b)",
            fil_designs::divider::comb_source(),
            "DivComb",
        ),
        (
            "Pipelined (2c)",
            fil_designs::divider::pipelined_source(),
            "DivPipe",
        ),
        (
            "Iterative (2d)",
            fil_designs::divider::iterative_source(),
            "DivIter",
        ),
    ];
    points
        .iter()
        .map(|(name, src, top)| {
            let (netlist, spec) = fil_designs::build(src, top).expect("divider compiles");
            DividerRow {
                name: (*name).to_owned(),
                initiation_interval: spec.delay,
                latency: spec.advertised_latency(),
                resources: fil_area::resources(&netlist),
                fmax_mhz: fil_area::fmax_mhz(&netlist),
            }
        })
        .collect()
}

/// Renders the divider trade-off table.
pub fn render_divider(rows: &[DividerRow]) -> String {
    let mut out =
        String::from("Figure 2: Area-throughput trade-offs of 8-bit restoring dividers\n");
    out.push_str(&format!(
        "{:<20} {:>3} {:>8} {:>6} {:>10} {:>10}\n",
        "Design", "II", "Latency", "LUTs", "Registers", "Freq.(MHz)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>3} {:>8} {:>6} {:>10} {:>10.1}\n",
            r.name,
            r.initiation_interval,
            r.latency,
            r.resources.luts,
            r.resources.regs,
            r.fmax_mhz
        ));
    }
    out
}

/// Parses, type-checks, and lowers one corpus entry, returning the wall
/// time (the paper: "All benchmarks compile in under a second").
///
/// # Panics
///
/// Panics if the design fails to compile.
pub fn compile_one(source: &str, top: &str) -> Duration {
    let start = Instant::now();
    let program = fil_stdlib::build(&fil_build::BuildRequest::new(source))
        .expect("parses")
        .expanded
        .expect("expanded is on by default");
    filament_core::check_program(&program)
        .unwrap_or_else(|e| panic!("{top} fails to check: {e:#?}"));
    // The Reticle registry is a superset of the standard one, so it serves
    // every corpus entry (only conv2d-reticle needs the Tdot extern).
    let _ = filament_core::lower_program(&program, top, &reticle::ReticleRegistry)
        .unwrap_or_else(|e| panic!("{top} fails to lower: {e}"));
    start.elapsed()
}

/// Compiles the whole corpus, returning per-design wall times.
pub fn compile_durations() -> Vec<(String, Duration)> {
    fil_designs::corpus()
        .into_iter()
        .map(|(name, src, top)| {
            let t = compile_one(&src, top);
            (name, t)
        })
        .collect()
}

/// Appendix B.2 summary: the PipelineC imports with their signature
/// latencies and measured behavior.
pub fn pipelinec_report() -> String {
    let mut out = String::from("PipelineC imports (Appendix B.2)\n");
    let fp = pipelinec::fp_add_netlist();
    out.push_str(&format!(
        "FpAdd: latency 6, II 1, {} cells, {}\n",
        fp.cells().len(),
        fil_area::resources(&fp)
    ));
    let aes = pipelinec::aes::aes_netlist();
    out.push_str(&format!(
        "AES:   latency 18, II 1, {} cells, {}\n",
        aes.cells().len(),
        fil_area::resources(&aes)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let conv = table1(Kernel::Conv2d);
        let expected = [
            ("16", 7, 7),
            ("8", 6, 6),
            ("4", 6, 6),
            ("2", 6, 6),
            ("1", 7, 7),
            ("1/3", 10, 12),
            ("1/9", 16, 21),
        ];
        for (row, (label, rep, act)) in conv.iter().zip(expected) {
            assert_eq!(row.throughput, label);
            assert_eq!(row.reported, rep);
            assert_eq!(row.actual, Some(act));
        }
        let rendered = render_table1(Kernel::Conv2d, &conv);
        assert!(rendered.contains("1/9"));
        assert!(rendered.contains('*'), "mismatches are flagged");
    }

    #[test]
    fn table2_matches_paper_shape() {
        let rows = table2();
        assert_eq!(rows.len(), 3);
        let (aeth, fil, ret) = (&rows[0], &rows[1], &rows[2]);
        // DSPs: 10 / 9 / 9.
        assert_eq!(aeth.resources.dsps, 10);
        assert_eq!(fil.resources.dsps, 9);
        assert_eq!(ret.resources.dsps, 9);
        // Filament is fastest; Reticle saves an order of magnitude of LUTs.
        assert!(fil.fmax_mhz > aeth.fmax_mhz);
        assert!(aeth.fmax_mhz > ret.fmax_mhz);
        assert!(ret.resources.luts * 4 < fil.resources.luts);
        // Filament uses far fewer registers than Aetherling.
        assert!(fil.resources.regs * 4 < aeth.resources.regs);
        let rendered = render_table2(&rows);
        assert!(rendered.contains("Filament Reticle"));
    }

    #[test]
    fn divider_tradeoff_shape() {
        let rows = divider_tradeoff();
        assert_eq!(rows.len(), 3);
        let (comb, pipe, iter) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(comb.initiation_interval, 1);
        assert_eq!(pipe.initiation_interval, 1);
        assert_eq!(iter.initiation_interval, 8, "iterative trades throughput");
        assert_eq!(comb.latency, 0);
        assert_eq!(pipe.latency, 7);
        // The combinational divider runs slowest; the pipelined one splits
        // the critical path.
        assert!(pipe.fmax_mhz > comb.fmax_mhz);
        // The iterative divider reuses one Nxt instance: fewest LUTs.
        assert!(iter.resources.luts < pipe.resources.luts);
        assert!(iter.resources.luts < comb.resources.luts);
        assert!(!render_divider(&rows).is_empty());
    }

    #[test]
    fn all_designs_compile_in_under_a_second() {
        for (name, time) in compile_durations() {
            assert!(
                time < Duration::from_secs(1),
                "{name} took {time:?} to compile"
            );
        }
    }

    #[test]
    fn pipelinec_report_mentions_both_imports() {
        let r = pipelinec_report();
        assert!(r.contains("FpAdd"));
        assert!(r.contains("AES"));
    }
}
