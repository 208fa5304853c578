//! Criterion bench for Filament compilation (Section 7: "All benchmarks
//! compile in under a second"), plus checker-phase ablations.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    for (name, src, top) in fil_designs::corpus() {
        if name == "conv2d" || name == "fp-add-pipe" || name == "div-pipe" {
            g.bench_function(&name, |b| {
                b.iter(|| fil_bench::compile_one(std::hint::black_box(&src), top))
            });
        }
    }
    // Ablation: type checking alone vs the full pipeline.
    let src = fil_designs::fp_add::source(fil_designs::fp_add::Style::Pipelined);
    let program = fil_stdlib::build(&fil_build::BuildRequest::new(src.as_str()))
        .unwrap()
        .expanded
        .expect("expanded is on by default");
    g.bench_function("check_only_fp_add", |b| {
        b.iter(|| filament_core::check_program(std::hint::black_box(&program)))
    });
    g.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
