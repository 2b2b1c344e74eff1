//! Table 6 — the twenty application codes, one Criterion benchmark per
//! row, at class S (the per-iteration characterization is
//! size-independent; wall time per row stays CI-friendly).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dpf_core::Machine;
use dpf_suite::{registry, run_basic, Group, ProblemClass, Size};

const CLASS_S: Size = Size::Class(ProblemClass::S);
const CLASS_A: Size = Size::Class(ProblemClass::A);

fn bench_table6_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    for entry in registry()
        .into_iter()
        .filter(|e| e.group == Group::Application)
    {
        g.bench_function(entry.name, |b| {
            b.iter(|| black_box(run_basic(&entry, &machine, CLASS_S).report.perf.flops))
        });
    }
    g.finish();
}

fn bench_class_a_grid_codes(c: &mut Criterion) {
    // The grid-based subset at class A — the paper's dominating
    // workloads (fluid dynamics) at a representative scale.
    let mut g = c.benchmark_group("table6_class_a");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    for name in [
        "diff-3D",
        "ellip-2D",
        "rp",
        "step4",
        "wave-1D",
        "ks-spectral",
    ] {
        let entry = dpf_suite::find(name).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_basic(&entry, &machine, CLASS_A).report.perf.flops))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_table6_rows, bench_class_a_grid_codes);
criterion_main!(benches);
