//! Hot-path microbenchmarks: the library's optimized primitives at
//! 2^16, 2^20 and 2^22 elements.
//!
//! Every benchmark id has the form `<op>/new/<elements>`; `new` names the
//! current library path (chunked index decoding, pooled output buffers,
//! lane-parallel loops). The pre-optimization baselines are history, not
//! code: `BENCH_1.json` and `BENCH_2.json` carry their medians.
//! `scripts/bench_snapshot.sh` runs this harness and assembles the
//! `CRITERION_JSON` lines into a snapshot, and `scripts/bench_gate.py`
//! compares the `new` medians of two snapshots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpf_array::{DistArray, Expr, PAR};
use dpf_comm::{cshift, fuse, gather, star_stencil, stencil_into, StencilBoundary};
use dpf_core::{Ctx, Machine};

fn ctx() -> Ctx {
    Ctx::new(Machine::cm5(4))
}

/// Benchmark element counts: 64K, 1M, 4M.
const SIZES: [usize; 3] = [1 << 16, 1 << 20, 1 << 22];

/// Square side per size (all sizes are powers of four).
fn side(len: usize) -> usize {
    let s = (len as f64).sqrt() as usize;
    assert_eq!(s * s, len);
    s
}

// ---------------------------------------------------------------- map --

fn bench_map(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("map");
    for &n in &SIZES {
        let a = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as f64);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                let r = a.map(&ctx, 2, |x| 1.5 * x + 0.5);
                let probe = r.as_slice()[n / 2];
                r.recycle(&ctx);
                black_box(probe)
            })
        });
    }
    g.finish();
}

// ------------------------------------------------------------- cshift --

fn bench_cshift(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("cshift");
    for &n in &SIZES {
        let s = side(n);
        let a = DistArray::<f64>::from_fn(&ctx, &[s, s], &[PAR, PAR], |i| (i[0] * s + i[1]) as f64);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                let r = cshift(&ctx, &a, 0, 1);
                let probe = r.as_slice()[n / 2];
                r.recycle(&ctx);
                black_box(probe)
            })
        });
    }
    g.finish();
}

// ------------------------------------------------------------ permute --

fn bench_permute(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("permute");
    for &n in &SIZES {
        let s = side(n);
        let a = DistArray::<f64>::from_fn(&ctx, &[s, s], &[PAR, PAR], |i| (i[0] * s + i[1]) as f64);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                let r = a.permute(&ctx, &[1, 0]);
                let probe = r.as_slice()[n / 2];
                r.recycle(&ctx);
                black_box(probe)
            })
        });
    }
    g.finish();
}

// ------------------------------------------------------- indexed_fill --

fn bench_indexed_fill(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("indexed_fill");
    for &n in &SIZES {
        let s = side(n);
        let mut a = DistArray::<f64>::zeros(&ctx, &[s, s], &[PAR, PAR]);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                a.indexed_fill(&ctx, 2, |idx| (idx[0] + 2 * idx[1]) as f64);
                black_box(a.as_slice()[n / 2])
            })
        });
    }
    g.finish();
}

// ------------------------------------------------------------- gather --

fn bench_gather(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("gather");
    for &n in &SIZES {
        let src = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as f64);
        let idx =
            DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| ((i[0] * 7919 + 13) % n) as i32);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                let r = gather(&ctx, &src, &idx);
                let probe = r.as_slice()[n / 2];
                r.recycle(&ctx);
                black_box(probe)
            })
        });
    }
    g.finish();
}

// ------------------------------------------------------- star_stencil --

fn bench_star_stencil(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("star_stencil");
    let points = star_stencil(2, -4.0, 1.0);
    for &n in &SIZES {
        let s = side(n);
        let a = DistArray::<f64>::from_fn(&ctx, &[s, s], &[PAR, PAR], |i| (i[0] * s + i[1]) as f64);
        let mut out = DistArray::<f64>::zeros(&ctx, &[s, s], &[PAR, PAR]);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                stencil_into(&ctx, &a, &points, StencilBoundary::Cyclic, &mut out);
                black_box(out.as_slice()[n / 2])
            })
        });
    }
    g.finish();
}

// --------------------------------------------------------- fused_diff1 --

fn bench_fused_diff1(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("fused_diff1");
    let k = 0.1;
    for &n in &SIZES {
        let u = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] % 101) as f64 * 0.01);
        let mut out = DistArray::<f64>::zeros(&ctx, &[n], &[PAR]);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| {
                let e = Expr::leaf(&u)
                    .shift(0, 1)
                    .zip(Expr::leaf(&u).shift(0, -1), 1, |a, b| a + b)
                    .zip(Expr::leaf(&u), 2, |s, x| s - 2.0 * x)
                    .zip(Expr::leaf(&u), 2, move |l, x| x + k * l);
                fuse::eval_into(&ctx, &e, &mut out);
                black_box(out.as_slice()[n / 2])
            })
        });
    }
    g.finish();
}

criterion_group!(
    hotpath,
    bench_map,
    bench_cshift,
    bench_permute,
    bench_indexed_fill,
    bench_gather,
    bench_star_stencil,
    bench_fused_diff1
);
criterion_main!(hotpath);
