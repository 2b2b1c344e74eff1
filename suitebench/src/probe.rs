//! Per-layer probes: time one public entry point of a layer, on its own,
//! at the workload's backend and processor count.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dpf_array::{DistArray, Expr, PAR, SER};
use dpf_comm::{fuse, Combine, StencilBoundary};
use dpf_core::{
    run_workers, Backend, CommKey, CommStats, Ctx, Instr, LinkMeter, Machine, Router, Transport,
    TransportCfg,
};
use rayon::prelude::*;

use crate::stats::{median, SplitMix};
use crate::trace::tracer;

/// Minimum timed calls per probe.
const MIN_REPS: usize = 5;
/// Minimum timed seconds per probe.
const MIN_SECS: f64 = 0.1;
/// Upper bound on timed calls per probe, for calls near a microsecond.
const MAX_REPS: usize = 20_000;

/// Median seconds per call of `f`, after one untimed call that fills
/// caches and the buffer pool.
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MAX_REPS
        && (times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_SECS)
    {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Where the primitive probes run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbePoint {
    /// Execution backend.
    pub backend: Backend,
    /// Virtual processors.
    pub procs: usize,
    /// Elements per array (a square number, for the 2-D primitives).
    pub n: usize,
}

/// Time per element of each public `dpf-comm` and `dpf-array` primitive
/// in the catalogue, plus the bytes each call must read and write as
/// computed from the array sizes (`<layer>.<op>_computed_bytes`; cache
/// misses and halo traffic are not in it).
pub fn primitives(pt: ProbePoint, seed: u64, parent: u64) -> Vec<(String, f64)> {
    let ctx = Ctx::with_backend(Machine::cm5(pt.procs), pt.backend);
    let n = pt.n;
    let side = (n as f64).sqrt() as usize;
    assert_eq!(side * side, n, "probe size must be a square");
    let mut rng = SplitMix::new(seed);
    let a = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] % 97) as f64 * 0.5);
    let b = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] % 89) as f64 + 1.0);
    let c = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] % 13) as f64);
    let grid = DistArray::<f64>::from_fn(&ctx, &[side, side], &[PAR, PAR], |i| {
        (i[0] + 2 * i[1]) as f64
    });
    let short = DistArray::<f64>::from_fn(&ctx, &[n / 64], &[PAR], |i| i[0] as f64);
    let mut perm: Vec<i32> = (0..n as i32).collect();
    rng.shuffle(&mut perm);
    let idx = DistArray::<i32>::from_vec(&ctx, &[n], &[PAR], perm);
    let keys_data: Vec<i32> = (0..n).map(|_| (rng.next_u64() >> 40) as i32).collect();
    let keys = DistArray::<i32>::from_vec(&ctx, &[n], &[PAR], keys_data);
    let mut acc = DistArray::<f64>::zeros(&ctx, &[n], &[PAR]);
    let star = dpf_comm::star_stencil(2, 0.5, 0.125);
    let fused =
        Expr::leaf(&a)
            .zip(Expr::leaf(&b), 1, |x, y| x * y)
            .zip(Expr::leaf(&c), 1, |x, y| x + y);

    let (f8, i4, nb) = (8.0, 4.0, n as f64);
    let mut out = Vec::new();
    let mut probe = |layer: &str, op: &str, bytes_per_elem: f64, secs: f64| {
        out.push((format!("{layer}.{op}_ns_per_elem"), secs * 1e9 / nb));
        out.push((format!("{layer}.{op}_computed_bytes"), bytes_per_elem * nb));
    };
    let span = |op: &str, f: &mut dyn FnMut()| tracer().span("probe", op, parent, |_| per_call(f));

    let t = span("cshift", &mut || {
        dpf_comm::cshift(&ctx, &a, 0, 1).recycle(&ctx)
    });
    probe("comm", "cshift", 2.0 * f8, t);
    let t = span("sum_all", &mut || {
        black_box(dpf_comm::sum_all(&ctx, &a));
    });
    probe("comm", "sum_all", f8, t);
    let t = span("spread", &mut || {
        dpf_comm::spread(&ctx, &short, 1, 64, SER).recycle(&ctx)
    });
    probe("comm", "spread", f8 + f8 / 64.0, t);
    let t = span("gather", &mut || {
        dpf_comm::gather(&ctx, &a, &idx).recycle(&ctx)
    });
    probe("comm", "gather", i4 + 2.0 * f8, t);
    let t = span("scatter_combine", &mut || {
        dpf_comm::scatter_combine(&ctx, &mut acc, &idx, &b, Combine::Add)
    });
    probe("comm", "scatter_combine", i4 + 3.0 * f8, t);
    let t = span("transpose", &mut || {
        dpf_comm::transpose(&ctx, &grid).recycle(&ctx)
    });
    probe("comm", "transpose", 2.0 * f8, t);
    let t = span("scan", &mut || {
        dpf_comm::scan_add(&ctx, &a, 0).recycle(&ctx)
    });
    probe("comm", "scan", 2.0 * f8, t);
    let t = span("stencil", &mut || {
        dpf_comm::stencil(&ctx, &grid, &star, StencilBoundary::Cyclic).recycle(&ctx)
    });
    probe("comm", "stencil", 2.0 * f8, t);
    let t = span("sort", &mut || {
        let (sorted, order) = dpf_comm::sort_keys(&ctx, &keys);
        black_box((sorted, order));
    });
    probe("comm", "sort", 3.0 * i4, t);
    let t = span("map", &mut || a.map(&ctx, 1, |x| x * 1.5).recycle(&ctx));
    probe("array", "map", 2.0 * f8, t);
    let t = span("zip_map", &mut || {
        a.zip_map(&ctx, 1, &b, |x, y| x + y).recycle(&ctx)
    });
    probe("array", "zip_map", 3.0 * f8, t);
    let t = span("fuse_eval", &mut || fuse::eval(&ctx, &fused).recycle(&ctx));
    probe("array", "fuse_eval", 4.0 * f8, t);
    black_box(acc);
    out
}

/// Microseconds per parallel terminal op over a two-element slice: the
/// scoped-thread fan-out every rayon call above the threshold pays.
pub fn rayon_fanout_us(parent: u64) -> f64 {
    let v = [1u64, 2];
    tracer().span("probe", "rayon.fanout", parent, |_| {
        per_call(|| {
            black_box(black_box(&v[..]).par_iter().map(|x| x * 3).sum::<u64>());
        })
    }) * 1e6
}

/// Microseconds per empty collective: one `run_workers` whose workers
/// only meet at a barrier.
pub fn collective_us(procs: usize, parent: u64) -> f64 {
    let meter = LinkMeter::new();
    let cfg = TransportCfg::default();
    tracer().span("probe", "spmd.empty_collective", parent, |_| {
        per_call(|| {
            run_workers(
                procs,
                Transport::new(&meter, &cfg),
                vec![(); procs],
                |_, _: &mut (), router: &mut Router<'_, ()>| router.barrier(),
            );
        })
    }) * 1e6
}

/// Messages each worker sends per collective in [`msg_us`].
const RING_MESSAGES: usize = 32;

/// Microseconds per message inside one collective: a collective in which
/// every worker passes [`RING_MESSAGES`] small messages round a ring,
/// less an empty collective, over the messages metered. Zero with one
/// processor, where nothing crosses a link.
pub fn msg_us(procs: usize, empty_us: f64, parent: u64) -> f64 {
    if procs < 2 {
        return 0.0;
    }
    let meter = LinkMeter::new();
    let cfg = TransportCfg::default();
    let ring = || {
        run_workers(
            procs,
            Transport::new(&meter, &cfg),
            vec![(); procs],
            |rank, _: &mut (), router: &mut Router<'_, u64>| {
                let next = (rank + 1) % procs;
                let prev = (rank + procs - 1) % procs;
                for k in 0..RING_MESSAGES {
                    router.send(next, 8, k as u64);
                    black_box(router.recv_from(prev));
                }
            },
        );
    };
    ring();
    let before = meter.messages();
    ring();
    let per_collective = (meter.messages() - before) as f64;
    let t = tracer().span("probe", "spmd.ring_collective", parent, |_| per_call(ring));
    (t * 1e6 - empty_us) / per_collective
}

/// Replay a pass's communication inventory — the same keys with the same
/// call counts, row by row — through a fresh [`Instr`]. Returns
/// `(ns per record_comm call, seconds per replayed pass)`.
pub fn instr_replay(inventory: &[&BTreeMap<CommKey, CommStats>], parent: u64) -> (f64, f64) {
    let calls: u64 = inventory
        .iter()
        .flat_map(|m| m.values())
        .map(|s| s.calls)
        .sum();
    if calls == 0 {
        return (0.0, 0.0);
    }
    let secs = tracer().span("probe", "instr.replay", parent, |_| {
        per_call(|| {
            let instr = Instr::new();
            for map in inventory {
                for (key, stats) in map.iter() {
                    let elements = stats.elements / stats.calls;
                    let bytes = stats.offproc_bytes / stats.calls;
                    for _ in 0..stats.calls {
                        instr.record_comm(*key, elements, bytes);
                    }
                }
            }
            black_box(instr);
        })
    });
    (secs * 1e9 / calls as f64, secs)
}
