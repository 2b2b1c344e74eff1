//! Shared machinery for the SPMD backend of the communication primitives.
//!
//! Under [`Backend::Spmd`](dpf_core::Backend) each collective spawns one
//! worker thread per virtual processor
//! ([`run_workers`](dpf_core::run_workers)). A worker sees only its own
//! block of every distributed array — the [`Segs`]/[`SegsMut`] views built
//! here from [`Layout::for_each_owner_segment`] — and obtains every remote
//! element through a typed channel, so the run's
//! [`LinkMeter`](dpf_core::LinkMeter) counts bytes that actually crossed
//! between workers.
//!
//! Four reusable protocols cover the primitives:
//!
//! * [`pull_exec`] — owner-computes-output: each worker maps its output
//!   flats to source flats, requests the off-block ones from their owners
//!   (`Req` round) and receives the values (`Vals` round). Used by the
//!   shifts, spread/broadcast, gather/get/`try_gather_nd` and transpose.
//! * [`route_exec`] — owner-computes-source: each worker routes
//!   `(src_flat, dst_flat, value)` triples to the destination owners; the
//!   receiver sorts by source flat before applying, which reproduces the
//!   virtual backend's serial flat-source-order collision semantics
//!   exactly. Used by the scatter/send/combine family.
//! * [`fold_exec`] — a sequential fold whose state travels the global
//!   owner-segment chain in flat order, making whole-array reductions
//!   bit-identical to the virtual backend's serial left fold. Used by the
//!   reductions and the dot product.
//! * [`axis_exec`] — a per-lane pipeline along one axis: lane accumulators
//!   are carried from each axis block to its successor. Used by the scans
//!   and `sum_axis`.
//!
//! Every protocol is acyclic (requests always precede replies;
//! fold/pipeline chains are linear), so the per-sender FIFO order the
//! router guarantees makes deadlock impossible by construction — and the
//! router's timeouts turn any future protocol bug into a diagnosed panic
//! rather than a hang.
//!
//! The value traffic is metered; index/request traffic is sent with zero
//! payload size, since the analytic `Instr` model the tables are built
//! from never charges addressing overhead either.

// The `*_exec` drivers below are the SPMD protocol layer, not numeric hot
// paths: each collective builds its O(p) worker-view table and owned
// message payloads once per call, which is the message-passing model
// itself (frames are owned when handed to the router). Per-element work
// stays allocation-free inside the worker closures.
// dpf-lint: allow-file(hot-path-alloc, reason = "per-collective O(p) view setup and owned message payloads are the SPMD protocol, not per-element hot-path traffic")

use dpf_array::Layout;
use dpf_core::{Ctx, Elem, Router, ShardState};

/// A worker's read-only view of its blocks of one array: the flat
/// segments it owns, ascending.
pub(crate) struct Segs<'a, T> {
    pieces: Vec<(usize, &'a [T])>,
}

impl<T: Copy> Segs<'_, T> {
    /// Value at a flat offset this worker owns.
    #[inline]
    pub(crate) fn get(&self, flat: usize) -> T {
        let i = self.pieces.partition_point(|p| p.0 <= flat);
        let (start, slice) = self.pieces[i - 1];
        slice[flat - start]
    }

    /// The `(start, len)` of every owned segment, ascending.
    pub(crate) fn ranges(&self) -> Vec<(usize, usize)> {
        self.pieces.iter().map(|p| (p.0, p.1.len())).collect()
    }
}

/// A worker's mutable view of its blocks of one array.
pub(crate) struct SegsMut<'a, T> {
    pieces: Vec<(usize, &'a mut [T])>,
}

impl<T: Copy> SegsMut<'_, T> {
    /// Write a flat offset this worker owns.
    #[inline]
    pub(crate) fn set(&mut self, flat: usize, v: T) {
        *self.get_mut(flat) = v;
    }

    /// Mutable slot at a flat offset this worker owns.
    #[inline]
    pub(crate) fn get_mut(&mut self, flat: usize) -> &mut T {
        let i = self.pieces.partition_point(|p| p.0 <= flat);
        let (start, slice) = &mut self.pieces[i - 1];
        &mut slice[flat - *start]
    }

    /// The `(start, len)` of every owned segment, ascending.
    pub(crate) fn ranges(&self) -> Vec<(usize, usize)> {
        self.pieces.iter().map(|p| (p.0, p.1.len())).collect()
    }

    /// Fill every owned element with `v`.
    pub(crate) fn fill(&mut self, v: T) {
        for piece in &mut self.pieces {
            piece.1.fill(v);
        }
    }
}

// In-run recovery snapshots (`--recover in-run`): a worker's shard state
// is whatever it owns *and may mutate* during the collective. Read-only
// source views never change, so they serialize to nothing; mutable views
// capture their owned elements bit-exactly in segment order. Segment
// starts and lengths are structural (fixed by the layout, identical
// across attempts of an epoch) and are not serialized.
impl<T> ShardState for Segs<'_, T> {
    fn capture(&self, _out: &mut Vec<u8>) {}
    fn restore(&mut self, _cursor: &mut &[u8]) {}
}

impl<T: Elem> ShardState for SegsMut<'_, T> {
    fn capture(&self, out: &mut Vec<u8>) {
        for piece in &self.pieces {
            for v in piece.1.iter() {
                v.put_le(out);
            }
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        for piece in self.pieces.iter_mut() {
            for v in piece.1.iter_mut() {
                *v = T::get_le(cursor);
                *cursor = &cursor[T::WIRE_BYTES..];
            }
        }
    }
}

/// Split a shared slice into per-worker [`Segs`] views per `layout`.
pub(crate) fn split_ref<'a, T>(layout: &Layout, data: &'a [T], nprocs: usize) -> Vec<Segs<'a, T>> {
    let mut out: Vec<Segs<'a, T>> = (0..nprocs).map(|_| Segs { pieces: Vec::new() }).collect();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| {
        out[o].pieces.push((s, &data[s..s + l]));
    });
    out
}

/// Split a mutable slice into per-worker [`SegsMut`] views per `layout`.
/// Owner segments cover the flat range contiguously in ascending order, so
/// the slice splits left to right without overlap.
pub(crate) fn split_mut<'a, T>(
    layout: &Layout,
    data: &'a mut [T],
    nprocs: usize,
) -> Vec<SegsMut<'a, T>> {
    let mut table: Vec<(usize, usize, usize)> = Vec::new();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| table.push((s, l, o)));
    let mut out: Vec<SegsMut<'a, T>> = (0..nprocs)
        .map(|_| SegsMut { pieces: Vec::new() })
        .collect();
    let mut rest = data;
    for &(s, l, o) in &table {
        let (seg, r) = rest.split_at_mut(l);
        rest = r;
        out[o].pieces.push((s, seg));
    }
    out
}

/// Where an output element's value comes from in a pull protocol.
pub(crate) enum Src<T> {
    /// Read the source array at this flat offset.
    Flat(usize),
    /// A boundary/fill value needing no communication.
    Fill(T),
}

/// One [`axis_exec`] step: advance the lane state `A` past the element at
/// `flat`, optionally writing results through the `(flat, value)` sink.
pub(crate) type AxisStep<'a, T, A> = &'a (dyn Fn(&mut A, usize, &mut dyn FnMut(usize, T)) + Sync);

/// Message type of [`pull_exec`]: a request for source flats, then the
/// values in request order. `Clone` lets the resilient transport keep a
/// retransmission copy of in-flight frames under link-fault injection.
#[derive(Clone)]
pub(crate) enum PullMsg<T> {
    /// Source flat offsets the sender needs from the receiver's blocks.
    Req(Vec<usize>),
    /// The requested values, in request order.
    Vals(Vec<T>),
}

/// Owner-computes-output pull: every worker maps each of its output flats
/// through `src_of`, fetches off-block sources from their owners over the
/// channels, and writes only its own blocks of `out_data`.
pub(crate) fn pull_exec<T: Elem>(
    ctx: &Ctx,
    src_layout: &Layout,
    src_data: &[T],
    out_layout: &Layout,
    out_data: &mut [T],
    src_of: &(dyn Fn(usize) -> Src<T> + Sync),
) {
    let p = ctx.nprocs();
    let work: Vec<_> = split_ref(src_layout, src_data, p)
        .into_iter()
        .zip(split_mut(out_layout, out_data, p))
        .collect();
    let esize = T::DTYPE.size() as u64;
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |_rank, (src, out), router: &mut Router<'_, PullMsg<T>>| {
            let p = router.nprocs();
            let mut reqs: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            let mut places: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            for (start, len) in out.ranges() {
                for flat in start..start + len {
                    match src_of(flat) {
                        Src::Fill(v) => out.set(flat, v),
                        Src::Flat(s) => {
                            let owner = src_layout.owner_id_flat(s);
                            reqs[owner].push(s);
                            places[owner].push(flat);
                        }
                    }
                }
            }
            for (q, req) in reqs.into_iter().enumerate() {
                router.send(q, 0, PullMsg::Req(req));
            }
            for q in 0..p {
                let PullMsg::Req(r) = router.recv_from(q) else {
                    unreachable!("pull protocol: Req must precede Vals");
                };
                let vals: Vec<T> = r.iter().map(|&s| src.get(s)).collect();
                router.send(q, vals.len() as u64 * esize, PullMsg::Vals(vals));
            }
            for (q, flats) in places.into_iter().enumerate() {
                let PullMsg::Vals(v) = router.recv_from(q) else {
                    unreachable!("pull protocol: Req must precede Vals");
                };
                for (flat, val) in flats.into_iter().zip(v) {
                    out.set(flat, val);
                }
            }
        },
    );
}

/// Distribute one scalar from worker 0 to every worker owning a block of
/// the output layout; each recipient fills its own blocks with the value.
pub(crate) fn broadcast_scalar_exec<T: Elem>(
    ctx: &Ctx,
    layout: &Layout,
    value: T,
    out_data: &mut [T],
) {
    let p = ctx.nprocs();
    let mut has = vec![false; p];
    layout.for_each_owner_segment(0, layout.len(), |_, _, o| has[o] = true);
    let has = &has;
    let work = split_mut(layout, out_data, p);
    let esize = T::DTYPE.size() as u64;
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        move |rank, segs, router: &mut Router<'_, T>| {
            if rank == 0 {
                for (q, &owns) in has.iter().enumerate() {
                    if owns {
                        router.send(q, esize, value);
                    }
                }
            }
            if has[rank] {
                let v = router.recv_from(0);
                segs.fill(v);
            }
        },
    );
}

/// Owner-computes-source push: every worker walks its own source flats,
/// routes `(src_flat, dst_flat, value)` triples to the destination owners,
/// and each receiver applies its incoming triples sorted by source flat —
/// reproducing the virtual backend's serial flat-source-order collision
/// semantics (last-writer-wins for plain scatter, left-to-right combining
/// otherwise).
pub(crate) fn route_exec<T: Elem>(
    ctx: &Ctx,
    src_layout: &Layout,
    src_data: &[T],
    dst_layout: &Layout,
    dst_data: &mut [T],
    dst_of: &(dyn Fn(usize) -> usize + Sync),
    apply: &(dyn Fn(&mut T, T) + Sync),
) {
    let p = ctx.nprocs();
    let work: Vec<_> = split_ref(src_layout, src_data, p)
        .into_iter()
        .zip(split_mut(dst_layout, dst_data, p))
        .collect();
    let esize = T::DTYPE.size() as u64;
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |_rank, (src, dst), router: &mut Router<'_, Vec<(usize, usize, T)>>| {
            let p = router.nprocs();
            let mut outgoing: Vec<Vec<(usize, usize, T)>> = (0..p).map(|_| Vec::new()).collect();
            for (start, len) in src.ranges() {
                for k in start..start + len {
                    let d = dst_of(k);
                    outgoing[dst_layout.owner_id_flat(d)].push((k, d, src.get(k)));
                }
            }
            for (q, t) in outgoing.into_iter().enumerate() {
                router.send(q, t.len() as u64 * esize, t);
            }
            let mut incoming: Vec<(usize, usize, T)> = Vec::new();
            for q in 0..p {
                incoming.extend(router.recv_from(q));
            }
            // Source flats are unique keys, so the unstable sort is
            // deterministic and recovers global source order.
            incoming.sort_unstable_by_key(|&(k, _, _)| k);
            for (_, d, v) in incoming {
                apply(dst.get_mut(d), v);
            }
        },
    );
}

/// Sequential fold over the whole array in flat order, the state hopping
/// along the global owner-segment chain: the owner of segment `j` receives
/// the state from the owner of segment `j − 1`, folds its elements, and
/// forwards it. Element order — and therefore floating-point rounding — is
/// identical to the virtual backend's serial left fold; only the owner
/// transitions cross a channel (`hop_bytes` each).
pub(crate) fn fold_exec<T: Elem, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    data: &[T],
    init: A,
    hop_bytes: u64,
    step: &(dyn Fn(&mut A, usize, T) + Sync),
) -> A {
    let p = ctx.nprocs();
    let mut table: Vec<(usize, usize, usize)> = Vec::new();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| table.push((s, l, o)));
    let nseg = table.len();
    let mut mine: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
    for (j, &(_, _, o)) in table.iter().enumerate() {
        mine[o].push(j);
    }
    let work: Vec<_> = split_ref(layout, data, p).into_iter().zip(mine).collect();
    let table = &table;
    let init = &init;
    let results = dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |_rank, (segs, my), router: &mut Router<'_, A>| {
            let mut last = None;
            for &j in my.iter() {
                let (s, l, _) = table[j];
                let mut state = if j == 0 {
                    init.clone()
                } else {
                    router.recv_from(table[j - 1].2)
                };
                for flat in s..s + l {
                    step(&mut state, flat, segs.get(flat));
                }
                if j + 1 < nseg {
                    router.send(table[j + 1].2, hop_bytes, state);
                } else {
                    last = Some(state);
                }
            }
            last
        },
    );
    results
        .into_iter()
        .flatten()
        .next()
        .expect("fold chain must end on some worker")
}

/// Per-lane pipeline along `axis`: each worker processes its block of
/// every lane, carrying one accumulator per lane from the predecessor
/// block (same grid coordinates, axis coordinate − 1) to the successor.
/// Within a lane, elements are visited in ascending index order, so
/// scan/reduction rounding matches the virtual backend's serial loops.
///
/// `step(state, flat, write)` handles one element; `write(flat, v)` stores
/// into the worker's own block of the optional same-layout output.
/// Returns the chain-end `(reduced_flat, state)` pairs — the lane's flat
/// offset in the shape with `axis` removed — for axis reductions.
pub(crate) fn axis_exec<T: Elem, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    axis: usize,
    out_data: Option<&mut [T]>,
    init: A,
    lane_hop_bytes: u64,
    step: AxisStep<'_, T, A>,
) -> Vec<(usize, A)> {
    let p = ctx.nprocs();
    let rank = layout.rank();
    let procs: Vec<usize> = (0..rank).map(|d| layout.procs_on(d)).collect();
    let grid: usize = procs.iter().product::<usize>().max(1);
    let blocks = layout.blocks().to_vec();
    let shape = layout.shape().to_vec();
    let strides = layout.strides();
    let work: Vec<Option<SegsMut<'_, T>>> = match out_data {
        Some(d) => split_mut(layout, d, p).into_iter().map(Some).collect(),
        None => (0..p).map(|_| None).collect(),
    };
    let rank_of = |c: &[usize]| -> usize {
        let mut id = 0usize;
        for (d, &ci) in c.iter().enumerate() {
            id = id * procs[d] + ci;
        }
        id
    };
    let init = &init;
    let procs = &procs;
    let blocks = &blocks;
    let shape = &shape;
    let strides = &strides;
    let rank_of = &rank_of;
    let results = dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        move |wrank, out, router: &mut Router<'_, Vec<A>>| {
            let mut finals: Vec<(usize, A)> = Vec::new();
            if wrank >= grid {
                return finals; // idle virtual processor for this layout
            }
            // Grid coordinates and this worker's box.
            let mut c = vec![0usize; rank];
            let mut r = wrank;
            for d in (0..rank).rev() {
                c[d] = r % procs[d];
                r /= procs[d];
            }
            let mut lo = vec![0usize; rank];
            let mut hi = vec![0usize; rank];
            for d in 0..rank {
                lo[d] = c[d] * blocks[d];
                hi[d] = ((c[d] + 1) * blocks[d]).min(shape[d]);
                if lo[d] >= hi[d] {
                    return finals; // ragged grid: this box is empty
                }
            }
            let lanes_local: usize = (0..rank)
                .filter(|&d| d != axis)
                .map(|d| hi[d] - lo[d])
                .product();
            let pred = (c[axis] > 0).then(|| {
                let mut pc = c.clone();
                pc[axis] -= 1;
                rank_of(&pc)
            });
            let succ = (c[axis] + 1 < procs[axis] && (c[axis] + 1) * blocks[axis] < shape[axis])
                .then(|| {
                    let mut sc = c.clone();
                    sc[axis] += 1;
                    rank_of(&sc)
                });
            // Lane carries arrive in the canonical lane order: the
            // row-major odometer over the non-axis dimensions of the box,
            // which predecessor and successor share.
            let carries: Vec<A> = match pred {
                Some(pr) => router.recv_from(pr),
                None => vec![init.clone(); lanes_local],
            };
            let mut onward: Vec<A> = Vec::with_capacity(lanes_local);
            let mut idx = lo.clone();
            let mut lane = 0usize;
            loop {
                let mut base = 0usize;
                let mut reduced_flat = 0usize;
                for d in 0..rank {
                    if d != axis {
                        base += idx[d] * strides[d];
                        reduced_flat = reduced_flat * shape[d] + idx[d];
                    }
                }
                let mut state = carries[lane].clone();
                {
                    let mut write = |flat: usize, v: T| {
                        if let Some(o) = out.as_mut() {
                            o.set(flat, v);
                        }
                    };
                    for i in lo[axis]..hi[axis] {
                        step(&mut state, base + i * strides[axis], &mut write);
                    }
                }
                if succ.is_some() {
                    onward.push(state);
                } else {
                    finals.push((reduced_flat, state));
                }
                lane += 1;
                // Advance the non-axis odometer within the box.
                let mut d = rank;
                loop {
                    if d == 0 {
                        if let Some(sq) = succ {
                            router.send(sq, lanes_local as u64 * lane_hop_bytes, onward);
                        }
                        return finals;
                    }
                    d -= 1;
                    if d == axis {
                        continue;
                    }
                    idx[d] += 1;
                    if idx[d] < hi[d] {
                        break;
                    }
                    idx[d] = lo[d];
                }
            }
        },
    );
    results.into_iter().flatten().collect()
}
