//! Gather, scatter, send and get — general (router) communication.
//!
//! These are the irregular-addressing primitives of the suite: `FORALL
//! with indirect addressing` in the paper's Table 8, the CMSSL partitioned
//! gather/scatter utilities used by fem-3D, and the `CMF send`/`get`
//! language primitives. All variants compute the exact number of elements
//! whose source and destination fall on different virtual processors by
//! comparing owner ids under the two arrays' layouts.
//!
//! Collision semantics follow the language: plain scatter leaves the
//! last-written value (deterministically, in flat source order here);
//! combining scatters apply `+`, `max` or `min` at collisions.
//!
//! Under the SPMD backend the gathers pull their sources from the owning
//! workers ([`crate::spmd::pull_exec`]) and the scatter family routes
//! `(src, dst, value)` triples to the destination owners
//! ([`crate::spmd::route_exec`]), which apply them in global source order
//! — the same collision semantics as the serial loops. Indices are
//! validated (and off-processor elements counted) on the host first, so
//! worker threads cannot fail on bad input.
//!
//! Each primitive has one implementation, its `try_*` form, which checks
//! every index exactly once inside its fused validate + count pass and
//! returns a [`DpfError`] before anything is written or recorded. The
//! panicking names are one-line wrappers that panic with the error text.

use crate::spmd::{pull_exec, route_exec, Src};
use dpf_array::{DistArray, Layout, PAR_THRESHOLD};
use dpf_core::{CommPattern, Ctx, DpfError, Elem, Num};
use rayon::prelude::*;

/// Index pairs per task in the parallel validate/count/move loops.
const ROUTE_CHUNK: usize = 4096;

/// How a combining scatter resolves collisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Sum colliding contributions (`CMF send with add`).
    Add,
    /// Keep the maximum.
    Max,
    /// Keep the minimum.
    Min,
}

/// The error for a 1-D index `i` outside `0..n`.
fn out_of_bounds(label: &'static str, i: i32, n: i32) -> DpfError {
    DpfError::IndexOutOfBounds {
        label,
        index: i as i64,
        bound: n as i64,
    }
}

/// Sum two per-chunk results. The left error wins, so reducing the chunks
/// of a sweep in order reports the first bad index in flat order.
fn sum_in_order(a: Result<u64, DpfError>, b: Result<u64, DpfError>) -> Result<u64, DpfError> {
    Ok(a? + b?)
}

/// Validate a flat slice of 1-D indices into an array of layout `target`
/// and count how many address a different virtual processor than their
/// own flat position under `pos` owns, in one parallel pass.
///
/// Bounds validation runs unconditionally, including for fully serial
/// layouts. Owner ids are only computed when some layout is distributed:
/// the position side advances per block segment
/// ([`Layout::for_each_owner_segment`]) and the target side is a single
/// divide by the precomputed 1-D block extent. The first bad index in
/// flat order is the one reported.
fn validate_count_1d(
    pos: &Layout,
    target: &Layout,
    idx: &[i32],
    label: &'static str,
) -> Result<u64, DpfError> {
    let n = target.shape()[0] as i32;
    let distributed = pos.is_distributed() || target.is_distributed();
    let tblock = target.block(0);
    let count_chunk = |start: usize, chunk: &[i32]| -> Result<u64, DpfError> {
        let mut off = 0u64;
        let mut bad = None;
        if distributed {
            pos.for_each_owner_segment(start, chunk.len(), |seg0, seg_len, pown| {
                if bad.is_some() {
                    return;
                }
                for &d in &chunk[seg0 - start..seg0 - start + seg_len] {
                    if d < 0 || d >= n {
                        bad = Some(d);
                        return;
                    }
                    if (d as usize) / tblock != pown {
                        off += 1;
                    }
                }
            });
        } else {
            bad = chunk.iter().copied().find(|&d| d < 0 || d >= n);
        }
        match bad {
            Some(d) => Err(out_of_bounds(label, d, n)),
            None => Ok(off),
        }
    };
    // The rayon dispatch only pays off with real worker parallelism; on a
    // single-core host the chunked reduce made gather@4M ~0.94x of the
    // seed loop (BENCH_1), so fall back to the serial sweep there.
    if idx.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
        idx.par_chunks(ROUTE_CHUNK)
            .enumerate()
            .map(|(c, chunk)| count_chunk(c * ROUTE_CHUNK, chunk))
            // dpf-lint: allow(determinism-taint, reason = "integer counts; the in-order reduce keeps the first error")
            .reduce(|| Ok(0), sum_in_order)
    } else {
        count_chunk(0, idx)
    }
}

/// Validate per-axis coordinate arrays (one per axis of `target`, all
/// shaped like `pos`) and count the elements whose target owner differs
/// from the owner of their own position. Returns the flat target offsets
/// with the count, or the first coordinate, in element then axis order,
/// that lies outside its extent.
fn validate_count_nd(
    pos: &Layout,
    target: &Layout,
    coords: &[&DistArray<i32>],
    label: &'static str,
) -> Result<(Vec<usize>, u64), DpfError> {
    let shape = target.shape();
    let strides = target.strides();
    let flats = (0..pos.len())
        .map(|k| {
            let mut off = 0usize;
            for (d, c) in coords.iter().enumerate() {
                let i = c.as_slice()[k];
                if i < 0 || (i as usize) >= shape[d] {
                    return Err(DpfError::IndexOutOfExtent {
                        label,
                        index: i as i64,
                        extent: shape[d],
                    });
                }
                off += i as usize * strides[d];
            }
            Ok(off)
        })
        .collect::<Result<Vec<usize>, DpfError>>()?;
    let mut off = 0u64;
    if pos.is_distributed() || target.is_distributed() {
        pos.for_each_owner_segment(0, flats.len(), |seg0, seg_len, pown| {
            for &f in &flats[seg0..seg0 + seg_len] {
                if target.owner_id_flat(f) != pown {
                    off += 1;
                }
            }
        });
    }
    Ok((flats, off))
}

/// The 1-D scatter preconditions: a rank-1 destination and an index array
/// shaped like the source.
fn check_scatter_shapes<T: Elem>(
    dst: &DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) -> Result<(), DpfError> {
    if dst.rank() != 1 {
        return Err(DpfError::Shape {
            what: "scatter destination must be 1-D (use try_scatter_nd_combine)",
        });
    }
    if idx.shape() != src.shape() {
        return Err(DpfError::Shape {
            what: "index and source shapes must agree",
        });
    }
    Ok(())
}

/// `out = src(idx)` — gather from a 1-D source through a flat index array
/// of any rank; the result is shaped like `idx`. Panics with the
/// [`try_gather`] error text.
pub fn gather<T: Elem>(ctx: &Ctx, src: &DistArray<T>, idx: &DistArray<i32>) -> DistArray<T> {
    try_gather(ctx, src, idx).unwrap_or_else(|e| panic!("{e}"))
}

/// [`gather`] reporting a non-1-D source as [`DpfError::Shape`] and the
/// first out-of-range index as [`DpfError::IndexOutOfBounds`]. On error
/// nothing is recorded.
pub fn try_gather<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    idx: &DistArray<i32>,
) -> Result<DistArray<T>, DpfError> {
    gather_as(ctx, src, idx, CommPattern::Gather)
}

/// [`gather`] recorded as the language-level `Get` pattern.
pub fn get<T: Elem>(ctx: &Ctx, src: &DistArray<T>, idx: &DistArray<i32>) -> DistArray<T> {
    gather_as(ctx, src, idx, CommPattern::Get).unwrap_or_else(|e| panic!("{e}"))
}

fn gather_as<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    idx: &DistArray<i32>,
    pattern: CommPattern,
) -> Result<DistArray<T>, DpfError> {
    if src.rank() != 1 {
        return Err(DpfError::Shape {
            what: "gather source must be 1-D (use try_gather_nd)",
        });
    }
    let n = src.shape()[0] as i32;
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, idx.shape(), idx.layout().axes());
    let src_layout = src.layout();
    let dst_layout = out.layout().clone();
    let distributed = src_layout.is_distributed() || dst_layout.is_distributed();
    let sblock = src_layout.block(0);
    let offproc = if ctx.spmd() && distributed {
        // Validate + count on the host so the workers cannot fail, then
        // pull every output element from its source owner.
        let idx_s = idx.as_slice();
        let off = ctx.busy(|| validate_count_1d(&dst_layout, src_layout, idx_s, "gather index"))?;
        ctx.busy(|| {
            pull_exec(
                ctx,
                src_layout,
                src.as_slice(),
                &dst_layout,
                out.as_mut_slice(),
                &|flat| Src::Flat(idx_s[flat] as usize),
            );
        });
        off
    } else {
        // Validation, ownership accounting and data movement fused into
        // one (parallel) pass: the destination owner is constant per block
        // segment of the flat output range, the source owner is one divide.
        ctx.busy(|| {
            let s = src.as_slice();
            let move_chunk =
                |start: usize, out_chunk: &mut [T], idx_chunk: &[i32]| -> Result<u64, DpfError> {
                    let mut off = 0u64;
                    let mut bad = None;
                    if distributed {
                        dst_layout.for_each_owner_segment(
                            start,
                            out_chunk.len(),
                            |seg0, seg_len, down| {
                                if bad.is_some() {
                                    return;
                                }
                                let base = seg0 - start;
                                for k in base..base + seg_len {
                                    let i = idx_chunk[k];
                                    if i < 0 || i >= n {
                                        bad = Some(i);
                                        return;
                                    }
                                    let su = i as usize;
                                    if su / sblock != down {
                                        off += 1;
                                    }
                                    out_chunk[k] = s[su];
                                }
                            },
                        );
                    } else {
                        for (o, &i) in out_chunk.iter_mut().zip(idx_chunk) {
                            if i < 0 || i >= n {
                                bad = Some(i);
                                break;
                            }
                            *o = s[i as usize];
                        }
                    }
                    match bad {
                        Some(i) => Err(out_of_bounds("gather index", i, n)),
                        None => Ok(off),
                    }
                };
            if out.len() >= PAR_THRESHOLD && rayon::current_num_threads() > 1 {
                out.as_mut_slice()
                    .par_chunks_mut(ROUTE_CHUNK)
                    .zip(idx.as_slice().par_chunks(ROUTE_CHUNK))
                    .enumerate()
                    .map(|(c, (oc, ic))| move_chunk(c * ROUTE_CHUNK, oc, ic))
                    // dpf-lint: allow(determinism-taint, reason = "integer counts; the in-order reduce keeps the first error")
                    .reduce(|| Ok(0), sum_in_order)
            } else {
                move_chunk(0, out.as_mut_slice(), idx.as_slice())
            }
        })?
    };
    ctx.record_comm(
        pattern,
        src.rank(),
        idx.rank(),
        idx.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("gather", out.as_mut_slice());
    Ok(out)
}

/// Multi-dimensional gather: `out[k] = src(idx0[k], idx1[k], …)` with one
/// coordinate array per source axis, all shaped like the result. A
/// coordinate-count or shape mismatch is [`DpfError::Shape`]; the first
/// coordinate past its extent is [`DpfError::IndexOutOfExtent`].
pub fn try_gather_nd<T: Elem>(
    ctx: &Ctx,
    src: &DistArray<T>,
    coords: &[&DistArray<i32>],
) -> Result<DistArray<T>, DpfError> {
    if coords.len() != src.rank() {
        return Err(DpfError::Shape {
            what: "need one coordinate array per source axis",
        });
    }
    let out_layout = coords[0].layout();
    if coords.iter().any(|c| c.shape() != out_layout.shape()) {
        return Err(DpfError::Shape {
            what: "coordinate arrays must agree in shape",
        });
    }
    let src_layout = src.layout();
    let (flats, offproc) =
        ctx.busy(|| validate_count_nd(out_layout, src_layout, coords, "gather_nd index"))?;
    // Fully overwritten below, so a pooled scratch output is safe.
    let mut out = DistArray::<T>::scratch(ctx, out_layout.shape(), out_layout.axes());
    if ctx.spmd() && (src_layout.is_distributed() || out_layout.is_distributed()) {
        let dst_layout = out.layout().clone();
        ctx.busy(|| {
            pull_exec(
                ctx,
                src_layout,
                src.as_slice(),
                &dst_layout,
                out.as_mut_slice(),
                &|k| Src::Flat(flats[k]),
            );
        });
    } else {
        ctx.busy(|| {
            let s = src.as_slice();
            for (o, &f) in out.as_mut_slice().iter_mut().zip(&flats) {
                *o = s[f];
            }
        });
    }
    ctx.record_comm(
        CommPattern::Gather,
        src.rank(),
        out.rank(),
        out.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.faults.inject_slice("gather", out.as_mut_slice());
    Ok(out)
}

/// Plain scatter: `dst(idx[k]) = src[k]` with last-writer-wins collisions.
/// Panics with the [`try_scatter`] error text.
pub fn scatter<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) {
    try_scatter(ctx, dst, idx, src).unwrap_or_else(|e| panic!("{e}"));
}

/// [`scatter`] reporting a shape mismatch as [`DpfError::Shape`] and the
/// first out-of-range index as [`DpfError::IndexOutOfBounds`]. On error
/// `dst` is untouched and nothing is recorded.
pub fn try_scatter<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) -> Result<(), DpfError> {
    scatter_as(ctx, dst, idx, src, CommPattern::Scatter)
}

/// [`scatter`] recorded as the language-level `Send` pattern.
pub fn send<T: Elem>(ctx: &Ctx, dst: &mut DistArray<T>, idx: &DistArray<i32>, src: &DistArray<T>) {
    scatter_as(ctx, dst, idx, src, CommPattern::Send).unwrap_or_else(|e| panic!("{e}"));
}

fn scatter_as<T: Elem>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    pattern: CommPattern,
) -> Result<(), DpfError> {
    check_scatter_shapes(dst, idx, src)?;
    // Parallel validate + ownership count, then a serial apply: the apply
    // must stay in flat source order to keep last-writer-wins collisions
    // deterministic.
    let offproc = ctx
        .busy(|| validate_count_1d(src.layout(), dst.layout(), idx.as_slice(), "scatter index"))?;
    ctx.record_comm(
        pattern,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                &|slot, v| *slot = v,
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                d[i as usize] = v;
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
    Ok(())
}

/// The combining closure matching a [`Combine`] mode.
fn combine_apply<T: Num + PartialOrd>(combine: Combine) -> &'static (dyn Fn(&mut T, T) + Sync) {
    match combine {
        Combine::Add => &|slot, v| *slot += v,
        Combine::Max => &|slot, v| {
            if v > *slot {
                *slot = v;
            }
        },
        Combine::Min => &|slot, v| {
            if v < *slot {
                *slot = v;
            }
        },
    }
}

/// Combining scatter into a 1-D destination: `dst(idx[k]) ⊕= src[k]`.
/// Panics with the [`try_scatter_combine`] error text.
pub fn scatter_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    combine: Combine,
) {
    try_scatter_combine(ctx, dst, idx, src, combine).unwrap_or_else(|e| panic!("{e}"));
}

/// [`scatter_combine`] reporting a shape mismatch as [`DpfError::Shape`]
/// and the first out-of-range index as [`DpfError::IndexOutOfBounds`]. On
/// error `dst` is untouched and nothing is recorded.
pub fn try_scatter_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
    combine: Combine,
) -> Result<(), DpfError> {
    check_scatter_shapes(dst, idx, src)?;
    let offproc = ctx
        .busy(|| validate_count_1d(src.layout(), dst.layout(), idx.as_slice(), "scatter index"))?;
    ctx.record_comm(
        CommPattern::ScatterCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    }
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                combine_apply::<T>(combine),
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                let slot = &mut d[i as usize];
                match combine {
                    Combine::Add => *slot += v,
                    Combine::Max => {
                        if v > *slot {
                            *slot = v;
                        }
                    }
                    Combine::Min => {
                        if v < *slot {
                            *slot = v;
                        }
                    }
                }
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
    Ok(())
}

/// Combining deposit recorded as the paper's "Gather w/ combine" pattern
/// (pic-simple's `FORALL` with `SUM`: grid points gather and add particle
/// contributions). Mechanically identical to an add-scatter.
pub fn gather_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    idx: &DistArray<i32>,
    src: &DistArray<T>,
) {
    assert_eq!(dst.rank(), 1, "gather_combine destination must be 1-D");
    assert_eq!(
        idx.shape(),
        src.shape(),
        "index and source shapes must agree"
    );
    let offproc = ctx
        .busy(|| validate_count_1d(src.layout(), dst.layout(), idx.as_slice(), "index"))
        .unwrap_or_else(|e| panic!("{e}"));
    ctx.record_comm(
        CommPattern::GatherCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        let idx_s = idx.as_slice();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| idx_s[k] as usize,
                &|slot, v| *slot += v,
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&i, &v) in idx.as_slice().iter().zip(src.as_slice()) {
                d[i as usize] += v;
            }
        });
    }
    ctx.faults.inject_slice("gather", dst.as_mut_slice());
}

/// Multi-dimensional combining scatter: `dst(c0[k], c1[k], …) ⊕= src[k]`.
/// A coordinate-count or shape mismatch is [`DpfError::Shape`]; the first
/// coordinate past its extent is [`DpfError::IndexOutOfExtent`]. On error
/// `dst` is untouched and nothing is recorded.
pub fn try_scatter_nd_combine<T: Num + PartialOrd>(
    ctx: &Ctx,
    dst: &mut DistArray<T>,
    coords: &[&DistArray<i32>],
    src: &DistArray<T>,
    combine: Combine,
) -> Result<(), DpfError> {
    if coords.len() != dst.rank() {
        return Err(DpfError::Shape {
            what: "need one coordinate array per dest axis",
        });
    }
    if coords.iter().any(|c| c.shape() != src.shape()) {
        return Err(DpfError::Shape {
            what: "coordinate arrays must match source shape",
        });
    }
    let (flats, offproc) =
        ctx.busy(|| validate_count_nd(src.layout(), dst.layout(), coords, "scatter_nd index"))?;
    ctx.record_comm(
        CommPattern::ScatterCombine,
        src.rank(),
        dst.rank(),
        src.len() as u64,
        offproc * T::DTYPE.size() as u64,
    );
    if combine == Combine::Add {
        ctx.add_flops(src.len() as u64 * T::DTYPE.add_flops());
    }
    // Applied in flat source order to keep collisions deterministic.
    let apply = combine_apply::<T>(combine);
    if ctx.spmd() && (src.layout().is_distributed() || dst.layout().is_distributed()) {
        let dst_layout = dst.layout().clone();
        ctx.busy(|| {
            route_exec(
                ctx,
                src.layout(),
                src.as_slice(),
                &dst_layout,
                dst.as_mut_slice(),
                &|k| flats[k],
                apply,
            );
        });
    } else {
        ctx.busy(|| {
            let d = dst.as_mut_slice();
            for (&f, &v) in flats.iter().zip(src.as_slice()) {
                apply(&mut d[f], v);
            }
        });
    }
    ctx.faults.inject_slice("scatter", dst.as_mut_slice());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::{PAR, SER};
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn gather_reads_through_indices() {
        let ctx = ctx(4);
        let src = DistArray::<f64>::from_fn(&ctx, &[5], &[PAR], |i| i[0] as f64 * 10.0);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![4, 0, 2]);
        let out = gather(&ctx, &src, &idx);
        assert_eq!(out.to_vec(), vec![40.0, 0.0, 20.0]);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Gather), 1);
    }

    #[test]
    fn gather_into_higher_rank() {
        let ctx = ctx(2);
        let src = DistArray::<i32>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as i32);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2, 2], &[PAR, PAR], vec![3, 2, 1, 0]);
        let out = gather(&ctx, &src, &idx);
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.to_vec(), vec![3, 2, 1, 0]);
        let snap = ctx.instr.comm_snapshot();
        let key = snap.keys().next().unwrap();
        assert_eq!((key.src_rank, key.dst_rank), (1, 2));
    }

    #[test]
    fn gather_nd_uses_coordinates() {
        let ctx = ctx(2);
        let src =
            DistArray::<i32>::from_fn(&ctx, &[3, 3], &[PAR, PAR], |i| (i[0] * 3 + i[1]) as i32);
        let r = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![0, 2]);
        let c = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![2, 1]);
        let out = try_gather_nd(&ctx, &src, &[&r, &c]).unwrap();
        assert_eq!(out.to_vec(), vec![2, 7]);
    }

    #[test]
    fn scatter_overwrites_last_wins() {
        let ctx = ctx(4);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![1, 3, 1]);
        let src = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![10, 20, 30]);
        scatter(&ctx, &mut dst, &idx, &src);
        assert_eq!(dst.to_vec(), vec![0, 30, 0, 20]);
    }

    #[test]
    fn scatter_add_accumulates_collisions() {
        let ctx = ctx(4);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[3], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[4], &[PAR], vec![0, 1, 0, 1]);
        let src = DistArray::<f64>::from_vec(&ctx, &[4], &[PAR], vec![1., 2., 3., 4.]);
        scatter_combine(&ctx, &mut dst, &idx, &src, Combine::Add);
        assert_eq!(dst.to_vec(), vec![4.0, 6.0, 0.0]);
        assert_eq!(ctx.instr.flops(), 4);
    }

    #[test]
    fn scatter_max_keeps_largest() {
        let ctx = ctx(2);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[2], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 0, 1]);
        let src = DistArray::<f64>::from_vec(&ctx, &[3], &[PAR], vec![2., 5., -1.]);
        scatter_combine(&ctx, &mut dst, &idx, &src, Combine::Max);
        assert_eq!(dst.to_vec(), vec![5.0, 0.0]);
    }

    #[test]
    fn scatter_nd_combine_into_grid() {
        let ctx = ctx(2);
        let mut grid = DistArray::<f64>::zeros(&ctx, &[2, 2], &[PAR, PAR]);
        let r = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 1, 0]);
        let c = DistArray::<i32>::from_vec(&ctx, &[3], &[PAR], vec![0, 1, 0]);
        let v = DistArray::<f64>::from_vec(&ctx, &[3], &[PAR], vec![1., 2., 3.]);
        try_scatter_nd_combine(&ctx, &mut grid, &[&r, &c], &v, Combine::Add).unwrap();
        assert_eq!(grid.get(&[0, 0]), 4.0);
        assert_eq!(grid.get(&[1, 1]), 2.0);
    }

    #[test]
    fn send_and_get_record_their_own_patterns() {
        let ctx = ctx(2);
        let src = DistArray::<i32>::from_fn(&ctx, &[4], &[PAR], |i| i[0] as i32);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[PAR], vec![1, 2]);
        let _ = get(&ctx, &src, &idx);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[PAR]);
        send(
            &ctx,
            &mut dst,
            &idx,
            &DistArray::<i32>::zeros(&ctx, &[2], &[PAR]),
        );
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Get), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Send), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Gather), 0);
    }

    #[test]
    fn serial_arrays_move_nothing_offproc() {
        let ctx = ctx(1);
        let src = DistArray::<f64>::from_fn(&ctx, &[8], &[SER], |i| i[0] as f64);
        let idx = DistArray::<i32>::from_vec(&ctx, &[8], &[SER], (0..8).rev().collect());
        let _ = gather(&ctx, &src, &idx);
        let snap = ctx.instr.comm_snapshot();
        assert_eq!(snap.values().next().unwrap().offproc_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        let ctx = ctx(2);
        let src = DistArray::<f64>::zeros(&ctx, &[4], &[PAR]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[1], &[PAR], vec![4]);
        let _ = gather(&ctx, &src, &idx);
    }

    // Regression: the seed ran bounds validation only inside the
    // off-processor counting iterator, which early-returned when both
    // layouts were serial — so fully local gathers/scatters skipped the
    // documented checks. Validation must run regardless of layout.

    #[test]
    #[should_panic(expected = "gather index -1 out of bounds 4")]
    fn gather_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let src = DistArray::<f64>::zeros(&ctx, &[4], &[SER]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![0, -1]);
        let _ = gather(&ctx, &src, &idx);
    }

    #[test]
    #[should_panic(expected = "scatter index 9 out of bounds 4")]
    fn scatter_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let mut dst = DistArray::<i32>::zeros(&ctx, &[4], &[SER]);
        let idx = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![1, 9]);
        let src = DistArray::<i32>::from_vec(&ctx, &[2], &[SER], vec![5, 6]);
        scatter(&ctx, &mut dst, &idx, &src);
    }

    #[test]
    fn gather_nd_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let src = DistArray::<i32>::zeros(&ctx, &[3, 3], &[SER, SER]);
        let r = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![3]);
        let c = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![0]);
        let err = try_gather_nd(&ctx, &src, &[&r, &c]).unwrap_err();
        assert_eq!(err.to_string(), "gather_nd index 3 out of extent 3");
    }

    #[test]
    fn scatter_nd_bounds_checked_with_serial_layouts() {
        let ctx = ctx(1);
        let mut dst = DistArray::<f64>::zeros(&ctx, &[2, 2], &[SER, SER]);
        let r = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![7]);
        let c = DistArray::<i32>::from_vec(&ctx, &[1], &[SER], vec![0]);
        let v = DistArray::<f64>::from_vec(&ctx, &[1], &[SER], vec![1.0]);
        let err = try_scatter_nd_combine(&ctx, &mut dst, &[&r, &c], &v, Combine::Add).unwrap_err();
        assert_eq!(err.to_string(), "scatter_nd index 7 out of extent 2");
    }

    #[test]
    fn parallel_gather_path_matches_serial_reference() {
        // Above PAR_THRESHOLD the fused move/count loop runs under rayon;
        // verify values and the off-processor byte count against a direct
        // owner_id comparison.
        let ctx = ctx(4);
        let n = 20_000usize;
        let src = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as f64);
        let idx =
            DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| ((i[0] * 7919 + 13) % n) as i32);
        let out = gather(&ctx, &src, &idx);
        for k in (0..n).step_by(1013) {
            assert_eq!(out.as_slice()[k], ((k * 7919 + 13) % n) as f64);
        }
        let expected_offproc: u64 = idx
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(d, &s)| {
                src.layout().owner_id_flat(s as usize) != out.layout().owner_id_flat(d)
            })
            .count() as u64;
        let snap = ctx.instr.comm_snapshot();
        let stats = snap.values().next().unwrap();
        assert_eq!(stats.offproc_bytes, expected_offproc * 8);
    }
}
