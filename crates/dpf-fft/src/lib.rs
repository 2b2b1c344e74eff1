//! Instrumented radix-2 FFT for the DPF suite.
//!
//! The paper's `fft` benchmark family (1-D/2-D/3-D, Table 4) and the
//! spectral application codes (`ks-spectral`, `pic-simple`, `wave-1D`)
//! are built on this transform. The accounting follows Table 4's
//! per-stage model: each of the `log2 n` butterfly stages performs
//! `5n` real FLOPs (`n/2` butterflies × one complex multiply + two
//! complex adds = `n/2 × (6 + 4)`), and exchanges data at distance
//! `2^s` — recorded as **2 CSHIFTs and 1 AAPC per stage**, exactly the
//! per-iteration communication row of Table 4, with off-processor volume
//! computed from the block layout at that stage's stride.
//!
//! The butterfly data motion of the application codes is recorded by the
//! same machinery under the `Butterfly` pattern via [`fft_axis_as`].

#![warn(missing_docs)]

use dpf_array::DistArray;
use dpf_core::{CommPattern, Ctx, DpfError, C64};
use rayon::prelude::*;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `X[k] = Σ x[j]·e^{-2πijk/n}`.
    Forward,
    /// Unnormalized inverse kernel; [`fft`] applies the `1/n` scaling.
    Inverse,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// FLOPs per butterfly stage of a length-`n` transform (Table 4's `5n`).
pub const fn stage_flops(n: usize) -> u64 {
    5 * n as u64
}

/// In-place radix-2 DIT FFT of one contiguous row. `n` must be a power of
/// two. No instrumentation — callers account in bulk.
pub fn fft_row(buf: &mut [C64], dir: Direction) {
    try_fft_row(buf, dir).unwrap_or_else(|e| panic!("{e}"));
}

/// [`fft_row`] with a recoverable [`DpfError::NotPowerOfTwo`] (same
/// message text as the panicking path).
pub fn try_fft_row(buf: &mut [C64], dir: Direction) -> Result<(), DpfError> {
    let n = buf.len();
    if !n.is_power_of_two() {
        return Err(DpfError::NotPowerOfTwo { what: "length", n });
    }
    transform_row(buf, dir);
    Ok(())
}

/// The radix-2 transform of a row whose length is already known to be a
/// power of two.
fn transform_row(buf: &mut [C64], dir: Direction) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterfly stages.
    let sign = dir.sign();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::cis(ang);
        let mut start = 0;
        while start < n {
            let mut w = C64::one();
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * w;
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
}

/// O(n²) reference DFT for verification.
pub fn dft_reference(input: &[C64], dir: Direction) -> Vec<C64> {
    let n = input.len();
    let sign = dir.sign();
    (0..n)
        .map(|k| {
            let mut acc = C64::zero();
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += x * C64::cis(ang);
            }
            acc
        })
        .collect()
}

/// 1-D FFT of a 1-D array, with Table 4 instrumentation. The inverse is
/// normalized by `1/n`. Panics with the [`try_fft`] error text.
pub fn fft(ctx: &Ctx, a: &DistArray<C64>, dir: Direction) -> DistArray<C64> {
    try_fft(ctx, a, dir).unwrap_or_else(|e| panic!("{e}"))
}

/// [`fft`] with recoverable [`DpfError`]s instead of panics: `Shape` for
/// a non-1-D input, `NotPowerOfTwo` for a bad length.
pub fn try_fft(ctx: &Ctx, a: &DistArray<C64>, dir: Direction) -> Result<DistArray<C64>, DpfError> {
    if a.rank() != 1 {
        return Err(DpfError::Shape {
            what: "fft expects a 1-D array (use fft_axis)",
        });
    }
    try_fft_axis(ctx, a, 0, dir)
}

/// FFT along one axis of an array of any rank (each lane transformed
/// independently — `ks-spectral`'s "1-D FFTs on 2-D arrays"). Panics with
/// the [`try_fft_axis`] error text.
pub fn fft_axis(ctx: &Ctx, a: &DistArray<C64>, axis: usize, dir: Direction) -> DistArray<C64> {
    try_fft_axis(ctx, a, axis, dir).unwrap_or_else(|e| panic!("{e}"))
}

/// [`fft_axis`] with a recoverable [`DpfError`]: `Shape` for an axis past
/// the rank, `NotPowerOfTwo` for a bad extent.
pub fn try_fft_axis(
    ctx: &Ctx,
    a: &DistArray<C64>,
    axis: usize,
    dir: Direction,
) -> Result<DistArray<C64>, DpfError> {
    try_fft_axis_as(ctx, a, axis, dir, CommPattern::Aapc)
}

/// [`fft_axis`] with the stage exchange recorded under a caller-chosen
/// pattern — the application codes log it as `Butterfly` (paper Table 7).
pub fn fft_axis_as(
    ctx: &Ctx,
    a: &DistArray<C64>,
    axis: usize,
    dir: Direction,
    exchange_pattern: CommPattern,
) -> DistArray<C64> {
    try_fft_axis_as(ctx, a, axis, dir, exchange_pattern).unwrap_or_else(|e| panic!("{e}"))
}

/// [`fft_axis_as`] with a recoverable [`DpfError`]: `Shape` for an axis
/// past the rank, `NotPowerOfTwo` for a bad extent. On error nothing is
/// recorded.
pub fn try_fft_axis_as(
    ctx: &Ctx,
    a: &DistArray<C64>,
    axis: usize,
    dir: Direction,
    exchange_pattern: CommPattern,
) -> Result<DistArray<C64>, DpfError> {
    if axis >= a.rank() {
        return Err(DpfError::Shape {
            what: "fft axis out of range",
        });
    }
    let n = a.shape()[axis];
    if !n.is_power_of_two() {
        return Err(DpfError::NotPowerOfTwo { what: "extent", n });
    }
    record_stages(ctx, a, axis, exchange_pattern);
    let stages = n.trailing_zeros() as u64;
    let lanes = a.layout().lanes(axis) as u64;
    ctx.add_flops(stages * stage_flops(n) * lanes);
    if dir == Direction::Inverse {
        // 1/n normalization: one real multiply per real component.
        ctx.add_flops(2 * a.len() as u64);
    }

    // Move the axis last (local data motion), transform contiguous rows in
    // parallel, move back.
    let rank = a.rank();
    let mut out = if axis == rank - 1 {
        a.clone()
    } else {
        let mut order: Vec<usize> = (0..rank).collect();
        order.remove(axis);
        order.push(axis);
        ctx.suppress_comm(|| a.permute(ctx, &order))
    };
    ctx.busy(|| {
        let rows = out.as_mut_slice().par_chunks_mut(n);
        rows.for_each(|row| {
            transform_row(row, dir);
            if dir == Direction::Inverse {
                let scale = 1.0 / n as f64;
                for x in row.iter_mut() {
                    *x = x.scale(scale);
                }
            }
        });
    });
    let mut out = if axis == rank - 1 {
        out
    } else {
        // Invert the permutation: the axis currently last goes back home.
        let mut back: Vec<usize> = (0..rank - 1).collect();
        back.insert(axis, rank - 1);
        ctx.suppress_comm(|| out.permute(ctx, &back))
    };
    ctx.faults.inject_slice("fft", out.as_mut_slice());
    Ok(out)
}

/// Full 2-D FFT (both axes).
pub fn fft_2d(ctx: &Ctx, a: &DistArray<C64>, dir: Direction) -> DistArray<C64> {
    assert_eq!(a.rank(), 2);
    let t = fft_axis(ctx, a, 1, dir);
    fft_axis(ctx, &t, 0, dir)
}

/// Full 3-D FFT (all axes).
pub fn fft_3d(ctx: &Ctx, a: &DistArray<C64>, dir: Direction) -> DistArray<C64> {
    assert_eq!(a.rank(), 3);
    let t = fft_axis(ctx, a, 2, dir);
    let t = fft_axis(ctx, &t, 1, dir);
    fft_axis(ctx, &t, 0, dir)
}

/// Record Table 4's per-stage communication: 2 CSHIFTs plus one exchange
/// (AAPC for the library benchmark, Butterfly for the application codes)
/// per butterfly stage, with the halo volume of that stage's stride.
fn record_stages(ctx: &Ctx, a: &DistArray<C64>, axis: usize, exchange: CommPattern) {
    let n = a.shape()[axis];
    let lanes = a.layout().lanes(axis) as u64;
    let esize = 16u64; // C64
    let stages = n.trailing_zeros();
    for s in 0..stages {
        let stride = 1isize << s;
        let moved = a.layout().offproc_per_lane(axis, stride) as u64 * lanes * esize;
        ctx.record_comm(
            CommPattern::Cshift,
            a.rank(),
            a.rank(),
            a.len() as u64,
            moved,
        );
        ctx.record_comm(
            CommPattern::Cshift,
            a.rank(),
            a.rank(),
            a.len() as u64,
            moved,
        );
        ctx.record_comm(exchange, a.rank(), a.rank(), a.len() as u64, moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_array::{PAR, SER};
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn fft_matches_reference_dft() {
        let ctx = ctx(4);
        let n = 32;
        let a = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
            C64::new((i[0] as f64 * 0.7).sin(), (i[0] as f64 * 0.3).cos())
        });
        let f = fft(&ctx, &a, Direction::Forward);
        let reference = dft_reference(a.as_slice(), Direction::Forward);
        for (x, y) in f.as_slice().iter().zip(&reference) {
            assert!(close(*x, *y, 1e-9), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let ctx = ctx(2);
        let n = 64;
        let a = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
            C64::new(i[0] as f64, -(i[0] as f64) * 0.5)
        });
        let back = fft(&ctx, &fft(&ctx, &a, Direction::Forward), Direction::Inverse);
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            assert!(close(*x, *y, 1e-9));
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let ctx = ctx(1);
        let n = 16;
        let mut v = vec![C64::zero(); n];
        v[0] = C64::one();
        let a = DistArray::<C64>::from_vec(&ctx, &[n], &[PAR], v);
        let f = fft(&ctx, &a, Direction::Forward);
        for &x in f.as_slice() {
            assert!(close(x, C64::one(), 1e-12));
        }
    }

    #[test]
    fn flops_are_5n_log_n() {
        let ctx = ctx(1);
        let n = 256;
        let a = DistArray::<C64>::zeros(&ctx, &[n], &[PAR]);
        let _ = fft(&ctx, &a, Direction::Forward);
        assert_eq!(ctx.instr.flops(), 5 * 256 * 8);
    }

    #[test]
    fn per_stage_comm_counts_match_table4() {
        let ctx = ctx(4);
        let n = 64; // 6 stages
        let a = DistArray::<C64>::zeros(&ctx, &[n], &[PAR]);
        let _ = fft(&ctx, &a, Direction::Forward);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Cshift), 12);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Aapc), 6);
    }

    #[test]
    fn fft_axis_on_2d_rows_and_columns() {
        let ctx = ctx(2);
        let a = DistArray::<C64>::from_fn(&ctx, &[4, 8], &[PAR, PAR], |i| {
            C64::new((i[0] + i[1]) as f64, 0.0)
        });
        let rows = fft_axis(&ctx, &a, 1, Direction::Forward);
        for r in 0..4 {
            let row: Vec<C64> = (0..8).map(|c| a.get(&[r, c])).collect();
            let reference = dft_reference(&row, Direction::Forward);
            for (c, &want) in reference.iter().enumerate() {
                assert!(close(rows.get(&[r, c]), want, 1e-9));
            }
        }
        let cols = fft_axis(&ctx, &a, 0, Direction::Forward);
        for c in 0..8 {
            let col: Vec<C64> = (0..4).map(|r| a.get(&[r, c])).collect();
            let reference = dft_reference(&col, Direction::Forward);
            for (r, &want) in reference.iter().enumerate() {
                assert!(close(cols.get(&[r, c]), want, 1e-9));
            }
        }
    }

    #[test]
    fn fft_2d_round_trips() {
        let ctx = ctx(4);
        let a = DistArray::<C64>::from_fn(&ctx, &[8, 8], &[PAR, PAR], |i| {
            C64::new((i[0] * 8 + i[1]) as f64, (i[0] as f64) - (i[1] as f64))
        });
        let back = fft_2d(
            &ctx,
            &fft_2d(&ctx, &a, Direction::Forward),
            Direction::Inverse,
        );
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            assert!(close(*x, *y, 1e-8));
        }
    }

    #[test]
    fn fft_3d_round_trips() {
        let ctx = ctx(4);
        let a = DistArray::<C64>::from_fn(&ctx, &[4, 4, 4], &[PAR, PAR, SER], |i| {
            C64::new((i[0] + 2 * i[1]) as f64, i[2] as f64)
        });
        let back = fft_3d(
            &ctx,
            &fft_3d(&ctx, &a, Direction::Forward),
            Direction::Inverse,
        );
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            assert!(close(*x, *y, 1e-8));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let ctx = ctx(2);
        let n = 128;
        let a = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
            C64::new((i[0] as f64 * 1.1).sin(), (i[0] as f64 * 0.9).cos())
        });
        let f = fft(&ctx, &a, Direction::Forward);
        let e_time: f64 = a.as_slice().iter().map(|x| x.abs2()).sum();
        let e_freq: f64 = f.as_slice().iter().map(|x| x.abs2()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-7 * e_time);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_rejected() {
        let ctx = ctx(1);
        let a = DistArray::<C64>::zeros(&ctx, &[12], &[PAR]);
        let _ = fft(&ctx, &a, Direction::Forward);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trip_random(bits in 1u32..9, seedr in -10.0f64..10.0) {
                let ctx = Ctx::new(Machine::cm5(4));
                let n = 1usize << bits;
                let a = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
                    C64::new(
                        (i[0] as f64 * 0.37 + seedr).sin(),
                        (i[0] as f64 * 0.81 - seedr).cos(),
                    )
                });
                let back = fft(&ctx, &fft(&ctx, &a, Direction::Forward), Direction::Inverse);
                for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
                    prop_assert!((*x - *y).abs() < 1e-8);
                }
            }

            #[test]
            fn linearity(bits in 1u32..7, alpha in -3.0f64..3.0) {
                let ctx = Ctx::new(Machine::cm5(2));
                let n = 1usize << bits;
                let a = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
                    C64::new(i[0] as f64, 1.0)
                });
                let b = DistArray::<C64>::from_fn(&ctx, &[n], &[PAR], |i| {
                    C64::new(1.0, -(i[0] as f64))
                });
                let sum = a.zip_map(&ctx, 2, &b, move |x, y| x + y.scale(alpha));
                let f_sum = fft(&ctx, &sum, Direction::Forward);
                let fa = fft(&ctx, &a, Direction::Forward);
                let fb = fft(&ctx, &b, Direction::Forward);
                for k in 0..n {
                    let expect = fa.as_slice()[k] + fb.as_slice()[k].scale(alpha);
                    prop_assert!((f_sum.as_slice()[k] - expect).abs() < 1e-8);
                }
            }
        }
    }
}
