//! `gauss-jordan` — linear solve by Gauss–Jordan elimination.
//!
//! Table 2: `x(:)`, `A(:,:)`. Table 4: `n + 2 + 2n²` FLOPs per iteration,
//! memory `28n² + 16n` bytes (s), and per iteration **1 Reduction,
//! 3 Sends, 2 Gets, 2 Broadcasts** — the pivot search, the row/column
//! exchanges through the router, and the pivot row/column broadcasts.

use dpf_array::{DistArray, PAR};
use dpf_core::{flops, CommPattern, Ctx, DpfError, Verify};

/// Solve `A x = b` by Gauss–Jordan elimination with partial pivoting,
/// reducing the augmented system to the identity. Panics on singular `A`.
pub fn gauss_jordan_solve(ctx: &Ctx, a: &DistArray<f64>, b: &DistArray<f64>) -> DistArray<f64> {
    try_gauss_jordan_solve(ctx, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// [`gauss_jordan_solve`] with recoverable [`DpfError`]s: `Shape` for a
/// non-square matrix or a mismatched rhs, `SingularMatrix` for a vanished
/// pivot (found mid-elimination, after the charges of the steps before it).
pub fn try_gauss_jordan_solve(
    ctx: &Ctx,
    a: &DistArray<f64>,
    b: &DistArray<f64>,
) -> Result<DistArray<f64>, DpfError> {
    if a.rank() != 2 || a.shape()[0] != a.shape()[1] {
        return Err(DpfError::Shape {
            what: "matrix must be square 2-D",
        });
    }
    let n = a.shape()[0];
    if b.shape() != [n] {
        return Err(DpfError::Shape {
            what: "rhs must be length n",
        });
    }
    // Augmented system [A | b], width n+1.
    let w = n + 1;
    let mut m = vec![0.0f64; n * w];
    ctx.busy(|| {
        for i in 0..n {
            m[i * w..i * w + n].copy_from_slice(&a.as_slice()[i * n..(i + 1) * n]);
            m[i * w + n] = b.as_slice()[i];
        }
    });
    for k in 0..n {
        // Pivot search: 1 Reduction.
        ctx.record_comm(CommPattern::Reduction, 2, 0, (n - k) as u64, 0);
        let p = ctx.busy(|| {
            let mut best = k;
            for i in k + 1..n {
                if m[i * w + k].abs() > m[best * w + k].abs() {
                    best = i;
                }
            }
            best
        });
        let piv = m[p * w + k];
        if piv.abs() <= 1e-300 {
            return Err(DpfError::SingularMatrix { step: k });
        }
        // Row exchange through the router: 3 Sends + 2 Gets (fetch both
        // rows, send both back, send the pivot scalar).
        ctx.record_comm(CommPattern::Get, 2, 1, w as u64, 0);
        ctx.record_comm(CommPattern::Get, 2, 1, w as u64, 0);
        ctx.record_comm(CommPattern::Send, 1, 2, w as u64, 0);
        ctx.record_comm(CommPattern::Send, 1, 2, w as u64, 0);
        ctx.record_comm(CommPattern::Send, 0, 0, 1, 0);
        if p != k {
            ctx.busy(|| {
                for j in 0..w {
                    m.swap(k * w + j, p * w + j);
                }
            });
        }
        // Normalize the pivot row and broadcast it; broadcast the pivot
        // column multipliers: 2 Broadcasts.
        ctx.record_comm(CommPattern::Broadcast, 1, 2, w as u64, 0);
        ctx.record_comm(CommPattern::Broadcast, 1, 2, n as u64, 0);
        // Row scale: 1 reciprocal (DIV) + n multiplies; elimination over
        // all other rows: 2 n (n+1) ≈ 2n² mul-adds — Table 4's n + 2 + 2n².
        ctx.add_flops(flops::DIV + n as u64 + 2 * (n as u64) * (w as u64));
        ctx.busy(|| {
            let inv = 1.0 / piv;
            for j in 0..w {
                m[k * w + j] *= inv;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = m[i * w + k];
                if f == 0.0 {
                    continue;
                }
                for j in 0..w {
                    m[i * w + j] -= f * m[k * w + j];
                }
            }
        });
    }
    Ok(DistArray::<f64>::from_vec(
        ctx,
        &[n],
        &[PAR],
        (0..n).map(|i| m[i * w + n]).collect(),
    ))
}

/// Invert `A` by Gauss–Jordan elimination on the augmented `[A | I]`
/// system — the other classical use of the kernel, with the same
/// per-iteration communication inventory.
pub fn gauss_jordan_invert(ctx: &Ctx, a: &DistArray<f64>) -> DistArray<f64> {
    assert_eq!(a.rank(), 2, "matrix must be 2-D");
    let n = a.shape()[0];
    assert_eq!(a.shape()[1], n, "matrix must be square");
    let w = 2 * n;
    let mut m = vec![0.0f64; n * w];
    ctx.busy(|| {
        for i in 0..n {
            m[i * w..i * w + n].copy_from_slice(&a.as_slice()[i * n..(i + 1) * n]);
            m[i * w + n + i] = 1.0;
        }
    });
    for k in 0..n {
        ctx.record_comm(CommPattern::Reduction, 2, 0, (n - k) as u64, 0);
        let p = ctx.busy(|| {
            let mut best = k;
            for i in k + 1..n {
                if m[i * w + k].abs() > m[best * w + k].abs() {
                    best = i;
                }
            }
            best
        });
        let piv = m[p * w + k];
        assert!(piv.abs() > 1e-300, "singular matrix at step {k}");
        for _ in 0..3 {
            ctx.record_comm(CommPattern::Send, 1, 2, w as u64, 0);
        }
        for _ in 0..2 {
            ctx.record_comm(CommPattern::Get, 2, 1, w as u64, 0);
        }
        if p != k {
            ctx.busy(|| {
                for j in 0..w {
                    m.swap(k * w + j, p * w + j);
                }
            });
        }
        ctx.record_comm(CommPattern::Broadcast, 1, 2, w as u64, 0);
        ctx.record_comm(CommPattern::Broadcast, 1, 2, n as u64, 0);
        ctx.add_flops(flops::DIV + w as u64 + 2 * (n as u64) * (w as u64));
        ctx.busy(|| {
            let inv = 1.0 / piv;
            for j in 0..w {
                m[k * w + j] *= inv;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = m[i * w + k];
                if f == 0.0 {
                    continue;
                }
                for j in 0..w {
                    m[i * w + j] -= f * m[k * w + j];
                }
            }
        });
    }
    DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, PAR], |idx| m[idx[0] * w + n + idx[1]])
}

/// Diagonally-dominant workload (`A`, `b`).
pub fn workload(ctx: &Ctx, n: usize) -> (DistArray<f64>, DistArray<f64>) {
    let a = DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, PAR], |idx| {
        let v = pseudo(idx[0] * 61 + idx[1] * 13);
        if idx[0] == idx[1] {
            v + n as f64
        } else {
            v
        }
    })
    .declare(ctx);
    let b = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |idx| pseudo(idx[0] * 7 + 3)).declare(ctx);
    (a, b)
}

fn pseudo(seed: usize) -> f64 {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    (h as f64 / usize::MAX as f64) * 2.0 - 1.0
}

/// Verify against the serial reference solver.
pub fn verify(a: &DistArray<f64>, b: &DistArray<f64>, x: &DistArray<f64>, tol: f64) -> Verify {
    let n = a.shape()[0];
    let worst = crate::reference::residual_dense(a.as_slice(), x.as_slice(), b.as_slice(), n, n);
    Verify::check("gauss-jordan residual", worst, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn solves_diagonally_dominant_system() {
        let ctx = ctx(4);
        let (a, b) = workload(&ctx, 16);
        let x = gauss_jordan_solve(&ctx, &a, &b);
        assert!(verify(&a, &b, &x, 1e-10).is_pass());
    }

    #[test]
    fn matches_reference_solver() {
        let ctx = ctx(2);
        let (a, b) = workload(&ctx, 9);
        let x = gauss_jordan_solve(&ctx, &a, &b);
        let want = crate::reference::solve_dense(a.as_slice(), b.as_slice(), 9).unwrap();
        for (p, q) in x.to_vec().iter().zip(&want) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn needs_pivoting_when_diagonal_vanishes() {
        let ctx = ctx(1);
        // [[0, 1], [1, 0]] x = [2, 3] -> x = [3, 2].
        let a = DistArray::<f64>::from_vec(&ctx, &[2, 2], &[PAR, PAR], vec![0., 1., 1., 0.]);
        let b = DistArray::<f64>::from_vec(&ctx, &[2], &[PAR], vec![2., 3.]);
        let x = gauss_jordan_solve(&ctx, &a, &b);
        assert_eq!(x.to_vec(), vec![3.0, 2.0]);
    }

    #[test]
    fn comm_counts_match_table4_per_iteration() {
        let ctx = ctx(4);
        let (a, b) = workload(&ctx, 8);
        let _ = gauss_jordan_solve(&ctx, &a, &b);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 8);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Send), 24);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Get), 16);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 16);
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let ctx = ctx(4);
        let (a, _) = workload(&ctx, 12);
        let inv = gauss_jordan_invert(&ctx, &a);
        let n = 12;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.as_slice()[i * n + k] * inv.as_slice()[k * n + j];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((s - want).abs() < 1e-10, "A·A⁻¹[{i}][{j}] = {s}");
            }
        }
    }

    #[test]
    fn inverse_solves_like_the_solver() {
        let ctx = ctx(2);
        let (a, b) = workload(&ctx, 10);
        let x_solve = gauss_jordan_solve(&ctx, &a, &b);
        let inv = gauss_jordan_invert(&ctx, &a);
        let n = 10;
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += inv.as_slice()[i * n + k] * b.as_slice()[k];
            }
            assert!((s - x_solve.as_slice()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn flops_leading_order_is_2n_cubed() {
        let ctx = ctx(1);
        let n = 32u64;
        let (a, b) = workload(&ctx, n as usize);
        let f0 = ctx.instr.flops();
        let _ = gauss_jordan_solve(&ctx, &a, &b);
        let measured = (ctx.instr.flops() - f0) as f64;
        let expect = 2.0 * (n as f64).powi(3); // n iterations of ~2n².
        assert!(
            (measured - expect).abs() / expect < 0.15,
            "{measured} vs {expect}"
        );
    }
}
