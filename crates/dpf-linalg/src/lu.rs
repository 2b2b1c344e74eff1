//! `lu` — dense LU factorization and solution.
//!
//! Table 4 characterizes the main loops as: factor `(2/3)n³` FLOPs with
//! **1 Reduction + 1 Broadcast** per iteration (pivot search, pivot-row
//! broadcast), solve `2rn²` FLOPs for `r` right-hand sides with
//! **1 Reduction** per iteration, memory `8n(n + 2r)` bytes per instance
//! (d), no local axes (N/A access).
//!
//! Right-looking factorization with partial pivoting; the paper times
//! factor and solve as separate segments, which the suite reproduces with
//! `ctx.phase("lu:factor")` / `ctx.phase("lu:solve")` in the harness.

use dpf_array::{DistArray, PAR};
use dpf_core::{flops, CommPattern, Ctx, DpfError, Verify};

/// Compact LU factors plus the pivot permutation.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// `L` (unit lower, below diagonal) and `U` (upper) packed in place.
    pub lu: DistArray<f64>,
    /// Row `i` of the factorization came from row `perm[i]` of `A`.
    pub perm: Vec<usize>,
}

/// The order `n` of a square 2-D matrix, or [`DpfError::Shape`].
fn check_square(a: &DistArray<f64>) -> Result<usize, DpfError> {
    if a.rank() != 2 || a.shape()[0] != a.shape()[1] {
        return Err(DpfError::Shape {
            what: "lu expects a square 2-D matrix",
        });
    }
    Ok(a.shape()[0])
}

/// Factor `A` (n×n) with partial pivoting, panicking on singular input.
pub fn lu_factor(ctx: &Ctx, a: &DistArray<f64>) -> LuFactors {
    try_lu_factor(ctx, a).unwrap_or_else(|e| panic!("{e}"))
}

/// Factor `A` (n×n) with partial pivoting. A non-square input is
/// [`DpfError::Shape`]; a vanished pivot is [`DpfError::SingularMatrix`],
/// found mid-elimination after the charges of the steps before it.
pub fn try_lu_factor(ctx: &Ctx, a: &DistArray<f64>) -> Result<LuFactors, DpfError> {
    let n = check_square(a)?;
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot search down column k — 1 Reduction per iteration.
        ctx.record_comm(CommPattern::Reduction, 2, 0, (n - k) as u64, 0);
        let (p, piv) = ctx.busy(|| {
            let s = lu.as_slice();
            let mut best = k;
            let mut bm = s[k * n + k].abs();
            for i in k + 1..n {
                let m = s[i * n + k].abs();
                if m > bm {
                    bm = m;
                    best = i;
                }
            }
            (best, s[best * n + k])
        });
        if piv.abs() <= 1e-300 {
            return Err(DpfError::SingularMatrix { step: k });
        }
        if p != k {
            ctx.busy(|| {
                let s = lu.as_mut_slice();
                for j in 0..n {
                    s.swap(k * n + j, p * n + j);
                }
            });
            perm.swap(k, p);
        }
        // Broadcast the pivot row and eliminate — 1 Broadcast per iteration.
        let trailing = (n - k - 1) as u64;
        ctx.record_comm(CommPattern::Broadcast, 1, 2, trailing * (trailing + 1), 0);
        // Multipliers: (n-k-1) divisions; update: 2 (n-k-1)^2 mul-adds.
        ctx.add_flops(trailing * flops::DIV + 2 * trailing * trailing);
        ctx.busy(|| {
            let s = lu.as_mut_slice();
            for i in k + 1..n {
                let f = s[i * n + k] / piv;
                s[i * n + k] = f;
                for j in k + 1..n {
                    s[i * n + j] -= f * s[k * n + j];
                }
            }
        });
    }
    Ok(LuFactors { lu, perm })
}

/// Solve `A X = B` for `r` right-hand sides (B is n×r) using the factors.
pub fn lu_solve(ctx: &Ctx, f: &LuFactors, b: &DistArray<f64>) -> DistArray<f64> {
    assert_eq!(b.rank(), 2, "rhs must be (n, r)");
    let n = f.lu.shape()[0];
    let r = b.shape()[1];
    assert_eq!(b.shape()[0], n, "rhs row count mismatch");
    let mut x = DistArray::<f64>::zeros(ctx, &[n, r], b.layout().axes());
    // Apply the permutation to B.
    ctx.busy(|| {
        for i in 0..n {
            let src = f.perm[i];
            for j in 0..r {
                x.as_mut_slice()[i * r + j] = b.as_slice()[src * r + j];
            }
        }
    });
    // Forward then back substitution; 1 Reduction per iteration (the
    // dot-product row sweep), 2rn² FLOPs total.
    ctx.add_flops(2 * (r as u64) * (n as u64) * (n as u64));
    for _ in 0..n {
        ctx.record_comm(CommPattern::Reduction, 2, 1, r as u64, 0);
    }
    ctx.busy(|| {
        let lu = f.lu.as_slice();
        let xs = x.as_mut_slice();
        // L y = P b (unit lower).
        for i in 1..n {
            for k in 0..i {
                let l = lu[i * n + k];
                for j in 0..r {
                    xs[i * r + j] -= l * xs[k * r + j];
                }
            }
        }
        // U x = y.
        for i in (0..n).rev() {
            for k in i + 1..n {
                let u = lu[i * n + k];
                for j in 0..r {
                    xs[i * r + j] -= u * xs[k * r + j];
                }
            }
            let d = lu[i * n + i];
            for j in 0..r {
                xs[i * r + j] /= d;
            }
        }
    });
    x
}

/// Blocked (CMSSL-style) factorization: panels of `nb` columns are
/// factored unblocked, then the trailing matrix is updated with a
/// triangular solve and a rank-`nb` GEMM — the restructuring CMSSL used
/// to keep the vector units busy. Identical pivoting sequence and
/// (up to rounding) identical factors to [`lu_factor`].
pub fn lu_factor_blocked(ctx: &Ctx, a: &DistArray<f64>, nb: usize) -> LuFactors {
    try_lu_factor_blocked(ctx, a, nb).unwrap_or_else(|e| panic!("{e}"))
}

/// [`lu_factor_blocked`] with recoverable [`DpfError`]s, as in
/// [`try_lu_factor`]; a zero block size is [`DpfError::Shape`].
pub fn try_lu_factor_blocked(
    ctx: &Ctx,
    a: &DistArray<f64>,
    nb: usize,
) -> Result<LuFactors, DpfError> {
    let n = check_square(a)?;
    if nb == 0 {
        return Err(DpfError::Shape {
            what: "lu block size must be at least 1",
        });
    }
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut k0 = 0;
    while k0 < n {
        let kend = (k0 + nb).min(n);
        // --- Panel factorization (columns k0..kend, rows k0..n). -------
        for k in k0..kend {
            ctx.record_comm(CommPattern::Reduction, 2, 0, (n - k) as u64, 0);
            let (p, piv) = ctx.busy(|| {
                let s = lu.as_slice();
                let mut best = k;
                let mut bm = s[k * n + k].abs();
                for i in k + 1..n {
                    let m = s[i * n + k].abs();
                    if m > bm {
                        bm = m;
                        best = i;
                    }
                }
                (best, s[best * n + k])
            });
            if piv.abs() <= 1e-300 {
                return Err(DpfError::SingularMatrix { step: k });
            }
            if p != k {
                ctx.busy(|| {
                    let s = lu.as_mut_slice();
                    for j in 0..n {
                        s.swap(k * n + j, p * n + j);
                    }
                });
                perm.swap(k, p);
            }
            // Multipliers + panel-local update.
            let trailing_panel = (kend - k - 1) as u64;
            ctx.add_flops(
                (n - k - 1) as u64 * flops::DIV + 2 * (n - k - 1) as u64 * trailing_panel,
            );
            ctx.busy(|| {
                let s = lu.as_mut_slice();
                for i in k + 1..n {
                    let f = s[i * n + k] / piv;
                    s[i * n + k] = f;
                    for j in k + 1..kend {
                        s[i * n + j] -= f * s[k * n + j];
                    }
                }
            });
        }
        if kend < n {
            let nbk = kend - k0;
            let rest = n - kend;
            // --- U12 = L11⁻¹ A12 (triangular solve) + broadcast. -------
            ctx.record_comm(CommPattern::Broadcast, 2, 2, (nbk * rest) as u64, 0);
            ctx.add_flops((nbk * (nbk - 1) * rest) as u64);
            ctx.busy(|| {
                let s = lu.as_mut_slice();
                for j in kend..n {
                    for i in k0 + 1..kend {
                        let mut acc = s[i * n + j];
                        for k in k0..i {
                            acc -= s[i * n + k] * s[k * n + j];
                        }
                        s[i * n + j] = acc;
                    }
                }
            });
            // --- Trailing GEMM: A22 -= L21 · U12. ----------------------
            ctx.record_comm(CommPattern::Broadcast, 2, 2, (rest * rest) as u64, 0);
            ctx.add_flops(2 * (rest as u64) * (rest as u64) * nbk as u64);
            ctx.busy(|| {
                let s = lu.as_mut_slice();
                for i in kend..n {
                    for j in kend..n {
                        let mut acc = s[i * n + j];
                        for k in k0..kend {
                            acc -= s[i * n + k] * s[k * n + j];
                        }
                        s[i * n + j] = acc;
                    }
                }
            });
        }
        k0 = kend;
    }
    Ok(LuFactors { lu, perm })
}

/// Diagonally-dominant random workload: `A` (n×n) and `B` (n×r).
pub fn workload(ctx: &Ctx, n: usize, r: usize) -> (DistArray<f64>, DistArray<f64>) {
    let a = DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, PAR], |idx| {
        let v = pseudo(idx[0] * 131 + idx[1]);
        if idx[0] == idx[1] {
            v + n as f64
        } else {
            v
        }
    })
    .declare(ctx);
    let b = DistArray::<f64>::from_fn(ctx, &[n, r], &[PAR, PAR], |idx| {
        pseudo(idx[0] * 17 + idx[1] * 29 + 5)
    })
    .declare(ctx);
    (a, b)
}

fn pseudo(seed: usize) -> f64 {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    (h as f64 / usize::MAX as f64) * 2.0 - 1.0
}

/// Verify `A X = B` column-wise against the serial reference.
pub fn verify(a: &DistArray<f64>, b: &DistArray<f64>, x: &DistArray<f64>, tol: f64) -> Verify {
    let n = a.shape()[0];
    let r = b.shape()[1];
    let mut worst = 0.0f64;
    for j in 0..r {
        let bj: Vec<f64> = (0..n).map(|i| b.as_slice()[i * r + j]).collect();
        let xj: Vec<f64> = (0..n).map(|i| x.as_slice()[i * r + j]).collect();
        worst = dpf_core::nan_max(
            worst,
            crate::reference::residual_dense(a.as_slice(), &xj, &bj, n, n),
        );
    }
    Verify::check("lu residual", worst, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::Machine;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    #[test]
    fn factor_solve_recovers_solution() {
        let ctx = ctx(4);
        let (a, b) = workload(&ctx, 12, 3);
        let f = lu_factor(&ctx, &a);
        let x = lu_solve(&ctx, &f, &b);
        assert!(verify(&a, &b, &x, 1e-9).is_pass());
    }

    #[test]
    fn factor_reconstructs_a() {
        let ctx = ctx(2);
        let (a, _) = workload(&ctx, 8, 1);
        let f = lu_factor(&ctx, &a);
        let n = 8;
        // P A = L U.
        let lu = f.lu.as_slice();
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    let l = if k < i {
                        lu[i * n + k]
                    } else if k == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= j { lu[k * n + j] } else { 0.0 };
                    s += l * u;
                }
                let want = a.as_slice()[f.perm[i] * n + j];
                assert!(
                    (s - want).abs() < 1e-9,
                    "PA != LU at ({i},{j}): {s} vs {want}"
                );
            }
        }
    }

    #[test]
    fn flops_match_two_thirds_n_cubed() {
        let ctx = ctx(1);
        let n = 32u64;
        let (a, _) = workload(&ctx, n as usize, 1);
        let flops0 = ctx.instr.flops();
        let _ = lu_factor(&ctx, &a);
        let measured = ctx.instr.flops() - flops0;
        // Sum over k of [4(n-k-1) + 2(n-k-1)^2] = 2/3 n^3 + lower order.
        let expect: u64 = (0..n)
            .map(|k| 4 * (n - k - 1) + 2 * (n - k - 1).pow(2))
            .sum();
        assert_eq!(measured, expect);
        let lead = 2.0 * (n as f64).powi(3) / 3.0;
        assert!((measured as f64 - lead).abs() / lead < 0.2);
    }

    #[test]
    fn solve_flops_are_2rn_squared() {
        let ctx = ctx(1);
        let (a, b) = workload(&ctx, 16, 4);
        let f = lu_factor(&ctx, &a);
        let flops0 = ctx.instr.flops();
        let _ = lu_solve(&ctx, &f, &b);
        assert_eq!(ctx.instr.flops() - flops0, 2 * 4 * 16 * 16);
    }

    #[test]
    fn comm_pattern_is_reduction_plus_broadcast() {
        let ctx = ctx(4);
        let (a, b) = workload(&ctx, 8, 1);
        let f = lu_factor(&ctx, &a);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 8);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 8);
        let _ = lu_solve(&ctx, &f, &b);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 16);
    }

    #[test]
    fn blocked_matches_unblocked_factors() {
        let n = 24;
        for nb in [1usize, 3, 8, 24, 40] {
            let ctx_u = Ctx::new(Machine::cm5(4));
            let (a, b) = workload(&ctx_u, n, 2);
            let fu = lu_factor(&ctx_u, &a);
            let ctx_b = Ctx::new(Machine::cm5(4));
            let fb = lu_factor_blocked(&ctx_b, &a, nb);
            assert_eq!(fu.perm, fb.perm, "pivot sequences differ (nb={nb})");
            for (p, q) in fu.lu.as_slice().iter().zip(fb.lu.as_slice()) {
                assert!((p - q).abs() < 1e-11, "nb={nb}: {p} vs {q}");
            }
            // And it solves.
            let x = lu_solve(&ctx_b, &fb, &b);
            assert!(verify(&a, &b, &x, 1e-9).is_pass(), "nb={nb}");
        }
    }

    #[test]
    fn blocked_charges_same_leading_order_flops() {
        let n = 48u64;
        let ctx_u = Ctx::new(Machine::cm5(1));
        let (a, _) = workload(&ctx_u, n as usize, 1);
        let f0 = ctx_u.instr.flops();
        let _ = lu_factor(&ctx_u, &a);
        let unblocked = ctx_u.instr.flops() - f0;
        let ctx_b = Ctx::new(Machine::cm5(1));
        let _ = lu_factor_blocked(&ctx_b, &a, 8);
        let blocked = ctx_b.instr.flops();
        let (u, b) = (unblocked as f64, blocked as f64);
        assert!((u - b).abs() / u < 0.1, "unblocked {u} vs blocked {b}");
    }

    #[test]
    fn identity_factors_trivially() {
        let ctx = ctx(1);
        let n = 5;
        let a = DistArray::<f64>::from_fn(&ctx, &[n, n], &[PAR, PAR], |i| {
            if i[0] == i[1] {
                1.0
            } else {
                0.0
            }
        });
        let f = lu_factor(&ctx, &a);
        let b = DistArray::<f64>::from_fn(&ctx, &[n, 1], &[PAR, PAR], |i| i[0] as f64);
        let x = lu_solve(&ctx, &f, &b);
        for i in 0..n {
            assert!((x.as_slice()[i] - i as f64).abs() < 1e-12);
        }
    }
}
