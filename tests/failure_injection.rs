//! Failure injection: the substrate and kernels must fail loudly on
//! invalid inputs, not corrupt results.

use dpf::array::{DistArray, PAR};
use dpf::comm::*;
use dpf::core::{Backend, CommPattern, Ctx, DpfError, Machine, C64};
use dpf::fft::*;
use dpf::linalg::gauss_jordan::*;
use dpf::linalg::lu::*;

fn ctx() -> Ctx {
    Ctx::new(Machine::cm5(4))
}

#[test]
#[should_panic(expected = "singular matrix")]
fn lu_rejects_singular_systems() {
    let ctx = ctx();
    // Rank-1 matrix.
    let a = DistArray::<f64>::from_fn(&ctx, &[4, 4], &[PAR, PAR], |i| {
        (i[0] + 1) as f64 * (i[1] + 1) as f64
    });
    let _ = dpf::linalg::lu::lu_factor(&ctx, &a);
}

#[test]
#[should_panic(expected = "singular matrix")]
fn gauss_jordan_rejects_singular_systems() {
    let ctx = ctx();
    let a = DistArray::<f64>::zeros(&ctx, &[3, 3], &[PAR, PAR]);
    let b = DistArray::<f64>::zeros(&ctx, &[3], &[PAR]);
    let _ = dpf::linalg::gauss_jordan::gauss_jordan_solve(&ctx, &a, &b);
}

#[test]
#[should_panic(expected = "not a power of two")]
fn fft_rejects_non_power_of_two() {
    let ctx = ctx();
    let a = DistArray::<dpf::core::C64>::zeros(&ctx, &[100], &[PAR]);
    let _ = dpf::fft::fft(&ctx, &a, dpf::fft::Direction::Forward);
}

#[test]
#[should_panic(expected = "overflowed capacity")]
fn mdcell_rejects_cell_overflow() {
    let ctx = ctx();
    // Capacity 1 with fill 3 guarantees a rebin overflow.
    let p = dpf::apps::mdcell::Params {
        nc: 2,
        cap: 1,
        fill: 3.0,
        cell: 2.0,
        dt: 1e-3,
        steps: 1,
    };
    // The workload itself caps placement at capacity, so force the
    // overflow through rebin by squeezing two particles into one cell.
    let mut c = dpf::apps::mdcell::workload(&ctx, &p);
    // Find two occupied slots and move both into cell 0.
    let occupied: Vec<usize> = {
        let occ = c.occ.as_slice();
        (0..occ.len()).filter(|&e| occ[e] == 1.0).take(2).collect()
    };
    assert!(occupied.len() == 2, "workload too sparse for the test");
    for &e in &occupied {
        for d in 0..3 {
            c.pos[d].as_mut_slice()[e] = 0.5;
        }
    }
    dpf::apps::mdcell::rebin(&ctx, &p, &mut c);
}

#[test]
#[should_panic(expected = "mask shape mismatch")]
fn where_rejects_mismatched_mask() {
    let ctx = ctx();
    let mut a = DistArray::<f64>::zeros(&ctx, &[4], &[PAR]);
    let mask = DistArray::<bool>::zeros(&ctx, &[5], &[PAR]);
    a.where_fill(&ctx, &mask, 1.0);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn scatter_rejects_out_of_range_indices() {
    let ctx = ctx();
    let mut dst = DistArray::<f64>::zeros(&ctx, &[4], &[PAR]);
    let idx = DistArray::<i32>::from_vec(&ctx, &[1], &[PAR], vec![9]);
    let src = DistArray::<f64>::zeros(&ctx, &[1], &[PAR]);
    dpf::comm::scatter(&ctx, &mut dst, &idx, &src);
}

#[test]
#[should_panic(expected = "m >= n")]
fn qr_rejects_underdetermined_shapes() {
    let ctx = ctx();
    let a = DistArray::<f64>::zeros(&ctx, &[3, 5], &[PAR, PAR]);
    let _ = dpf::linalg::qr::qr_factor(&ctx, &a);
}

#[test]
#[should_panic(expected = "zero extent")]
fn arrays_reject_zero_extents() {
    let ctx = ctx();
    let _ = DistArray::<f64>::zeros(&ctx, &[4, 0], &[PAR, PAR]);
}

// ------------------------------------------------- one error path per primitive
//
// Every `try_*` form is the one implementation of its primitive, so the
// case table below drives each of them with bad input on both backends
// and demands: the typed error with the exact expected text; for a
// precondition failure (shape, index, power of two), a destination left
// bit-identical and nothing recorded in `ctx.instr` (no comm records, no
// FLOPs); with several bad indices, the first one in flat order; and,
// where a panicking name survives, a panic with the same text. Singular
// matrices are found mid-elimination, so the earlier steps' charges
// stand; only their text and panic parity are checked.

/// What one bad call left behind.
struct Seen {
    err: DpfError,
    /// The destination's bits before and after the call (empty for
    /// primitives that return a fresh array).
    before: Vec<u64>,
    after: Vec<u64>,
}

/// One bad call of a fallible primitive. `run(ctx, false)` calls the
/// `try_*` form; `run(ctx, true)` calls the surviving panicking name on
/// the same input, for cases marked `wrapped`.
struct Case {
    error: &'static str,
    /// A precondition failure: nothing may be written or recorded.
    precondition: bool,
    wrapped: bool,
    run: fn(&Ctx, bool) -> Seen,
}

impl Case {
    const fn new(error: &'static str, run: fn(&Ctx, bool) -> Seen) -> Self {
        Case {
            error,
            precondition: true,
            wrapped: false,
            run,
        }
    }

    const fn wrapped(self) -> Self {
        Case {
            wrapped: true,
            ..self
        }
    }

    const fn mid_run(self) -> Self {
        Case {
            precondition: false,
            ..self
        }
    }
}

fn ints(ctx: &Ctx, v: &[i32]) -> DistArray<i32> {
    DistArray::<i32>::from_vec(ctx, &[v.len()], &[PAR], v.to_vec())
}

fn reals(ctx: &Ctx, shape: &[usize]) -> DistArray<f64> {
    DistArray::<f64>::from_fn(ctx, shape, &vec![PAR; shape.len()], |i| {
        1.0 + i.iter().sum::<usize>() as f64 * 0.5
    })
}

fn zs(ctx: &Ctx, shape: &[usize]) -> DistArray<C64> {
    DistArray::<C64>::zeros(ctx, shape, &vec![PAR; shape.len()])
}

/// The rank-1 (singular) 4×4 matrix `(i + 1)(j + 1)`.
fn singular(ctx: &Ctx) -> DistArray<f64> {
    DistArray::<f64>::from_fn(ctx, &[4, 4], &[PAR, PAR], |i| {
        (i[0] + 1) as f64 * (i[1] + 1) as f64
    })
}

fn bits(a: &DistArray<f64>) -> Vec<u64> {
    a.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The panicking name (`wrap`) or the `try_*` form on the same input.
fn pick<T>(
    wrap: bool,
    panicking: impl FnOnce() -> T,
    fallible: impl FnOnce() -> Result<T, DpfError>,
) -> Result<T, DpfError> {
    if wrap {
        Ok(panicking())
    } else {
        fallible()
    }
}

/// A call returning a fresh array (or nothing the caller owns).
fn fresh<T>(r: Result<T, DpfError>) -> Seen {
    Seen {
        err: r.err().expect("bad input must be an error"),
        before: Vec::new(),
        after: Vec::new(),
    }
}

/// A call into a destination of `shape`, snapshotted around the call.
fn into_dst(
    ctx: &Ctx,
    shape: &[usize],
    call: impl FnOnce(&mut DistArray<f64>) -> Result<(), DpfError>,
) -> Seen {
    let mut dst = reals(ctx, shape);
    let before = bits(&dst);
    let err = call(&mut dst).expect_err("bad input must be an error");
    let after = bits(&dst);
    Seen { err, before, after }
}

const BIG: usize = 20_000;

/// `BIG` in-range indices with bad ones planted at 3/4 and 7/8 of the
/// way, so the parallel sweep (above `PAR_THRESHOLD`) must keep chunk
/// order.
fn two_late_bad(ctx: &Ctx) -> DistArray<i32> {
    let mut v: Vec<i32> = (0..BIG as i32).collect();
    v[3 * BIG / 4] = BIG as i32 + 5;
    v[7 * BIG / 8] = -1;
    ints(ctx, &v)
}

/// The case table, grouped by `try_*` form.
const CASES: &[(&str, &[Case])] = &[
    (
        "try_gather",
        &[
            Case::new("gather index -3 out of bounds 4", |c, wrap| {
                let (s, i) = (reals(c, &[4]), ints(c, &[0, -3]));
                fresh(pick(wrap, || gather(c, &s, &i), || try_gather(c, &s, &i)))
            })
            .wrapped(),
            Case::new("gather index 7 out of bounds 4", |c, _| {
                fresh(try_gather(c, &reals(c, &[4]), &ints(c, &[1, 7, -2, 9])))
            }),
            Case::new("gather index 20005 out of bounds 20000", |c, _| {
                fresh(try_gather(c, &reals(c, &[BIG]), &two_late_bad(c)))
            }),
            Case::new("gather source must be 1-D (use try_gather_nd)", |c, _| {
                fresh(try_gather(c, &reals(c, &[2, 2]), &ints(c, &[0])))
            }),
        ],
    ),
    (
        "try_gather_nd",
        &[
            // Element 0's second coordinate is bad before element 1's first.
            Case::new("gather_nd index 4 out of extent 3", |c, _| {
                let (r, k) = (ints(c, &[0, 5, 1]), ints(c, &[4, 0, 9]));
                fresh(try_gather_nd(c, &reals(c, &[3, 3]), &[&r, &k]))
            }),
            Case::new("need one coordinate array per source axis", |c, _| {
                fresh(try_gather_nd(c, &reals(c, &[3, 3]), &[&ints(c, &[0])]))
            }),
            Case::new("coordinate arrays must agree in shape", |c, _| {
                let (r, k) = (ints(c, &[0, 1]), ints(c, &[0]));
                fresh(try_gather_nd(c, &reals(c, &[3, 3]), &[&r, &k]))
            }),
        ],
    ),
    (
        "try_scatter",
        &[
            Case::new("scatter index -1 out of bounds 4", |c, wrap| {
                let (i, v) = (ints(c, &[1, -1, 8]), reals(c, &[3]));
                into_dst(c, &[4], |d| match wrap {
                    true => {
                        scatter(c, d, &i, &v);
                        Ok(())
                    }
                    false => try_scatter(c, d, &i, &v),
                })
            })
            .wrapped(),
            Case::new("scatter index 20005 out of bounds 20000", |c, _| {
                let (i, v) = (two_late_bad(c), reals(c, &[BIG]));
                into_dst(c, &[BIG], |d| try_scatter(c, d, &i, &v))
            }),
            Case::new(
                "scatter destination must be 1-D (use try_scatter_nd_combine)",
                |c, _| {
                    into_dst(c, &[2, 2], |d| {
                        try_scatter(c, d, &ints(c, &[0]), &reals(c, &[1]))
                    })
                },
            ),
            Case::new("index and source shapes must agree", |c, _| {
                let (i, v) = (ints(c, &[0, 1, 2]), reals(c, &[2]));
                into_dst(c, &[4], |d| try_scatter(c, d, &i, &v))
            }),
        ],
    ),
    (
        "try_scatter_combine",
        &[
            Case::new("scatter index 4 out of bounds 4", |c, wrap| {
                let (i, v, add) = (ints(c, &[0, 4, 5]), reals(c, &[3]), Combine::Add);
                into_dst(c, &[4], |d| match wrap {
                    true => {
                        scatter_combine(c, d, &i, &v, add);
                        Ok(())
                    }
                    false => try_scatter_combine(c, d, &i, &v, add),
                })
            })
            .wrapped(),
            Case::new("index and source shapes must agree", |c, _| {
                let (i, v) = (ints(c, &[0]), reals(c, &[2]));
                into_dst(c, &[4], |d| try_scatter_combine(c, d, &i, &v, Combine::Max))
            }),
        ],
    ),
    (
        "try_scatter_nd_combine",
        &[
            Case::new("scatter_nd index 7 out of extent 2", |c, _| {
                let (r, k, v) = (ints(c, &[1, 7, 9]), ints(c, &[0, 1, 0]), reals(c, &[3]));
                into_dst(c, &[2, 2], |d| {
                    try_scatter_nd_combine(c, d, &[&r, &k], &v, Combine::Add)
                })
            }),
            Case::new("need one coordinate array per dest axis", |c, _| {
                let (r, v) = (ints(c, &[0]), reals(c, &[1]));
                into_dst(c, &[2, 2], |d| {
                    try_scatter_nd_combine(c, d, &[&r], &v, Combine::Min)
                })
            }),
            Case::new("coordinate arrays must match source shape", |c, _| {
                let (r, k, v) = (ints(c, &[0, 1]), ints(c, &[0]), reals(c, &[2]));
                into_dst(c, &[2, 2], |d| {
                    try_scatter_nd_combine(c, d, &[&r, &k], &v, Combine::Add)
                })
            }),
        ],
    ),
    (
        "try_transpose",
        &[Case::new(
            "transpose expects a 2-D array (use transpose_axes)",
            |c, wrap| {
                let a = reals(c, &[2, 2, 2]);
                fresh(pick(wrap, || transpose(c, &a), || try_transpose(c, &a)))
            },
        )
        .wrapped()],
    ),
    (
        "try_fft",
        &[
            Case::new("FFT extent 100 is not a power of two", |c, wrap| {
                let (a, f) = (zs(c, &[100]), Direction::Forward);
                fresh(pick(wrap, || fft(c, &a, f), || try_fft(c, &a, f)))
            })
            .wrapped(),
            Case::new("fft expects a 1-D array (use fft_axis)", |c, wrap| {
                let (a, f) = (zs(c, &[4, 4]), Direction::Forward);
                fresh(pick(wrap, || fft(c, &a, f), || try_fft(c, &a, f)))
            })
            .wrapped(),
        ],
    ),
    (
        "try_fft_axis",
        &[
            Case::new("FFT extent 6 is not a power of two", |c, wrap| {
                let (a, f) = (zs(c, &[4, 6]), Direction::Inverse);
                fresh(pick(
                    wrap,
                    || fft_axis(c, &a, 1, f),
                    || try_fft_axis(c, &a, 1, f),
                ))
            })
            .wrapped(),
            Case::new("fft axis out of range", |c, _| {
                fresh(try_fft_axis(c, &zs(c, &[4, 4]), 2, Direction::Forward))
            }),
        ],
    ),
    (
        "try_fft_axis_as",
        &[Case::new("FFT extent 12 is not a power of two", |c, wrap| {
            let (a, f, p) = (zs(c, &[12, 4]), Direction::Forward, CommPattern::Butterfly);
            fresh(pick(
                wrap,
                || fft_axis_as(c, &a, 0, f, p),
                || try_fft_axis_as(c, &a, 0, f, p),
            ))
        })
        .wrapped()],
    ),
    (
        "try_fft_row",
        &[Case::new("FFT length 3 is not a power of two", |_, wrap| {
            let mut row = [C64::one(), C64::zero(), C64::one()];
            let bits = |r: &[C64]| {
                r.iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect()
            };
            let before = bits(&row);
            let err = match wrap {
                true => {
                    fft_row(&mut row, Direction::Forward);
                    Ok(())
                }
                false => try_fft_row(&mut row, Direction::Forward),
            };
            let after = bits(&row);
            Seen {
                err: err.unwrap_err(),
                before,
                after,
            }
        })
        .wrapped()],
    ),
    (
        "try_lu_factor",
        &[
            Case::new("singular matrix at step 1", |c, wrap| {
                let a = singular(c);
                fresh(pick(wrap, || lu_factor(c, &a), || try_lu_factor(c, &a)))
            })
            .wrapped()
            .mid_run(),
            Case::new("lu expects a square 2-D matrix", |c, _| {
                fresh(try_lu_factor(c, &reals(c, &[3, 4])))
            }),
        ],
    ),
    (
        "try_lu_factor_blocked",
        &[
            Case::new("singular matrix at step 1", |c, wrap| {
                let a = singular(c);
                let blocked = || lu_factor_blocked(c, &a, 2);
                fresh(pick(wrap, blocked, || try_lu_factor_blocked(c, &a, 2)))
            })
            .wrapped()
            .mid_run(),
            Case::new("lu block size must be at least 1", |c, _| {
                fresh(try_lu_factor_blocked(c, &singular(c), 0))
            }),
        ],
    ),
    (
        "try_gauss_jordan_solve",
        &[
            Case::new("singular matrix at step 0", |c, wrap| {
                let (a, b) = (
                    DistArray::<f64>::zeros(c, &[3, 3], &[PAR, PAR]),
                    reals(c, &[3]),
                );
                let solve = || gauss_jordan_solve(c, &a, &b);
                fresh(pick(wrap, solve, || try_gauss_jordan_solve(c, &a, &b)))
            })
            .wrapped()
            .mid_run(),
            Case::new("rhs must be length n", |c, _| {
                fresh(try_gauss_jordan_solve(
                    c,
                    &reals(c, &[3, 3]),
                    &reals(c, &[4]),
                ))
            }),
        ],
    ),
];

/// Run `f`, catch its panic and return the payload as a string.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("closure was expected to panic");
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        panic!("non-string panic payload");
    }
}

/// Run every table case of `prim` on both backends.
fn check_try_form(prim: &str) {
    let (_, cases) = CASES.iter().find(|(p, _)| *p == prim).expect("table row");
    for case in *cases {
        for backend in [Backend::Virtual, Backend::Spmd] {
            let at = format!("{prim} ({:?}) on {backend}", case.error);
            let ctx = Ctx::with_backend(Machine::cm5(4), backend);
            let seen = (case.run)(&ctx, false);
            assert_eq!(seen.err.to_string(), case.error, "{at}");
            assert!(seen.before == seen.after, "{at}: destination changed");
            if case.precondition {
                assert!(ctx.instr.comm_snapshot().is_empty(), "{at}: comm recorded");
                assert_eq!(ctx.instr.flops(), 0, "{at}: FLOPs charged");
            }
            if case.wrapped {
                let ctx = Ctx::with_backend(Machine::cm5(4), backend);
                let msg = panic_message(|| {
                    (case.run)(&ctx, true);
                });
                assert_eq!(msg, case.error, "{at}: panicking name");
            }
        }
    }
}

/// One test per `try_*` form, so a failure names its primitive.
macro_rules! try_form_tests {
    ($($test:ident => $prim:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check_try_form($prim);
            }
        )*
    };
}

try_form_tests! {
    try_gather_error_matches_panic_message => "try_gather",
    try_gather_nd_fails_typed => "try_gather_nd",
    try_scatter_error_matches_panic_message => "try_scatter",
    try_scatter_combine_fails_typed => "try_scatter_combine",
    try_scatter_nd_combine_fails_typed => "try_scatter_nd_combine",
    try_transpose_rejects_wrong_rank => "try_transpose",
    try_fft_error_matches_panic_message => "try_fft",
    try_fft_axis_fails_typed => "try_fft_axis",
    try_fft_axis_as_fails_typed => "try_fft_axis_as",
    try_fft_row_fails_typed => "try_fft_row",
    try_lu_factor_error_matches_panic_message => "try_lu_factor",
    try_lu_factor_blocked_fails_typed => "try_lu_factor_blocked",
    try_gauss_jordan_error_matches_panic_message => "try_gauss_jordan_solve",
}
