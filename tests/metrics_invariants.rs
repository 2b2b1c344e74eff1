//! Cross-crate invariants of the §1.5 metric machinery, checked through
//! full benchmark runs.

use dpf::core::{cost::CostModel, Machine};
use dpf::suite::{registry, run_basic, ProblemClass, Size};

const CLASS_S: Size = Size::Class(ProblemClass::S);
const CLASS_A: Size = Size::Class(ProblemClass::A);

#[test]
fn busy_never_exceeds_elapsed() {
    let machine = Machine::cm5(8);
    for entry in registry() {
        let res = run_basic(&entry, &machine, CLASS_S);
        assert!(
            res.report.perf.busy <= res.report.perf.elapsed,
            "{}: busy {:?} > elapsed {:?}",
            entry.name,
            res.report.perf.busy,
            res.report.perf.elapsed
        );
    }
}

#[test]
fn memory_usage_is_declared_for_every_benchmark() {
    let machine = Machine::cm5(8);
    for entry in registry() {
        let res = run_basic(&entry, &machine, CLASS_S);
        assert!(
            res.report.memory_bytes > 0,
            "{} declared no memory",
            entry.name
        );
    }
}

#[test]
fn full_registry_sweep_upholds_metric_invariants() {
    // Every benchmark, both backends: wherever the paper tabulates
    // floating-point work the run must charge FLOPs (only the three pure
    // data-motion functions are exempt), the declared memory accounting
    // must be present, and busy time can never exceed elapsed time.
    use dpf::core::Backend;
    use dpf::suite::{run_on, Version};
    let machine = Machine::cm5(8);
    for backend in [Backend::Virtual, Backend::Spmd] {
        for entry in registry() {
            let res = run_on(&entry, Version::Basic, &machine, CLASS_S, backend);
            assert!(
                res.report.verify.is_pass(),
                "{} failed verification under {backend}",
                entry.name
            );
            // The pure data-motion functions are exempt (scatter still
            // charges its one combining pass, so no zero assertion here).
            let pure_data_motion = entry.flops_formula.starts_with('0');
            if !pure_data_motion {
                assert!(
                    res.report.perf.flops > 0,
                    "{}: paper tabulates work but no FLOPs charged under {backend}",
                    entry.name
                );
            }
            assert!(
                res.report.memory_bytes > 0,
                "{}: no memory declared under {backend}",
                entry.name
            );
            assert!(
                res.report.perf.busy <= res.report.perf.elapsed,
                "{}: busy {:?} > elapsed {:?} under {backend}",
                entry.name,
                res.report.perf.busy,
                res.report.perf.elapsed
            );
        }
    }
}

#[test]
fn offproc_volume_grows_with_machine_size_for_transpose() {
    // The AAPC moves (P−1)/P of the matrix: more processors, more volume.
    let entry = dpf::suite::find("transpose").unwrap();
    let v2 = run_basic(&entry, &Machine::cm5(2), CLASS_S)
        .report
        .offproc_bytes();
    let v16 = run_basic(&entry, &Machine::cm5(16), CLASS_S)
        .report
        .offproc_bytes();
    assert!(v16 > v2, "AAPC volume did not grow: {v2} -> {v16}");
}

#[test]
fn modeled_cm5_time_scales_down_with_processors() {
    // The analytic cost model: compute-bound kernels should speed up with
    // machine size.
    let entry = dpf::suite::find("matrix-vector").unwrap();
    let cost = CostModel::cm5();
    let m4 = Machine::cm5(4);
    let m64 = Machine::cm5(64);
    let r4 = run_basic(&entry, &m4, CLASS_A);
    let r64 = run_basic(&entry, &m64, CLASS_A);
    let t4 = cost.total_time(&m4, r4.report.perf.flops, &r4.report.comm);
    let t64 = cost.total_time(&m64, r64.report.perf.flops, &r64.report.comm);
    assert!(
        t64 < t4,
        "modeled time did not improve: {t4:?} (P=4) vs {t64:?} (P=64)"
    );
}

#[test]
fn reduction_flop_convention_holds_through_the_harness() {
    // The reduction benchmark charges exactly (n−1) + side(side−1) FLOPs.
    let entry = dpf::suite::find("reduction").unwrap();
    let res = run_basic(&entry, &Machine::cm5(8), CLASS_S);
    let n = 1u64 << 10;
    let side = 32u64;
    assert_eq!(res.report.perf.flops, (n - 1) + side * (side - 1));
}

#[test]
fn pure_data_motion_benchmarks_report_near_zero_flops() {
    // Paper §2: the communication functions except reduction perform no
    // floating-point operations (our scatter adds one combining pass).
    for name in ["gather", "transpose"] {
        let entry = dpf::suite::find(name).unwrap();
        let res = run_basic(&entry, &Machine::cm5(8), CLASS_S);
        assert_eq!(res.report.perf.flops, 0, "{name} charged FLOPs");
    }
}
