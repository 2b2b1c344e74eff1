//! The table generators must regenerate every table of the paper with
//! the expected structure and content.

use dpf::core::Machine;
use dpf::suite::tables;
use dpf::suite::{ProblemClass, Size};

const CLASS_S: Size = Size::Class(ProblemClass::S);

#[test]
fn table1_reproduces_the_version_matrix() {
    let t = tables::table1();
    // All 32 rows, every one marked basic.
    let rows: Vec<&str> = t.lines().skip(2).collect();
    assert_eq!(rows.len(), 32);
    for row in rows {
        assert!(row.contains('x'), "row missing basic mark: {row}");
    }
    // Spot-check the reconstruction (count mark columns, not the name).
    let marks = |l: &str| l.split_whitespace().skip(1).filter(|w| *w == "x").count();
    assert!(t
        .lines()
        .any(|l| l.starts_with("matrix-vector") && marks(l) == 4));
    assert!(t
        .lines()
        .any(|l| l.starts_with("qcd-kernel") && marks(l) == 2));
}

#[test]
fn table2_and_5_show_serial_and_parallel_axes() {
    let t2 = tables::table2();
    assert!(t2.contains("pcr"));
    assert!(t2.contains(":serial"));
    let t5 = tables::table5();
    assert!(t5.contains("boson"));
    assert!(t5.contains("X(:serial,:,:)"));
    // All 8 linalg + 20 app rows.
    assert_eq!(t2.lines().count(), 2 + 8);
    assert_eq!(t5.lines().count(), 2 + 20);
}

#[test]
fn table3_and_7_classify_measured_patterns() {
    let m = Machine::cm5(8);
    let t3 = tables::table3(&m);
    assert!(t3.contains("Reduction"));
    assert!(t3.contains("lu"));
    assert!(t3.contains("AAPC"));
    let t7 = tables::table7(&m);
    assert!(t7.contains("Stencil"));
    assert!(t7.contains("diff-3D"));
    assert!(t7.contains("Sort"));
    assert!(t7.contains("qptransport"));
    assert!(t7.contains("AABC"));
    assert!(t7.contains("Butterfly"));
}

#[test]
fn table4_and_6_report_measured_against_paper_formulas() {
    let m = Machine::cm5(8);
    let t4 = tables::table4(&m, CLASS_S);
    assert!(t4.contains("matrix-vector"));
    assert!(t4.contains("2nmi"), "paper formula column missing");
    assert!(t4.contains("direct"));
    let t6 = tables::table6(&m, CLASS_S);
    assert!(t6.contains("qcd-kernel"));
    assert!(t6.contains("606"));
    assert!(t6.contains("strided"));
    assert!(t6.contains("indirect"));
}

#[test]
fn table8_reproduces_technique_rows() {
    let t = tables::table8();
    for needle in [
        "chained CSHIFT",
        "Array sections",
        "CMSSL partitioned gather utility",
        "FORALL w/ SUM",
        "SPREAD",
        "CMF send overwrite",
    ] {
        assert!(t.contains(needle), "missing technique: {needle}");
    }
}

#[test]
fn perf_report_covers_the_whole_suite_and_passes() {
    let m = Machine::cm5(8);
    let report = tables::perf_report(&m, CLASS_S);
    assert_eq!(report.lines().count(), 2 + 32);
    assert!(!report.contains("FAIL"), "{report}");
}

#[test]
fn matvec_layout_table_shows_layout_effect() {
    let m = Machine::cm5(16);
    let t = tables::matvec_layouts_table(&m);
    assert_eq!(t.lines().count(), 2 + 4);
    // Layout (3) keeps the broadcast within-processor: zero off-proc.
    let row3 = t.lines().find(|l| l.contains("(3)")).unwrap();
    assert!(row3.trim_end().ends_with(" 0"), "{row3}");
}

#[test]
fn scalability_table_models_all_benchmarks() {
    let t = tables::scalability_table(CLASS_S);
    assert_eq!(t.lines().count(), 2 + 32);
    assert!(t.contains("P=512"));
    // The embarrassingly parallel codes must scale best-in-class.
    let fermion = t.lines().find(|l| l.starts_with("fermion")).unwrap();
    let speedup: f64 = fermion
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('x')
        .parse()
        .unwrap();
    assert!(speedup > 10.0, "fermion modeled speedup only {speedup}");
}

#[test]
fn efficiency_table_reports_percentages() {
    let m = Machine::cm5(8);
    let t = tables::efficiency_table(&m, CLASS_S);
    assert_eq!(t.lines().count(), 2 + 8);
    assert!(t.contains("conj-grad"));
}
