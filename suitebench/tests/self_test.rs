//! Self-tests of the benchmark: the metric catalogue obeys the naming
//! and size limits, matches `BENCHMARK.json`, and every workload runs a
//! pass with no failed row and reports every catalogued metric.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dpf_suite::Json;
use suitebench::catalogue::{per_layer, BENCH_MOVES, END_TO_END, LAYERS};
use suitebench::workload::Workload;
use suitebench::{bench_dir, run_traced, run_untraced, Options};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A short run: one set-up, one timed pass, output in the test's own
/// scratch directory.
fn quick(workload: Workload) -> Options {
    Options {
        seconds: 0.01,
        min_passes: 1,
        setup_reps: 1,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("suitebench-selftest"),
        ..Options::new(workload, 3, 0.01)
    }
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    for m in END_TO_END {
        assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
    for (name, unit, better) in per_layer() {
        assert!(valid_unit(unit), "{name}: bad unit {unit:?}");
        assert!(matches!(better, "lower" | "higher"), "{name}: {better}");
        names.push(name);
    }
    for name in &names {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
}

#[test]
fn catalogue_fits_the_metric_limits() {
    assert!(END_TO_END.len() <= 16);
    assert!(
        per_layer().len() <= 128,
        "{} per-layer metrics",
        per_layer().len()
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
}

#[test]
fn layer_map_names_real_metrics_and_workloads() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let moves = LAYERS.iter().flat_map(|l| l.moves).chain(BENCH_MOVES);
    for (metric, workload) in moves {
        assert!(
            END_TO_END.iter().any(|m| m.name == *metric),
            "map names unknown end-to-end metric {metric}"
        );
        assert!(
            workloads.contains(workload),
            "map names unknown workload {workload}"
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| json.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let field = |v: &Json, k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(layers, want);

    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);
}

#[test]
fn every_workload_completes_a_pass_without_failures() {
    for w in Workload::ALL {
        let out = run_untraced(&quick(w)).expect("untraced run");
        assert!(out.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(
            out.failed_frac(),
            0.0,
            "{}: {} failed rows",
            w.name(),
            out.failed
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", w.name());
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_the_acceptance_counts() {
    let mut values: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    for w in Workload::ALL {
        let out = run_traced(&quick(w)).expect("traced run");
        assert_eq!(out.failed, 0, "{}: {} failed rows", w.name(), out.failed);
        let got: BTreeMap<String, f64> =
            out.metrics.into_iter().map(|m| (m.name, m.value)).collect();
        for (name, _, _) in per_layer() {
            assert!(got.contains_key(&name), "{}: no {name}", w.name());
        }
        values.insert(w.name(), got);
    }
    let v = |w: &str, m: &str| values[w][m];
    assert_eq!(v("suite-A-virtual", "spmd.collectives"), 0.0);
    assert_eq!(v("suite-S-virtual", "spmd.collectives"), 0.0);
    assert!(v("suite-S-spmd4", "spmd.collectives") > 0.0);
    assert_eq!(
        v("suite-S-virtual", "runner.flops"),
        v("suite-S-spmd4", "runner.flops")
    );
}
