//! Golden-file tests for the lint engine.
//!
//! Every `tests/fixtures/<name>.rs` is a known-bad (or deliberately
//! suppressed) source snippet; `tests/fixtures/<name>.expected` holds
//! the exact `render_text` output the engine must produce for it. A
//! fixture's first line may carry a `// lint-path: <repo-relative
//! path>` directive so path-scoped rules (metered-send, untimed-clock,
//! flop-conventions) see the path they key on.
//!
//! Regenerate expectations after an intentional rule change with
//! `UPDATE_GOLDEN=1 cargo test -p dpf-lint --test golden` and review
//! the diff like any other golden update.

use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_sources() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("tests/fixtures exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    out.sort();
    out
}

/// The repo-relative path the fixture wants to be linted under.
fn lint_path_of(src: &str, stem: &str) -> String {
    src.lines()
        .find_map(|l| l.trim().strip_prefix("// lint-path:"))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| format!("crates/dpf-fixture/src/{stem}.rs"))
}

#[test]
fn fixtures_match_expected_text() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut checked = 0;
    for path in fixture_sources() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(&path).unwrap();
        let rendered =
            dpf_lint::render_text(&dpf_lint::lint_source(&lint_path_of(&src, &stem), &src));
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &rendered).unwrap();
            continue;
        }
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "{} is missing; run UPDATE_GOLDEN=1 cargo test -p dpf-lint --test golden",
                expected_path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "fixture {stem}: rendered diagnostics drifted from {}",
            expected_path.display()
        );
        checked += 1;
    }
    if !update {
        assert!(
            checked >= 7,
            "expected at least 7 fixtures, found {checked}"
        );
    }
}

/// Fixtures with violations must actually fail the run, and the
/// fully-suppressed fixture must not: the golden text alone would pass
/// even if `is_failing` regressed.
#[test]
fn fixture_failure_classes() {
    for path in fixture_sources() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(&path).unwrap();
        let diags = dpf_lint::lint_source(&lint_path_of(&src, &stem), &src);
        if stem == "suppressed" {
            assert!(diags.is_empty(), "{stem}: {diags:?}");
            assert!(!dpf_lint::is_failing(&diags, true));
        } else {
            assert!(
                dpf_lint::is_failing(&diags, true),
                "{stem} should fail under --deny warnings"
            );
        }
    }
}

/// Diagnostics carry a real `file:line` anchor — the acceptance
/// contract is that a regression names the offending site, not just
/// the rule.
#[test]
fn diagnostics_name_file_and_line() {
    let src = fs::read_to_string(fixture_dir().join("nan_fold.rs")).unwrap();
    let lint_path = lint_path_of(&src, "nan_fold");
    let diags = dpf_lint::lint_source(&lint_path, &src);
    assert!(!diags.is_empty());
    for d in &diags {
        assert_eq!(d.file, lint_path);
        assert!(d.line > 0, "{d:?}");
        // The reported line really holds the construct the rule names.
        let line_text = src.lines().nth(d.line as usize - 1).unwrap();
        assert!(
            line_text.contains("max") || line_text.contains("min"),
            "{d:?} points at {line_text:?}"
        );
    }
}

// ---------------------------------------------------- tree-level tests

/// A miniature repo checkout under tests/fixtures/tree: exercises the
/// directory walk and output determinism.
fn tree_root() -> PathBuf {
    fixture_dir().join("tree")
}

#[test]
fn tree_walk_reports_every_crate() {
    let diags = dpf_lint::lint_tree(&tree_root()).unwrap();
    let text = dpf_lint::render_text(&diags);
    // alpha reads the wall clock and beta folds with a NaN-dropping max:
    // one finding from each crate shows the walk reached both.
    for (rule, file) in [
        ("untimed-clock", "crates/dpf-alpha/src/lib.rs"),
        ("nan-unsafe-fold", "crates/dpf-beta/src/util.rs"),
    ] {
        assert!(
            diags.iter().any(|d| d.rule == rule && d.file == file),
            "no {rule} finding in {file}:\n{text}"
        );
    }
}

/// A second mini tree holding only a registry/tables pair with every
/// deliberate `comm-inventory` defect: drifted pattern set, unknown
/// pattern name, missing inventory entry, duplicate entry, stale
/// benchmark. The golden file pins the exact rendered diagnostics.
#[test]
fn comm_inventory_tree_matches_golden() {
    let root = fixture_dir().join("tree_inventory");
    let diags: Vec<_> = dpf_lint::lint_tree(&root)
        .unwrap()
        .into_iter()
        .filter(|d| d.rule == "comm-inventory")
        .collect();
    let rendered = dpf_lint::render_text(&diags);
    let expected_path = fixture_dir().join("tree_inventory.expected");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&expected_path, &rendered).unwrap();
        return;
    }
    let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
        panic!(
            "{} is missing; run UPDATE_GOLDEN=1 cargo test -p dpf-lint --test golden",
            expected_path.display()
        )
    });
    assert_eq!(rendered, expected, "comm-inventory diagnostics drifted");
    // Spot-check the defect classes so the golden cannot silently go
    // empty: drift, unknown pattern, missing entry, duplicate, stale.
    for needle in [
        "inventory says",
        "unknown communication pattern `Warp`",
        "no §1.5 COMM_INVENTORY entry",
        "twice",
        "not in the registry",
    ] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no diagnostic matching {needle:?} in:\n{rendered}"
        );
    }
    assert!(dpf_lint::is_failing(&diags, false));
}

/// A registry with no `COMM_INVENTORY` anywhere is itself a finding —
/// the inventory cannot silently disappear. (The alpha/beta mini tree
/// has neither file, so it stays silent: rule scoped to real trees.)
#[test]
fn registry_without_inventory_is_reported_and_no_registry_is_silent() {
    let src =
        fs::read_to_string(fixture_dir().join("tree_inventory/crates/dpf-suite/src/registry.rs"))
            .unwrap();
    let diags = dpf_lint::rules::check_comm_inventory(
        Some(("crates/dpf-suite/src/registry.rs", src.as_str())),
        None,
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("no COMM_INVENTORY"));
    assert!(dpf_lint::rules::check_comm_inventory(None, None).is_empty());
    let tree_diags = dpf_lint::lint_tree(&tree_root()).unwrap();
    assert!(
        !tree_diags.iter().any(|d| d.rule == "comm-inventory"),
        "mini tree without a registry must stay silent"
    );
}

#[test]
fn tree_output_is_sorted_and_deterministic() {
    let first = dpf_lint::lint_tree(&tree_root()).unwrap();
    let second = dpf_lint::lint_tree(&tree_root()).unwrap();
    assert_eq!(
        dpf_lint::render_json(&first),
        dpf_lint::render_json(&second),
        "JSON output must be byte-identical across runs"
    );
    assert_eq!(
        dpf_lint::render_text(&first),
        dpf_lint::render_text(&second)
    );
    let keys: Vec<_> = first
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "diagnostics must be sorted by (file, line, rule)"
    );
}

#[test]
fn json_parses_as_stable_shape() {
    let diags = dpf_lint::lint_tree(&tree_root()).unwrap();
    let json = dpf_lint::render_json(&diags);
    // No JSON parser in the dependency set: check the stable envelope
    // and per-diagnostic field order textually.
    assert!(json.starts_with("{\n  \"diagnostics\": ["));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"summary\": {\"errors\":"));
    for d in &diags {
        assert!(json.contains(&format!("\"line\": {}, \"rule\": \"{}\"", d.line, d.rule)));
    }
}
