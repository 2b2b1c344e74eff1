//! Tier-1 gate: the shipped tree is clean under the project's own
//! static-analysis pass (`crates/dpf-lint`). Any NaN-unsafe fold, raw
//! clock read, hot-path allocation, unmetered transport send, drifted
//! §1.5 FLOP weight, unexcused `unsafe`,
//! rank-gated collective, lock-order inversion, nondeterminism flow
//! into verified state, or unrunnable registry paper version anywhere
//! in `crates/*/src` fails this test with the offending `file:line` in
//! the message — same contract as the CI lint job, but enforced by
//! `cargo test` alone. The regression tests below pin the acceptance
//! scenarios: reintroducing each class of SPMD-protocol bug must keep
//! failing the lint with the right rule, file, and line.

use std::path::Path;

#[test]
fn live_tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = dpf_lint::lint_tree(root).expect("walk crates/*/src");
    assert!(
        diags.is_empty(),
        "dpf-lint findings in the live tree (run `cargo run -p dpf-lint` for details):\n{}",
        dpf_lint::render_text(&diags)
    );
}

/// Shared scaffolding for the reintroduction scenarios: lint a snippet
/// under a real in-tree path and assert the expected rule fires as an
/// error (the `--deny warnings` exit-2 class) anchored at a real line.
fn assert_reintroduction_caught(path: &str, src: &str, rule: &str, line_needle: &str) {
    let diags = dpf_lint::lint_source(path, src);
    let hit = diags.iter().find(|d| d.rule == rule).unwrap_or_else(|| {
        panic!(
            "no {rule} diagnostic in:\n{}",
            dpf_lint::render_text(&diags)
        )
    });
    assert_eq!(hit.file, path);
    assert!(hit.line > 0, "{hit:?}");
    let line_text = src.lines().nth(hit.line as usize - 1).unwrap();
    assert!(
        line_text.contains(line_needle),
        "{rule} anchored at {:?}, expected a line containing {line_needle:?}",
        line_text
    );
    assert!(
        dpf_lint::is_failing(&diags, false),
        "{rule} must be an error: reintroduction has to exit 2 even without --deny warnings"
    );
}

#[test]
fn reintroduced_rank_gated_barrier_is_caught() {
    assert_reintroduction_caught(
        "crates/dpf-core/src/spmd.rs",
        r#"
pub fn run(m: &Machine) {
    run_workers(m, |rank, comm| {
        if rank == 0 {
            comm.barrier();
        }
        comm.fold_exec(rank, 1.0)
    });
}
"#,
        "collective-parity",
        "barrier",
    );
}

#[test]
fn reintroduced_inverted_lock_pair_is_caught() {
    assert_reintroduction_caught(
        "crates/dpf-core/src/spmd.rs",
        r#"
impl Pool {
    pub fn reap(&self) {
        let d = self.deaths.lock();
        let w = self.waits.lock();
        d.push(w.len());
    }
    pub fn stall(&self) {
        let w = self.waits.lock();
        let d = self.deaths.lock();
        w.push(d.len());
    }
}
"#,
        "lock-order",
        ".lock()",
    );
}

#[test]
fn reintroduced_hash_iteration_into_verify_is_caught() {
    assert_reintroduction_caught(
        "crates/dpf-suite/src/harness.rs",
        r#"
pub fn verify(map: &HashMap<String, f64>) -> Verify {
    let mut acc = 0.0;
    for v in map.values() {
        acc += v;
    }
    Verify::Residual(acc)
}
"#,
        "determinism-taint",
        "Verify",
    );
}

#[test]
fn live_tree_json_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let first = dpf_lint::render_json(&dpf_lint::lint_tree(root).unwrap());
    let second = dpf_lint::render_json(&dpf_lint::lint_tree(root).unwrap());
    assert_eq!(
        first, second,
        "`dpf lint --format json` must be byte-stable"
    );
}
