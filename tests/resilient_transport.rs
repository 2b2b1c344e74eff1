//! Suite-level resilience of the SPMD transport: a lossy network must be
//! invisible to the benchmarks (reliable delivery repairs every injected
//! drop/duplicate/reorder/corrupt), an exhausted retransmit budget must
//! surface as a typed, run-failing [`RunOutcome::LinkFailed`], and a killed
//! worker must be survivable through checkpoint/restart.

use dpf::apps::diff_1d;
use dpf::core::{Backend, Ctx, FaultPlan, LinkFaultKind, Machine};
use dpf::suite::{
    find, registry, run_guarded, run_suite, ProblemClass, RunOutcome, Size, SuiteConfig, Version,
};

fn lossy_cfg(link_rate: f64, seed: u64, retries: u32) -> SuiteConfig {
    let mut faults = FaultPlan::default().with_link_faults(link_rate);
    faults.seed = seed;
    SuiteConfig {
        machine: Machine::cm5(8),
        size: Size::Class(ProblemClass::S),
        faults,
        retries,
        backend: Backend::Spmd,
        ..SuiteConfig::default()
    }
}

/// The acceptance sweep: all 32 benchmarks over 2%-lossy links complete
/// with zero failures, and a second run of the same seed produces a
/// byte-identical outcome table.
#[test]
fn lossy_sweep_recovers_every_benchmark_deterministically() {
    let cfg = lossy_cfg(0.02, 7, 2);
    let first = run_suite(&cfg);
    assert_eq!(
        first.failures(),
        0,
        "lossy sweep had failures:\n{}",
        first.summary()
    );
    let second = run_suite(&cfg);
    assert_eq!(
        first.summary(),
        second.summary(),
        "lossy sweep is not reproducible from its seed"
    );
}

/// With repair disabled (`max_retransmits = 0`) the first dropped frame is
/// a typed link failure: the harness classifies it, the outcome is not a
/// success (so the CLI exits nonzero), and the message names the link.
#[test]
fn exhausted_retransmit_budget_is_a_typed_failure() {
    let entry = find("transpose").unwrap();
    let mut cfg = lossy_cfg(0.5, 11, 0);
    cfg.faults = cfg
        .faults
        .only_link(LinkFaultKind::Drop)
        .with_max_retransmits(0);
    let guarded = run_guarded(&entry, Version::Basic, &cfg);
    let RunOutcome::LinkFailed(msg) = &guarded.outcome else {
        panic!("expected LinkFailed, got {:?}", guarded.outcome);
    };
    assert!(
        msg.contains("link failure") && msg.contains("worker"),
        "failure message lacks link detail: {msg}"
    );
    assert!(
        !guarded.outcome.is_success(),
        "a link failure must fail the run"
    );
}

/// Same failure at the suite level: the row reaches the outcome table as a
/// link failure and counts toward `failures()`, which is what drives the
/// CLI's nonzero exit code.
#[test]
fn link_failed_rows_fail_the_suite() {
    let mut cfg = lossy_cfg(0.5, 11, 0);
    cfg.faults.link_kinds = vec![LinkFaultKind::Drop];
    cfg.faults.max_retransmits = 0;
    cfg.quarantine = registry()
        .iter()
        .map(|e| e.name.to_string())
        .filter(|n| n != "transpose")
        .collect();
    let report = run_suite(&cfg);
    assert!(report.failures() > 0, "link failure did not fail the suite");
    assert!(
        report.summary().contains("link-failure"),
        "summary does not show the link failure:\n{}",
        report.summary()
    );
}

/// The retry harness recovers from a link failure when the final attempt
/// runs with injection disarmed: outcome is Recovered, not LinkFailed.
#[test]
fn retry_harness_recovers_from_link_failure() {
    let entry = find("transpose").unwrap();
    let mut cfg = lossy_cfg(0.5, 11, 1);
    cfg.faults = cfg
        .faults
        .only_link(LinkFaultKind::Drop)
        .with_max_retransmits(0);
    let guarded = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(
        guarded.outcome,
        RunOutcome::Recovered { retries: 1 },
        "expected recovery on the disarmed final attempt"
    );
    assert!(guarded.result.is_some(), "recovered run has no report");
}

/// A deterministically killed worker mid-run is survivable: supervision
/// releases the blocked peers, the checkpoint driver restores the last
/// snapshot and replays, and the recovered answer matches a clean run.
#[test]
fn killed_worker_recovers_through_checkpoint_restart() {
    let p = diff_1d::Params {
        nx: 64,
        steps: 6,
        lambda: 0.4,
    };

    // Clean reference run, which also tells us how many SPMD collectives
    // the kernel issues so the kill can land squarely mid-run.
    let clean = Ctx::build(Machine::cm5(4), None, Backend::Spmd);
    let (u_clean, v_clean, s_clean) =
        diff_1d::run_checkpointed(&clean, &p, 2, 0).expect("clean run failed");
    assert!(v_clean.is_pass());
    assert_eq!(s_clean.restores, 0);
    let total = clean.link.collectives();
    assert!(total > 4, "too few collectives to place a mid-run kill");

    let plan = FaultPlan::default().with_kill_worker(1, total / 2);
    let ctx = Ctx::build(Machine::cm5(4), Some(plan), Backend::Spmd);
    let (u, verify, stats) =
        diff_1d::run_checkpointed(&ctx, &p, 2, 4).expect("recovery from worker death failed");
    assert!(verify.is_pass(), "recovered run failed verification");
    assert!(
        stats.restores >= 1,
        "kill injection never fired (restores = {})",
        stats.restores
    );
    assert_eq!(
        u.to_vec(),
        u_clean.to_vec(),
        "recovered answer differs from the clean run"
    );
}
