//! Fault tolerance, end to end: deterministic injection, detection by
//! verification, checkpoint/restart recovery, and the guarded suite
//! sweep that the CI smoke job drives through `dpf all`.

use std::time::Duration;

use dpf::core::{derive_seed, Ctx, FaultKind, FaultPlan, Machine};
use dpf::suite::{run_guarded, run_suite, ProblemClass, RunOutcome, Size, SuiteConfig, Version};

const CLASS_S: Size = Size::Class(ProblemClass::S);

fn machine() -> Machine {
    Machine::cm5(8)
}

// ------------------------------------------------------------ determinism

#[test]
fn same_seed_gives_identical_fault_sites() {
    let entry = dpf::find("conj-grad").unwrap();
    let variant = entry.variant(Version::Basic).unwrap();
    let plan = FaultPlan::new(0.05, 42).only(FaultKind::NanPoison);
    let records = |plan: FaultPlan| {
        let ctx = Ctx::with_faults(machine(), plan);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (variant.run)(&ctx, CLASS_S)
        }));
        ctx.faults.records()
    };
    let a = records(plan.clone());
    let b = records(plan.clone());
    assert!(!a.is_empty(), "plan injected nothing");
    assert_eq!(a, b, "same seed must hit the same sites");
    // A different seed draws a different decision stream.
    let mut other = plan;
    other.seed = 43;
    assert_ne!(a, records(other));
}

#[test]
fn derive_seed_separates_benchmarks_and_attempts() {
    let base = derive_seed(42, "conj-grad", 0);
    assert_ne!(base, derive_seed(42, "conj-grad", 1));
    assert_ne!(base, derive_seed(42, "jacobi", 0));
    assert_ne!(base, derive_seed(7, "conj-grad", 0));
    assert_eq!(base, derive_seed(42, "conj-grad", 0));
}

#[test]
fn guarded_outcomes_are_deterministic_across_runs() {
    let entry = dpf::find("wave-1D").unwrap();
    let cfg = SuiteConfig {
        machine: machine(),
        size: CLASS_S,
        faults: FaultPlan::new(0.02, 42),
        retries: 2,
        ..SuiteConfig::default()
    };
    let a = run_guarded(&entry, Version::Basic, &cfg);
    let b = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.faults_injected, b.faults_injected);
}

// -------------------------------------------------------------- detection

#[test]
fn injected_corruption_is_never_reported_as_pass() {
    // NaN poison must always be caught: either the kernel panics on it,
    // or it propagates into the residual and verification fails. With no
    // retry budget the guarded outcome can therefore never be a success.
    let entry = dpf::find("conj-grad").unwrap();
    for seed in [1u64, 2, 3, 4, 5] {
        let cfg = SuiteConfig {
            machine: machine(),
            size: CLASS_S,
            faults: FaultPlan::new(0.5, seed).only(FaultKind::NanPoison),
            ..SuiteConfig::default()
        };
        let res = run_guarded(&entry, Version::Basic, &cfg);
        let injected_nothing = res.outcome == RunOutcome::Completed && res.faults_injected == 0;
        assert!(
            !res.outcome.is_success() || injected_nothing,
            "seed {seed}: corrupted run reported success: {}",
            res.outcome
        );
    }
}

#[test]
fn forced_abort_is_isolated_and_recovered_by_retry() {
    let entry = dpf::find("fft").unwrap();
    let mut cfg = SuiteConfig {
        machine: machine(),
        size: CLASS_S,
        faults: FaultPlan::new(1.0, 9).only(FaultKind::Abort),
        ..SuiteConfig::default()
    };
    // No retries: the panic is caught, not propagated.
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert!(
        matches!(res.outcome, RunOutcome::Panicked(_)),
        "{}",
        res.outcome
    );
    // One retry: the final attempt runs fault-free and verifies.
    cfg.retries = 1;
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::Recovered { retries: 1 });
    assert!(res.result.unwrap().report.verify.is_pass());
}

#[test]
fn stalled_run_times_out_instead_of_hanging() {
    let entry = dpf::find("conj-grad").unwrap();
    let cfg = SuiteConfig {
        machine: machine(),
        size: CLASS_S,
        faults: FaultPlan::new(1.0, 11)
            .only(FaultKind::Stall)
            .with_stall_ms(30_000),
        timeout: Duration::from_millis(200),
        ..SuiteConfig::default()
    };
    let start = std::time::Instant::now();
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::TimedOut);
    assert!(start.elapsed() < Duration::from_secs(10));
}

// ------------------------------------------------- checkpoint/restart

#[test]
fn checkpointed_kernel_survives_poison_within_one_run() {
    use dpf::apps::diff_1d;
    let plan = FaultPlan::new(0.02, 0xFA17).only(FaultKind::NanPoison);
    let ctx = Ctx::with_faults(machine(), plan);
    let p = diff_1d::Params::default();
    let (_, v, stats) = diff_1d::run_checkpointed(&ctx, &p, 2, 500).unwrap();
    assert!(ctx.faults.injected() > 0, "plan injected nothing");
    assert!(stats.restores > 0, "no rollback exercised");
    assert!(v.is_pass(), "{v}");
}

#[test]
fn suite_checkpointing_recovers_iterative_kernels() {
    // With --checkpoint-every the gated runners roll back inside a single
    // attempt instead of burning a retry: outcome stays Completed.
    let entry = dpf::find("diff-1D").unwrap();
    let mut plan = FaultPlan::new(0.02, 0xFA17).only(FaultKind::NanPoison);
    plan.checkpoint_every = 2;
    let cfg = SuiteConfig {
        machine: machine(),
        size: CLASS_S,
        faults: plan,
        ..SuiteConfig::default()
    };
    let res = run_guarded(&entry, Version::Basic, &cfg);
    assert_eq!(res.outcome, RunOutcome::Completed, "{}", res.outcome);
    let result = res.result.unwrap();
    assert!(
        result.output.problem.contains("ck=2"),
        "{}",
        result.output.problem
    );
}

// ------------------------------------------------------- acceptance sweep

#[test]
fn full_sweep_under_faults_is_clean_and_deterministic() {
    // The ISSUE acceptance run: --faults 0.01 --fault-seed 42 --retries 2.
    // Every outcome must be Completed or Recovered (no aborts, no hangs)
    // and the whole outcome table must reproduce bit-for-bit.
    let cfg = SuiteConfig {
        machine: machine(),
        size: CLASS_S,
        faults: FaultPlan::new(0.01, 42),
        retries: 2,
        ..SuiteConfig::default()
    };
    let sweep = |cfg: &SuiteConfig| {
        run_suite(cfg)
            .rows
            .iter()
            .map(|r| (r.name, r.outcome.clone()))
            .collect::<Vec<_>>()
    };
    let a = sweep(&cfg);
    assert_eq!(a.len(), dpf::registry().len());
    for (name, outcome) in &a {
        assert!(
            matches!(
                outcome,
                RunOutcome::Completed | RunOutcome::Recovered { .. }
            ),
            "{name}: {outcome}"
        );
    }
    let b = sweep(&cfg);
    assert_eq!(a, b, "outcome table must be deterministic");
}
