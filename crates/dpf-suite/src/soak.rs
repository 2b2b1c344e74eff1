//! `dpf soak` — the chaos-soak driver: seeded randomized schedules of
//! worker kills layered on top of the existing link- and value-fault
//! plans, swept over the whole registry for N iterations.
//!
//! Everything about a soak is a pure function of its seed: per-iteration
//! fault-plan seeds and per-benchmark kill schedules are derived with the
//! same SplitMix64 stream discipline the fault injector uses, and the
//! summary reports only deterministic quantities (outcomes, respawn and
//! rewind counts — never wall-clock or transport-retry counters, which
//! depend on thread scheduling). Two soaks with the same configuration
//! therefore render byte-identical summaries, which CI diffs.

use dpf_core::{derive_seed, splitmix64};

use crate::benchmark::Version;
use crate::harness::{run_guarded, RunOutcome, SuiteConfig, SuiteRow};
use crate::registry::registry;

/// A uniform draw in `[0, 1)` from the top 53 bits of the advanced
/// SplitMix64 state, so kill schedules stay a pure function of the seed.
fn unit(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `0..n`.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = splitmix64(*state);
    *state % n.max(1)
}

/// Collectives eligible for a scheduled kill. Early collectives are the
/// ones every benchmark reaches regardless of size tier, so kills drawn
/// from this range actually fire instead of silently outliving the run.
const KILL_COLLECTIVE_RANGE: u64 = 24;

/// Configuration of one chaos soak.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// The per-run harness configuration (machine, size, backend,
    /// link/value fault rates, timeout, retries, recover mode). The
    /// fault plan's own seed and kill schedule are overwritten per
    /// iteration/benchmark from [`SoakConfig::seed`].
    pub base: SuiteConfig,
    /// Full registry sweeps to run.
    pub iterations: u32,
    /// Per-benchmark probability (per iteration) of scheduling a worker
    /// kill.
    pub kill_rate: f64,
    /// Master seed every randomized decision is derived from.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            base: SuiteConfig::default(),
            iterations: 1,
            kill_rate: 0.0,
            seed: 0,
        }
    }
}

/// One benchmark run inside a soak iteration.
pub struct SoakRow {
    /// The suite row (name, outcome, optional report).
    pub row: SuiteRow,
    /// The kill schedule injected into this run, `(rank, collective)`.
    pub kills: Vec<(usize, u64)>,
}

/// One full-registry sweep of a soak.
pub struct SoakIteration {
    /// Iteration index, `0..iterations`.
    pub index: u32,
    /// One row per registry benchmark, in registry order.
    pub rows: Vec<SoakRow>,
}

/// The deterministic outcome table of a whole soak.
pub struct SoakReport {
    /// The configuration echo rendered in the header.
    pub config: SoakConfig,
    /// All iterations, in order.
    pub iterations: Vec<SoakIteration>,
}

impl SoakReport {
    /// Runs whose outcome counts as a failure (same rule as the suite:
    /// interrupted runs are partial, not failed).
    pub fn failures(&self) -> usize {
        self.iterations
            .iter()
            .flat_map(|it| &it.rows)
            .filter(|r| !r.row.outcome.is_success() && r.row.outcome != RunOutcome::Interrupted)
            .count()
    }

    /// Runs a shutdown request left unmeasured. Nonzero means the soak
    /// is partial and the CLI exits with the interrupt code.
    pub fn interrupted(&self) -> usize {
        self.iterations
            .iter()
            .flat_map(|it| &it.rows)
            .filter(|r| r.row.outcome == RunOutcome::Interrupted)
            .count()
    }

    /// Runs that healed in-run (≥1 respawn, no harness restart).
    pub fn healed(&self) -> usize {
        self.iterations
            .iter()
            .flat_map(|it| &it.rows)
            .filter(|r| matches!(r.row.outcome, RunOutcome::Healed { .. }))
            .count()
    }

    /// Render the deterministic soak summary: a header echoing the
    /// configuration, one line per iteration with outcome counts and the
    /// kill schedule, a detail line per non-`completed` run, and a
    /// grand-total line. Deliberately excludes every timing- or
    /// scheduling-dependent quantity so reruns are byte-identical.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let size = self.config.base.size.label();
        let _ = writeln!(
            s,
            "dpf soak: {} iteration(s), seed {}, kill-rate {}, backend {}, size {size}, {} benchmarks",
            self.config.iterations,
            self.config.seed,
            self.config.kill_rate,
            self.config.base.backend,
            registry().len(),
        );
        let mut total_respawns = 0u64;
        let mut total_rewound = 0u64;
        for it in &self.iterations {
            let mut completed = 0;
            let mut healed = 0;
            let mut recovered = 0;
            let mut failed = 0;
            let mut kills = 0;
            for r in &it.rows {
                kills += r.kills.len();
                match &r.row.outcome {
                    RunOutcome::Completed => completed += 1,
                    RunOutcome::Healed {
                        respawns,
                        epochs_rewound,
                    } => {
                        healed += 1;
                        total_respawns += respawns;
                        total_rewound += epochs_rewound;
                    }
                    RunOutcome::Recovered { .. } => recovered += 1,
                    // Interrupted rows are neither completed nor failed;
                    // they surface in their detail lines and the
                    // partial-soak total below.
                    RunOutcome::Interrupted => {}
                    o if o.is_success() => completed += 1,
                    _ => failed += 1,
                }
            }
            let _ = writeln!(
                s,
                "iter {}: {} runs, {} kills scheduled, {} completed, {} healed, \
                 {} recovered, {} failed",
                it.index,
                it.rows.len(),
                kills,
                completed,
                healed,
                recovered,
                failed
            );
            for r in &it.rows {
                if matches!(r.row.outcome, RunOutcome::Completed) {
                    continue;
                }
                let sched: Vec<String> = r
                    .kills
                    .iter()
                    .map(|(rank, coll)| format!("{rank}:{coll}"))
                    .collect();
                let _ = writeln!(
                    s,
                    "  {:<20} {:>16}  kills [{}]",
                    r.row.name,
                    r.row.outcome.to_string(),
                    sched.join(", ")
                );
            }
        }
        let total: usize = self.iterations.iter().map(|it| it.rows.len()).sum();
        let _ = writeln!(
            s,
            "total: {} runs, {} healed ({} respawns, {} epochs rewound), {} failed",
            total,
            self.healed(),
            total_respawns,
            total_rewound,
            self.failures()
        );
        if self.interrupted() > 0 {
            let _ = writeln!(
                s,
                "INTERRUPTED: {} run(s) not measured (partial soak)",
                self.interrupted()
            );
        }
        s
    }
}

/// Run a chaos soak: `iterations` full-registry sweeps, each with its own
/// derived fault seed and per-benchmark kill schedule. Returns the
/// deterministic report; the CLI maps `failures() > 0` to a failing exit.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let iterations = (0..cfg.iterations)
        .map(|i| {
            // Every iteration reseeds the whole fault plan, so link and
            // value faults land on different sites each sweep while the
            // soak as a whole stays reproducible.
            let iter_seed = derive_seed(cfg.seed, "soak-iter", i as u64);
            let rows = registry()
                .iter()
                .map(|entry| {
                    let mut run_cfg = cfg.base.clone();
                    run_cfg.faults.seed = iter_seed;
                    let mut state = derive_seed(iter_seed, entry.name, 0);
                    let mut kills = Vec::new();
                    if unit(&mut state) < cfg.kill_rate {
                        let rank = below(&mut state, cfg.base.machine.nprocs as u64) as usize;
                        let coll = below(&mut state, KILL_COLLECTIVE_RANGE);
                        kills.push((rank, coll));
                    }
                    run_cfg.faults.kill_workers = kills.clone();
                    let guarded = run_guarded(entry, Version::Basic, &run_cfg);
                    SoakRow {
                        row: SuiteRow {
                            name: entry.name,
                            outcome: guarded.outcome,
                            result: guarded.result,
                        },
                        kills,
                    }
                })
                .collect();
            SoakIteration { index: i, rows }
        })
        .collect();
    SoakReport {
        config: cfg.clone(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{Backend, Machine, RecoverMode};
    use std::time::Duration;

    fn tiny_soak() -> SoakConfig {
        let mut base = SuiteConfig {
            machine: Machine::cm5(4),
            backend: Backend::Spmd,
            timeout: Duration::from_secs(120),
            ..SuiteConfig::default()
        };
        base.faults.recover = RecoverMode::InRun;
        SoakConfig {
            base,
            iterations: 1,
            kill_rate: 0.3,
            seed: 7,
            // Trimmed in the test body: a full-registry spmd soak is the
            // CI job's territory, not a unit test's.
        }
    }

    #[test]
    fn kill_schedules_are_a_pure_function_of_the_seed() {
        let cfg = tiny_soak();
        let schedule = |seed: u64| -> Vec<Vec<(usize, u64)>> {
            let iter_seed = derive_seed(seed, "soak-iter", 0);
            registry()
                .iter()
                .map(|e| {
                    let mut state = derive_seed(iter_seed, e.name, 0);
                    let mut kills = Vec::new();
                    if unit(&mut state) < cfg.kill_rate {
                        kills.push((
                            below(&mut state, 4) as usize,
                            below(&mut state, KILL_COLLECTIVE_RANGE),
                        ));
                    }
                    kills
                })
                .collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "seed must matter");
        let kills: usize = schedule(7).iter().map(Vec::len).sum();
        assert!(kills > 0, "rate 0.3 over 32 benchmarks must schedule kills");
    }

    #[test]
    fn unit_draws_are_in_range_and_rate_shaped() {
        let mut state = 42;
        let mut below_rate = 0;
        for _ in 0..1000 {
            let u = unit(&mut state);
            assert!((0.0..1.0).contains(&u));
            if u < 0.1 {
                below_rate += 1;
            }
        }
        assert!((50..200).contains(&below_rate), "got {below_rate}/1000");
    }
}
