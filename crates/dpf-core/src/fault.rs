//! Deterministic fault injection and the suite's typed error.
//!
//! The paper's premise is *characterization you can trust*: every
//! benchmark carries a built-in [`crate::Verify`], so a run is only
//! meaningful if it is both measured and correct. This module makes that
//! claim testable. A [`FaultPlan`] hung off the [`crate::Ctx`] describes a
//! seeded, deterministic stream of faults — NaN poisoning and bit flips in
//! communication buffers, simulated per-virtual-processor stalls, and
//! forced kernel aborts — that the communication substrate injects into
//! its outputs at a configurable rate. The same seed always produces the
//! same fault sites in the same order, so a fault run is exactly as
//! reproducible as a clean one.
//!
//! Injection decisions are made once per communication primitive call on
//! the calling thread (never inside a rayon region), and the decision
//! stream is driven by a SplitMix64 hash of `(seed, call counter)` — not
//! by a shared mutable generator — so determinism survives the internal
//! parallelism of the primitives.
//!
//! [`DpfError`] is the typed error of every primitive's validation path
//! (gather/scatter index and shape checks, LU/Gauss–Jordan singularity,
//! FFT power-of-two, transpose rank). Each primitive has one
//! implementation, its `try_*` form; a surviving panicking name panics
//! with the error's `Display` text, so `try_*` callers and `should_panic`
//! tests see the same text.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::dtype::Elem;

/// The typed error for recoverable validation and fault paths.
///
/// `Display` renders exactly the message the corresponding panicking
/// wrapper panics with, so choosing the `try_*` form never changes the
/// observable text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DpfError {
    /// An index addressed past a 1-D bound (gather/scatter index checks).
    IndexOutOfBounds {
        /// Site label, e.g. `"gather index"` or `"scatter index"`.
        label: &'static str,
        /// The offending index.
        index: i64,
        /// The exclusive bound it violated.
        bound: i64,
    },
    /// A coordinate addressed past an axis extent (`try_gather_nd`,
    /// `try_scatter_nd_combine`).
    IndexOutOfExtent {
        /// Site label, e.g. `"gather_nd index"`.
        label: &'static str,
        /// The offending coordinate.
        index: i64,
        /// The axis extent it violated.
        extent: usize,
    },
    /// A pivot collapsed during factorization (LU, Gauss–Jordan).
    SingularMatrix {
        /// Elimination step at which the pivot vanished.
        step: usize,
    },
    /// An FFT was asked for a non-power-of-two size.
    NotPowerOfTwo {
        /// `"length"` (flat rows) or `"extent"` (distributed axis).
        what: &'static str,
        /// The offending size.
        n: usize,
    },
    /// A shape or rank precondition failed.
    Shape {
        /// The full message of the corresponding assertion.
        what: &'static str,
    },
    /// A deterministic injected abort fired (see [`FaultKind::Abort`]).
    InjectedAbort {
        /// The communication site that aborted.
        site: &'static str,
        /// The injector's decision counter when it fired.
        decision: u64,
    },
    /// A benchmark step panicked and was isolated by the checkpoint driver.
    StepPanicked {
        /// The step index that panicked.
        step: usize,
    },
    /// Checkpoint/restart gave up after too many restores.
    RecoveryExhausted {
        /// Restores performed before giving up.
        restores: usize,
    },
    /// A message exhausted its retransmit budget on an unreliable link:
    /// every allowed transmission attempt was dropped or corrupted.
    LinkFailure {
        /// Sending worker rank.
        src: usize,
        /// Destination worker rank.
        dst: usize,
        /// Per-link sequence number of the undeliverable message.
        seq: u64,
        /// Transmission attempts consumed (first send + retransmits).
        attempts: u32,
    },
    /// A receiver's per-peer buffer hit its cap (pathological reorder or a
    /// runaway sender) — backpressure instead of unbounded memory growth.
    LinkBackpressure {
        /// The buffering worker rank.
        worker: usize,
        /// The peer whose messages filled the buffer.
        peer: usize,
        /// Messages buffered when the cap was hit.
        buffered: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A peer worker died (panicked) mid-collective; the waiter aborts
    /// instead of blocking until the deadlock timeout.
    WorkerDied {
        /// The rank that died.
        worker: usize,
        /// The rank that observed the death while waiting.
        waiter: usize,
    },
    /// Heartbeat-based stall detection found no global progress with every
    /// live worker blocked; the diagnosis holds the wait-for graph.
    Deadlock {
        /// The rank that diagnosed the stall.
        worker: usize,
        /// The rendered wait-for graph (who blocks on whom, barrier
        /// generation, pending sequence numbers, heartbeat ages).
        detail: String,
    },
    /// A respawned worker's buddy replica failed its CRC check during
    /// in-run recovery; the run falls back to harness-level restart
    /// rather than rehydrating from corrupt bytes.
    ReplicaCorrupt {
        /// The rank whose state could not be rehydrated.
        worker: usize,
        /// The epoch (collective) whose replica was corrupt.
        epoch: u64,
    },
    /// The run was misconfigured before any benchmark code executed
    /// (unknown benchmark in a quarantine list, missing variant, bad
    /// flag combination). Config errors are *not* runtime failures:
    /// the suite reports them on their own row class and the CLI maps
    /// them to the usage/config exit code (2), never the
    /// benchmark-failure exit code (1).
    Config {
        /// What was misconfigured.
        what: String,
    },
    /// An artifact or journal file could not be read or written
    /// durably (create, write, fsync or rename failed). Like
    /// [`DpfError::Config`], this is an environment problem rather
    /// than a benchmark failure, and the CLI maps it to exit code 2.
    Artifact {
        /// The path involved.
        path: String,
        /// The failing operation and OS error.
        what: String,
    },
}

impl std::fmt::Display for DpfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpfError::IndexOutOfBounds {
                label,
                index,
                bound,
            } => write!(f, "{label} {index} out of bounds {bound}"),
            DpfError::IndexOutOfExtent {
                label,
                index,
                extent,
            } => write!(f, "{label} {index} out of extent {extent}"),
            DpfError::SingularMatrix { step } => write!(f, "singular matrix at step {step}"),
            DpfError::NotPowerOfTwo { what, n } => {
                write!(f, "FFT {what} {n} is not a power of two")
            }
            DpfError::Shape { what } => f.write_str(what),
            DpfError::InjectedAbort { site, decision } => {
                write!(
                    f,
                    "injected fault: forced abort at {site} (decision {decision})"
                )
            }
            DpfError::StepPanicked { step } => write!(f, "step {step} panicked"),
            DpfError::RecoveryExhausted { restores } => {
                write!(f, "checkpoint recovery exhausted after {restores} restores")
            }
            DpfError::LinkFailure {
                src,
                dst,
                seq,
                attempts,
            } => write!(
                f,
                "link failure: worker {src} -> {dst} seq {seq} undeliverable \
                 after {attempts} transmission attempt(s)"
            ),
            DpfError::LinkBackpressure {
                worker,
                peer,
                buffered,
                cap,
            } => write!(
                f,
                "link backpressure: worker {worker} buffered {buffered} \
                 message(s) from peer {peer} (cap {cap})"
            ),
            DpfError::WorkerDied { worker, waiter } => write!(
                f,
                "spmd worker {waiter} aborted: peer worker {worker} died mid-collective"
            ),
            DpfError::Deadlock { worker, detail } => {
                write!(f, "spmd deadlock diagnosed by worker {worker}:\n{detail}")
            }
            DpfError::ReplicaCorrupt { worker, epoch } => write!(
                f,
                "replica corrupt: worker {worker} cannot be rehydrated at epoch {epoch} \
                 (buddy snapshot failed its CRC check)"
            ),
            DpfError::Config { what } => {
                write!(f, "configuration error: {what}")
            }
            DpfError::Artifact { path, what } => {
                write!(f, "artifact I/O error: {path}: {what}")
            }
        }
    }
}

impl std::error::Error for DpfError {}

/// What a fired fault does to the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one element of a communication buffer with NaN
    /// (silent data corruption the `Verify` layer must catch).
    NanPoison,
    /// Flip a high bit of one element's representation (large but finite
    /// corruption — the hard case for residual checks).
    BitFlip,
    /// Sleep the calling virtual processor for
    /// [`FaultPlan::stall_ms`] milliseconds (drives timeout handling).
    Stall,
    /// Panic at the site (a hard kernel abort the harness must isolate).
    Abort,
}

impl FaultKind {
    /// All four kinds, the default injection mix.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::NanPoison,
        FaultKind::BitFlip,
        FaultKind::Stall,
        FaultKind::Abort,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::NanPoison => "nan-poison",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Stall => "stall",
            FaultKind::Abort => "abort",
        })
    }
}

/// What an unreliable link does to one transmitted message. Decided
/// per-message from a SplitMix64 hash of `(seed, src, dst, seq, attempt)`
/// inside the SPMD router's send path, so a faulted run is byte-reproducible
/// from its seed regardless of thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The message never reaches the channel (the sender's transport layer
    /// must retransmit it after a backoff).
    Drop,
    /// The message is delivered twice (the receiver must dedup by sequence
    /// number).
    Duplicate,
    /// The message is held back and overtaken by the next message on the
    /// same link (the receiver must reassemble by sequence number).
    Reorder,
    /// The message's checksum is mangled in flight (the receiver detects
    /// the CRC mismatch, discards the frame and nacks it).
    Corrupt,
}

impl LinkFaultKind {
    /// All four kinds, the default link-fault mix.
    pub const ALL: [LinkFaultKind; 4] = [
        LinkFaultKind::Drop,
        LinkFaultKind::Duplicate,
        LinkFaultKind::Reorder,
        LinkFaultKind::Corrupt,
    ];
}

impl std::fmt::Display for LinkFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LinkFaultKind::Drop => "drop",
            LinkFaultKind::Duplicate => "duplicate",
            LinkFaultKind::Reorder => "reorder",
            LinkFaultKind::Corrupt => "corrupt",
        })
    }
}

/// What the SPMD executor does when a worker dies mid-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoverMode {
    /// Heal inside the run: park surviving peers at a recovery barrier,
    /// respawn the dead rank, rehydrate its shard from the buddy replica,
    /// rewind everyone to the last consistent epoch and resume.
    InRun,
    /// Propagate the death as [`DpfError::WorkerDied`] and let the
    /// harness retry the whole benchmark (the historical behavior, and
    /// still the fallback when in-run healing cannot proceed).
    #[default]
    Restart,
    /// Propagate the death and do not retry at all: a killed worker
    /// fails the row.
    Off,
}

impl std::str::FromStr for RecoverMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-run" => Ok(RecoverMode::InRun),
            "restart" => Ok(RecoverMode::Restart),
            "off" => Ok(RecoverMode::Off),
            other => Err(format!(
                "unknown recover mode '{other}' (expected in-run, restart or off)"
            )),
        }
    }
}

impl std::fmt::Display for RecoverMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoverMode::InRun => "in-run",
            RecoverMode::Restart => "restart",
            RecoverMode::Off => "off",
        })
    }
}

/// A seeded, deterministic description of the faults to inject.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that any single decision point fires, in `[0, 1]`.
    /// Zero disables injection entirely (the default).
    pub rate: f64,
    /// Seed of the decision stream. Identical seeds produce identical
    /// fault sites, kinds and element positions.
    pub seed: u64,
    /// The kinds a fired decision may choose from (uniformly by hash).
    pub kinds: Vec<FaultKind>,
    /// Milliseconds a [`FaultKind::Stall`] sleeps.
    pub stall_ms: u64,
    /// Snapshot cadence for checkpoint-aware kernels: snapshot every K
    /// iterations, 0 = checkpointing off.
    pub checkpoint_every: usize,
    /// Probability that any single SPMD channel message suffers a link
    /// fault, in `[0, 1]`. Zero models a reliable network (the default).
    pub link_rate: f64,
    /// The link-fault kinds a fired per-message decision may choose from.
    pub link_kinds: Vec<LinkFaultKind>,
    /// Retransmissions the reliable-delivery protocol may spend per
    /// message before declaring [`DpfError::LinkFailure`]. Zero disables
    /// repair entirely: the first drop/corrupt fails the run.
    pub max_retransmits: u32,
    /// Deterministic worker-death schedule: each `(rank, collective)`
    /// entry panics worker `rank` at the start of the `collective`-th
    /// SPMD collective of the run (collectives are counted per context).
    /// Multiple entries kill multiple workers across epochs.
    pub kill_workers: Vec<(usize, u64)>,
    /// What the SPMD executor does when a worker dies (see
    /// [`RecoverMode`]); defaults to harness-level restart.
    pub recover: RecoverMode,
    /// Chaos knob: corrupt every buddy-replica checksum so in-run
    /// rehydration is forced onto its corrupt-replica fallback path
    /// (typed [`DpfError::ReplicaCorrupt`] → harness restart).
    pub replica_corrupt: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            rate: 0.0,
            seed: 0,
            kinds: FaultKind::ALL.to_vec(),
            stall_ms: 2,
            checkpoint_every: 0,
            link_rate: 0.0,
            link_kinds: LinkFaultKind::ALL.to_vec(),
            max_retransmits: 6,
            kill_workers: Vec::new(),
            recover: RecoverMode::default(),
            replica_corrupt: false,
        }
    }
}

impl FaultPlan {
    /// A plan injecting all four kinds at `rate` from `seed`.
    pub fn new(rate: f64, seed: u64) -> Self {
        FaultPlan {
            rate,
            seed,
            ..Default::default()
        }
    }

    /// Restrict the plan to a single kind (for targeted tests).
    pub fn only(mut self, kind: FaultKind) -> Self {
        self.kinds = vec![kind];
        self
    }

    /// Set the snapshot cadence for checkpoint-aware kernels.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Set the stall duration.
    pub fn with_stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// Arm per-message link faults at `rate`.
    pub fn with_link_faults(mut self, rate: f64) -> Self {
        self.link_rate = rate;
        self
    }

    /// Restrict link faults to a single kind (for targeted tests).
    pub fn only_link(mut self, kind: LinkFaultKind) -> Self {
        self.link_kinds = vec![kind];
        self
    }

    /// Set the per-message retransmit budget.
    pub fn with_max_retransmits(mut self, budget: u32) -> Self {
        self.max_retransmits = budget;
        self
    }

    /// Schedule worker `rank` to die at the start of the `collective`-th
    /// SPMD collective of the run. Callable repeatedly: each call appends
    /// one entry to the kill schedule.
    pub fn with_kill_worker(mut self, rank: usize, collective: u64) -> Self {
        self.kill_workers.push((rank, collective));
        self
    }

    /// Set the worker-death recovery mode.
    pub fn with_recover(mut self, mode: RecoverMode) -> Self {
        self.recover = mode;
        self
    }

    /// Corrupt every buddy-replica checksum (targeted fallback tests).
    pub fn with_replica_corrupt(mut self) -> Self {
        self.replica_corrupt = true;
        self
    }

    /// True when the plan can actually fire at a communication buffer
    /// decision point (link faults are separate — see
    /// [`FaultPlan::link_active`]).
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && !self.kinds.is_empty()
    }

    /// True when per-message link faults can fire.
    pub fn link_active(&self) -> bool {
        self.link_rate > 0.0 && !self.link_kinds.is_empty()
    }

    /// True when any kind of injection — buffer faults, link faults, or a
    /// worker kill — is armed.
    pub fn any_active(&self) -> bool {
        self.is_active() || self.link_active() || !self.kill_workers.is_empty()
    }

    /// Disable every injection source, leaving seeds and budgets in place
    /// (the harness's fault-free final attempt).
    pub fn disarm(&mut self) {
        self.rate = 0.0;
        self.link_rate = 0.0;
        self.kill_workers.clear();
        self.replica_corrupt = false;
    }
}

/// One injected fault, as recorded in the injector's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// The communication site, e.g. `"cshift"`, `"gather"`.
    pub site: &'static str,
    /// What was done.
    pub kind: FaultKind,
    /// Element index corrupted (0 for stalls and aborts).
    pub index: usize,
    /// The decision counter when the fault fired (total decision points
    /// seen before this one — a stable, layout-independent site id).
    pub decision: u64,
}

/// SplitMix64 — the hash driving the decision stream, and the one
/// generator step every seeded schedule in the suite derives from.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent decision stream seed (used by the harness to give
/// every benchmark and every retry attempt its own deterministic stream).
pub fn derive_seed(seed: u64, salt: &str, attempt: u64) -> u64 {
    let mut h = splitmix64(seed ^ 0x5DEE_CE66_D1A4_F0A5);
    for b in salt.bytes() {
        h = splitmix64(h ^ b as u64);
    }
    splitmix64(h ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The per-context fault engine: consults the plan at every decision
/// point, corrupts buffers/scalars, stalls, or aborts — deterministically.
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    calls: AtomicU64,
    log: Mutex<Vec<FaultRecord>>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("decisions", &self.calls.load(Ordering::Relaxed))
            .field("injected", &self.log.lock().len())
            .finish()
    }
}

impl FaultInjector {
    /// An injector that never fires (the default for every `Ctx`).
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::default())
    }

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let active = plan.is_active();
        FaultInjector {
            plan,
            active,
            calls: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot cadence for checkpoint-aware kernels (0 = off).
    #[inline]
    pub fn checkpoint_every(&self) -> usize {
        self.plan.checkpoint_every
    }

    /// True when the injector can fire at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.active
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.log.lock().len()
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The full fault log, in injection order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.log.lock().clone()
    }

    /// One decision point: returns the kind to inject and the raw hash
    /// (for element selection), or `None`.
    fn decide(&self) -> Option<(FaultKind, u64, u64)> {
        let c = self.calls.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.plan.seed ^ splitmix64(c.wrapping_add(1)));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= self.plan.rate {
            return None;
        }
        let h2 = splitmix64(h);
        let kind = self.plan.kinds[(h2 % self.plan.kinds.len() as u64) as usize];
        Some((kind, splitmix64(h2), c))
    }

    /// Decision point over a freshly produced communication buffer.
    ///
    /// NaN-poison/bit-flip corrupt one element at a hash-chosen position;
    /// stalls sleep; aborts panic with the [`DpfError::InjectedAbort`]
    /// message (so the harness can recognize injected aborts).
    pub fn inject_slice<T: Elem>(&self, site: &'static str, buf: &mut [T]) {
        if !self.active {
            return;
        }
        let Some((kind, h, decision)) = self.decide() else {
            return;
        };
        let index = if buf.is_empty() {
            0
        } else {
            (h % buf.len() as u64) as usize
        };
        match kind {
            FaultKind::NanPoison if !buf.is_empty() => buf[index] = buf[index].poisoned(),
            FaultKind::BitFlip if !buf.is_empty() => buf[index] = buf[index].bit_flipped(),
            FaultKind::NanPoison | FaultKind::BitFlip => return,
            FaultKind::Stall => {
                std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms))
            }
            FaultKind::Abort => {
                self.log.lock().push(FaultRecord {
                    site,
                    kind,
                    index: 0,
                    decision,
                });
                panic!("{}", DpfError::InjectedAbort { site, decision });
            }
        }
        self.log.lock().push(FaultRecord {
            site,
            kind,
            index,
            decision,
        });
    }

    /// Decision point over a scalar communication result (reductions).
    pub fn inject_scalar<T: Elem>(&self, site: &'static str, v: &mut T) {
        if !self.active {
            return;
        }
        self.inject_slice(site, std::slice::from_mut(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisoning(rate: f64, seed: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan::new(rate, seed).only(FaultKind::NanPoison))
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        let mut buf = vec![1.0f64; 64];
        for _ in 0..1000 {
            inj.inject_slice("cshift", &mut buf);
        }
        assert_eq!(inj.injected(), 0);
        assert_eq!(
            inj.decisions(),
            0,
            "disabled path must not consume decisions"
        );
        assert!(buf.iter().all(|v| *v == 1.0));
    }

    #[test]
    fn same_seed_same_fault_sites() {
        let mk = || {
            let inj = poisoning(0.05, 42);
            let mut buf = vec![1.0f64; 128];
            for _ in 0..500 {
                inj.inject_slice("gather", &mut buf);
            }
            inj.records()
        };
        let a = mk();
        let b = mk();
        assert!(!a.is_empty(), "0.05 over 500 decisions must fire");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let inj = poisoning(0.05, seed);
            let mut buf = vec![1.0f64; 128];
            for _ in 0..500 {
                inj.inject_slice("gather", &mut buf);
            }
            inj.records().iter().map(|r| r.decision).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn rate_is_respected_roughly() {
        let inj = poisoning(0.1, 7);
        let mut buf = vec![1.0f64; 16];
        for _ in 0..10_000 {
            buf.fill(1.0);
            inj.inject_slice("x", &mut buf);
        }
        let n = inj.injected();
        assert!((600..=1400).contains(&n), "rate 0.1 fired {n}/10000 times");
    }

    #[test]
    fn nan_poison_corrupts_one_element() {
        let inj = poisoning(1.0, 3);
        let mut buf = vec![1.0f64; 8];
        inj.inject_slice("cshift", &mut buf);
        assert_eq!(buf.iter().filter(|v| v.is_nan()).count(), 1);
    }

    #[test]
    fn abort_panics_with_typed_message() {
        let inj = FaultInjector::new(FaultPlan::new(1.0, 9).only(FaultKind::Abort));
        let mut buf = vec![0.0f64; 4];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.inject_slice("transpose", &mut buf)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.starts_with("injected fault: forced abort at transpose"),
            "{msg}"
        );
    }

    #[test]
    fn derive_seed_separates_benchmarks_and_attempts() {
        let a = derive_seed(42, "conj-grad", 0);
        let b = derive_seed(42, "conj-grad", 1);
        let c = derive_seed(42, "jacobi", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, "conj-grad", 0));
    }

    #[test]
    fn error_messages_match_panic_paths() {
        assert_eq!(
            DpfError::IndexOutOfBounds {
                label: "gather index",
                index: -1,
                bound: 4
            }
            .to_string(),
            "gather index -1 out of bounds 4"
        );
        assert_eq!(
            DpfError::SingularMatrix { step: 3 }.to_string(),
            "singular matrix at step 3"
        );
        assert_eq!(
            DpfError::NotPowerOfTwo {
                what: "extent",
                n: 100
            }
            .to_string(),
            "FFT extent 100 is not a power of two"
        );
    }
}
