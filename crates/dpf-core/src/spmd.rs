//! The SPMD execution backend: per-processor worker threads, typed
//! message channels, and a resilient transport layer.
//!
//! The default [`Backend::Virtual`] computes every collective on the host
//! (rayon pool) and *models* the off-processor traffic analytically. Under
//! [`Backend::Spmd`] each collective in `dpf-comm` instead spawns one
//! worker thread per virtual processor, hands each worker only its own
//! block of every distributed array (per the [`Layout`] block extents) and
//! moves data between blocks over typed `mpsc` channels — so the bytes a
//! run reports are bytes that actually crossed a channel.
//!
//! This module is the machinery shared by every SPMD collective:
//!
//! * [`Backend`] — the enum threaded through `Ctx`, the suite harness and
//!   the `dpf --backend` CLI flag.
//! * [`LinkMeter`] — counts messages and payload bytes that crossed a
//!   channel between two *distinct* workers (self-sends are local), plus
//!   the transport-layer traffic (retransmissions, acks/nacks, injected
//!   link faults) that the paper's communication model does **not** count.
//! * [`TransportCfg`] / [`Transport`] — the transport configuration
//!   (link-fault rate, retry budget, timeouts, buffer caps) and the
//!   meter+config pair every collective passes to [`run_workers`].
//! * [`SpmdBarrier`] — a reusable generation-counted barrier; collectives
//!   reuse one barrier object across their communication rounds.
//! * [`Router`] — a worker's mailbox: senders to every peer plus a
//!   receiver with per-sender pending queues, so per-pair FIFO order
//!   holds even when rounds interleave on the shared channel.
//! * [`run_workers`] — spawns the worker set on scoped threads, supervises
//!   them (a panicked worker is recorded and its peers are released with a
//!   typed [`DpfError::WorkerDied`]), joins them, and re-raises the most
//!   informative failure on the caller.
//!
//! # Reliable delivery over unreliable links
//!
//! When the [`FaultPlan`] arms link faults (`--link-faults RATE`), every
//! cross-worker frame consults a deterministic SplitMix64 hash of
//! `(seed, src, dst, seq, attempt)` and may be dropped, duplicated,
//! reordered, or corrupted *on the simulated wire*. The transport then
//! guarantees exactly-once, per-link FIFO delivery on top of the lossy
//! link: frames carry sequence numbers and a CRC32 header checksum,
//! receivers dedup/reassemble and send cumulative acks (plus nacks for
//! gaps and checksum rejects), and senders retransmit with exponential
//! backoff under a bounded retry budget. Because the decision function is
//! pure, the entire retransmission history — and therefore every
//! data-plane meter (messages, bytes, retransmissions, fault tallies,
//! dedup and CRC-reject counts) — is byte-reproducible from the fault
//! seed, independent of thread timing; only the ack/nack control-frame
//! counts vary with scheduling, since one cumulative ack covers however
//! many frames arrived before it flushed.
//! A frame whose budget is exhausted raises a typed
//! [`DpfError::LinkFailure`] that the suite harness turns into a
//! retry/quarantine decision rather than a hung run.
//!
//! # Deadlock diagnostics
//!
//! Blocking operations publish a [`WaitState`] and watch a global progress
//! counter. If every live worker is blocked and the counter stays flat for
//! [`TransportCfg::stall_timeout`], the first worker to notice dumps a
//! wait-for graph (who waits on whom, barrier generations, expected
//! sequence numbers, buffered-message counts, heartbeat ages), runs cycle
//! detection over it, and panics with a typed [`DpfError::Deadlock`]. A
//! hard per-wait timeout ([`TransportCfg::hard_timeout`]) remains as the
//! backstop of last resort.
//!
//! # In-run self-healing (`--recover in-run`)
//!
//! Under [`RecoverMode::InRun`] a worker death no longer aborts the
//! collective. Every collective is one *epoch*: at epoch entry — before
//! any communication — each worker serializes its mutable shard (the
//! [`ShardState`] of its work item) and pushes the snapshot, epoch-tagged
//! and CRC'd, to its buddy rank (`rank+1 mod p`) as recovery traffic.
//! Because the snapshot is taken before the first send of the epoch, the
//! set of p snapshots is a globally consistent cut by construction.
//!
//! When a worker dies (an injected `--kill-worker` entry or a non-typed
//! body panic), its driver registers a heal request instead of a hard
//! death; [`Router::check_deaths`] then parks every surviving worker at a
//! three-phase recovery rendezvous rather than panicking it:
//!
//! 1. **Quiesce** — all p drivers (the victim is represented by a freshly
//!    respawned thread) arrive at the recovery barrier, so every doomed
//!    in-flight frame is already sitting in some receiver's channel.
//! 2. **Rewind** — each driver drains its own channel (keeping replica
//!    frames, discarding doomed data/ack/nack traffic), resets its
//!    sequence/reassembly state, and restores its shard from the local
//!    epoch snapshot; rank 0 rolls the logical §1.5 meters back to the
//!    epoch mark and resets the collective barrier.
//! 3. **Rehydrate** — buddies forward the victims' replicas; each victim
//!    verifies the CRC (a mismatch is a typed
//!    [`DpfError::ReplicaCorrupt`] that falls back to harness restart)
//!    and restores its shard from the replica bytes.
//!
//! Then every worker re-runs the epoch body from the start. Sequence
//! numbers restart from zero, so the deterministic link-fault decisions
//! re-roll identically and the healed run's results *and* logical §1.5
//! meters are byte-identical to a clean run's. All recovery traffic
//! (replica pushes, rehydration forwards, respawns, rewound epochs) is
//! metered on dedicated [`LinkMeter`] counters, never on the logical
//! messages/bytes the paper's model counts.

// The transport legitimately reads the wall clock: retransmission
// timers (RTO backoff), heartbeat stall detection and hard-timeout
// deadlines are protocol state, not §1.5 busy/elapsed metering — that
// accounting stays centralized in `instr.rs`, which never sees these
// reads because transport time is wait time, metered as messages.
// dpf-lint: allow-file(untimed-clock, reason = "RTO/heartbeat/deadline protocol timers, not busy-elapsed metering; section 1.5 accounting stays in instr.rs")

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Condvar, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex as PlMutex;

use crate::fault::{splitmix64, DpfError, FaultPlan, LinkFaultKind, RecoverMode};

/// Backstop timeout for a single blocking receive or barrier wait; stall
/// detection normally diagnoses a deadlock long before this fires.
const DEFAULT_HARD_TIMEOUT: Duration = Duration::from_secs(60);
/// How long global progress must stay flat — with every live worker
/// blocked — before a deadlock is diagnosed.
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Base retransmission timeout; attempt `k` backs off to `rto << k`.
const DEFAULT_RTO: Duration = Duration::from_millis(40);
/// Ceiling on the exponential retransmission backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);
/// How long a blocked receiver sleeps on its channel per service slice.
const SERVICE_SLICE: Duration = Duration::from_millis(25);
/// On the reliable path, a sender polls its channel (acks, nacks, peer
/// frames) every this-many sends so tight send loops can't starve the
/// protocol and overflow receiver-side reassembly windows.
const SEND_SERVICE_EVERY: u32 = 64;
/// XOR mask applied to a frame's checksum to simulate payload corruption.
const CRC_MANGLE: u32 = 0xA5A5_5A5A;
/// Poll slice while parked at the recovery rendezvous or in commit-wait.
const HEAL_SLICE: Duration = Duration::from_millis(2);
/// Default per-collective respawn budget under in-run recovery; a rank
/// that keeps dying past this budget hard-fails the collective so the
/// harness-level restart path takes over.
const DEFAULT_MAX_RESPAWNS: u32 = 8;

/// Which execution engine runs the communication primitives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Host-side reference implementation: collectives compute on the
    /// shared-memory rayon pool and communication volume is modeled
    /// analytically from the block layouts.
    #[default]
    Virtual,
    /// Message-passing implementation: one worker thread per virtual
    /// processor, each restricted to its own blocks, exchanging data over
    /// typed channels.
    Spmd,
}

impl Backend {
    /// True for [`Backend::Spmd`].
    #[inline]
    pub const fn is_spmd(self) -> bool {
        matches!(self, Backend::Spmd)
    }

    /// The CLI spelling of the backend.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Virtual => "virtual",
            Backend::Spmd => "spmd",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "virtual" => Ok(Backend::Virtual),
            "spmd" => Ok(Backend::Spmd),
            other => Err(format!("unknown backend {other:?} (virtual|spmd)")),
        }
    }
}

/// Counts the traffic that actually crossed a channel between two distinct
/// workers. The *logical* counters (`messages`, `payload_bytes`) count each
/// application-level message exactly once — this is the quantity compared
/// against the paper's communication model and it is unchanged by link
/// faults. The *transport* counters (retransmissions, acks, nacks, injected
/// faults, discarded duplicates, checksum rejects) account for the extra
/// wire traffic the reliability protocol generates; all but the ack/nack
/// control-frame counts are deterministic for a given fault seed, and all
/// are excluded from the paper-model comparison.
/// Self-sends are delivered through the same channels for uniform worker
/// code but are not communication, so they are not counted anywhere.
#[derive(Debug, Default)]
pub struct LinkMeter {
    messages: AtomicU64,
    payload_bytes: AtomicU64,
    retransmits: AtomicU64,
    retransmitted_bytes: AtomicU64,
    acks: AtomicU64,
    nacks: AtomicU64,
    faults_dropped: AtomicU64,
    faults_duplicated: AtomicU64,
    faults_reordered: AtomicU64,
    faults_corrupted: AtomicU64,
    duplicates_discarded: AtomicU64,
    crc_rejects: AtomicU64,
    collectives: AtomicU64,
    replicas_pushed: AtomicU64,
    replica_bytes: AtomicU64,
    rehydrations: AtomicU64,
    rehydrate_bytes: AtomicU64,
    respawns: AtomicU64,
    epochs_rewound: AtomicU64,
}

impl LinkMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        LinkMeter::default()
    }

    /// Record one cross-worker message carrying `bytes` of payload.
    #[inline]
    pub fn record(&self, bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Messages that crossed a channel between distinct workers, counting
    /// each logical message once (retransmissions excluded).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes that crossed a channel between distinct workers,
    /// counting each logical message once (retransmissions excluded).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_retransmit(&self, bytes: u64) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
        self.retransmitted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn note_ack(&self) {
        self.acks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_nack(&self) {
        self.nacks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_fault(&self, kind: LinkFaultKind) {
        let ctr = match kind {
            LinkFaultKind::Drop => &self.faults_dropped,
            LinkFaultKind::Duplicate => &self.faults_duplicated,
            LinkFaultKind::Reorder => &self.faults_reordered,
            LinkFaultKind::Corrupt => &self.faults_corrupted,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_duplicate_discarded(&self) {
        self.duplicates_discarded.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_crc_reject(&self) {
        self.crc_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Retransmission attempts performed by all senders (each attempt
    /// counts, whether or not the simulated link lost it again).
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Payload bytes pushed by retransmission attempts. These bytes show
    /// up here — and only here — never in [`LinkMeter::payload_bytes`],
    /// so the paper's comm-count model stays fault-invariant.
    pub fn retransmitted_bytes(&self) -> u64 {
        self.retransmitted_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative acknowledgements sent by receivers (reliable mode only).
    pub fn acks(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Nacks sent by receivers for sequence gaps and checksum rejects.
    pub fn nacks(&self) -> u64 {
        self.nacks.load(Ordering::Relaxed)
    }

    /// Total injected link faults of every kind.
    pub fn link_faults(&self) -> u64 {
        self.faults_dropped.load(Ordering::Relaxed)
            + self.faults_duplicated.load(Ordering::Relaxed)
            + self.faults_reordered.load(Ordering::Relaxed)
            + self.faults_corrupted.load(Ordering::Relaxed)
    }

    /// Injected frame drops.
    pub fn faults_dropped(&self) -> u64 {
        self.faults_dropped.load(Ordering::Relaxed)
    }

    /// Injected frame duplications.
    pub fn faults_duplicated(&self) -> u64 {
        self.faults_duplicated.load(Ordering::Relaxed)
    }

    /// Injected frame reorderings.
    pub fn faults_reordered(&self) -> u64 {
        self.faults_reordered.load(Ordering::Relaxed)
    }

    /// Injected frame corruptions (detected via checksum at the receiver).
    pub fn faults_corrupted(&self) -> u64 {
        self.faults_corrupted.load(Ordering::Relaxed)
    }

    /// Frames a receiver discarded as duplicates of already-delivered or
    /// already-buffered sequence numbers.
    pub fn duplicates_discarded(&self) -> u64 {
        self.duplicates_discarded.load(Ordering::Relaxed)
    }

    /// Frames a receiver rejected because the checksum did not verify.
    pub fn crc_rejects(&self) -> u64 {
        self.crc_rejects.load(Ordering::Relaxed)
    }

    /// Collectives (i.e. [`run_workers`] invocations) metered so far.
    pub fn collectives(&self) -> u64 {
        self.collectives.load(Ordering::Relaxed)
    }

    /// Claim the next collective index (0-based, monotone per meter).
    fn begin_collective(&self) -> u64 {
        self.collectives.fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    fn note_replica_push(&self, bytes: u64) {
        self.replicas_pushed.fetch_add(1, Ordering::Relaxed);
        self.replica_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn note_rehydration(&self, bytes: u64) {
        self.rehydrations.fetch_add(1, Ordering::Relaxed);
        self.rehydrate_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn note_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_epoch_rewound(&self) {
        self.epochs_rewound.fetch_add(1, Ordering::Relaxed);
    }

    /// Roll the logical counters back to an epoch mark. Only called by
    /// rank 0's driver during a recovery rewind, while every other driver
    /// is parked at the recovery barrier (so no concurrent `record`).
    fn rollback_logical(&self, mark: (u64, u64)) {
        self.messages.store(mark.0, Ordering::Relaxed);
        self.payload_bytes.store(mark.1, Ordering::Relaxed);
    }

    /// Epoch-start shard snapshots pushed to buddy ranks (recovery
    /// traffic — never counted as logical §1.5 messages).
    pub fn replicas_pushed(&self) -> u64 {
        self.replicas_pushed.load(Ordering::Relaxed)
    }

    /// Bytes of epoch-start shard snapshots pushed to buddy ranks.
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes.load(Ordering::Relaxed)
    }

    /// Replica forwards performed to rehydrate respawned workers.
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations.load(Ordering::Relaxed)
    }

    /// Bytes forwarded to rehydrate respawned workers.
    pub fn rehydrate_bytes(&self) -> u64 {
        self.rehydrate_bytes.load(Ordering::Relaxed)
    }

    /// Worker threads respawned in-run after a death.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Recovery rounds that rewound an epoch to its consistent snapshot.
    pub fn epochs_rewound(&self) -> u64 {
        self.epochs_rewound.load(Ordering::Relaxed)
    }
}

/// Transport configuration for one SPMD context: link-fault model, retry
/// budget, timeouts, and receiver-side buffer caps. Built from a
/// [`FaultPlan`] via [`TransportCfg::from_plan`]; the default is a clean,
/// reliable in-process link with diagnostics-only supervision.
#[derive(Clone, Debug)]
pub struct TransportCfg {
    /// Per-transmission probability of injecting a link fault.
    pub link_rate: f64,
    /// Seed for the deterministic per-frame fault decisions.
    pub link_seed: u64,
    /// Which fault kinds the injector may choose from.
    pub link_kinds: Vec<LinkFaultKind>,
    /// Retransmissions allowed per frame beyond the first transmission
    /// before the sender raises [`DpfError::LinkFailure`].
    pub max_retransmits: u32,
    /// Base retransmission timeout (exponential backoff multiplies it).
    pub rto: Duration,
    /// Flat-progress window after which a fully-blocked worker set is
    /// diagnosed as deadlocked.
    pub stall_timeout: Duration,
    /// Backstop timeout for one blocking receive or barrier wait.
    pub hard_timeout: Duration,
    /// Max delivered-but-undrained messages buffered per peer before the
    /// receiver raises [`DpfError::LinkBackpressure`].
    pub pending_cap: usize,
    /// Max out-of-order frames buffered per peer awaiting reassembly
    /// before the receiver raises [`DpfError::LinkBackpressure`].
    pub reassembly_cap: usize,
    /// Kill schedule: each `(rank, collective)` entry kills worker `rank`
    /// at the start of collective `collective` (0-based), exercising
    /// supervision and — under [`RecoverMode::InRun`] — in-run healing.
    pub kill_workers: Vec<(usize, u64)>,
    /// What a worker death does to the collective (heal in-run, abort for
    /// harness restart, or abort without retry).
    pub recover: RecoverMode,
    /// Respawns allowed per worker per collective under in-run recovery
    /// before the death hard-fails the collective.
    pub max_respawns: u32,
    /// Test-only chaos knob: mangle the CRC of every pushed shard replica
    /// so rehydration is forced onto the corrupt-replica fallback path.
    pub replica_corrupt: bool,
}

impl Default for TransportCfg {
    fn default() -> Self {
        TransportCfg {
            link_rate: 0.0,
            link_seed: 0,
            link_kinds: LinkFaultKind::ALL.to_vec(),
            max_retransmits: 6,
            rto: DEFAULT_RTO,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            hard_timeout: DEFAULT_HARD_TIMEOUT,
            pending_cap: 1 << 16,
            reassembly_cap: 4096,
            kill_workers: Vec::new(),
            recover: RecoverMode::default(),
            max_respawns: DEFAULT_MAX_RESPAWNS,
            replica_corrupt: false,
        }
    }
}

impl TransportCfg {
    /// Derive the transport configuration from a fault plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        TransportCfg {
            link_rate: plan.link_rate,
            link_seed: plan.seed,
            link_kinds: plan.link_kinds.clone(),
            max_retransmits: plan.max_retransmits,
            kill_workers: plan.kill_workers.clone(),
            recover: plan.recover,
            replica_corrupt: plan.replica_corrupt,
            ..TransportCfg::default()
        }
    }

    /// True when the link-fault injector is armed.
    pub fn link_active(&self) -> bool {
        self.link_rate > 0.0 && !self.link_kinds.is_empty()
    }

    /// True when the ack/retransmit protocol runs. The in-process channel
    /// is lossless, so the protocol (and its bookkeeping cost) is engaged
    /// only when faults are being injected on the simulated wire.
    pub fn reliable(&self) -> bool {
        self.link_active()
    }
}

/// The meter+configuration pair a collective hands to [`run_workers`].
#[derive(Clone, Copy)]
pub struct Transport<'a> {
    meter: &'a LinkMeter,
    cfg: &'a TransportCfg,
}

static CLEAN_CFG: OnceLock<TransportCfg> = OnceLock::new();

impl<'a> Transport<'a> {
    /// A transport with an explicit configuration.
    pub fn new(meter: &'a LinkMeter, cfg: &'a TransportCfg) -> Self {
        Transport { meter, cfg }
    }

    /// A clean (fault-free, default-configured) transport over `meter`.
    pub fn clean(meter: &'a LinkMeter) -> Self {
        Transport {
            meter,
            cfg: CLEAN_CFG.get_or_init(TransportCfg::default),
        }
    }

    /// The meter this transport records into.
    pub fn meter(&self) -> &'a LinkMeter {
        self.meter
    }

    /// The transport configuration.
    pub fn cfg(&self) -> &'a TransportCfg {
        self.cfg
    }
}

/// Bit-serial CRC32 (IEEE 802.3 polynomial, reflected) — the checksum of
/// link frames, shard replicas and campaign journal lines.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Checksum over a frame's identifying header: source, destination,
/// sequence number, payload length. Corruption is simulated by mangling
/// this checksum, which the receiver detects exactly like a payload
/// bit-flip under an end-to-end checksum.
fn header_crc(src: usize, dst: usize, seq: u64, payload_bytes: u64) -> u32 {
    let mut buf = [0u8; 32];
    buf[0..8].copy_from_slice(&(src as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&(dst as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&seq.to_le_bytes());
    buf[24..32].copy_from_slice(&payload_bytes.to_le_bytes());
    crc32(&buf)
}

/// The deterministic per-transmission fault decision: a pure function of
/// `(seed, src, dst, seq, attempt)`, so every run with the same fault seed
/// sees the identical loss pattern regardless of thread timing. Repair
/// transmissions (`attempt > 0`) only re-roll Drop/Corrupt: duplicating or
/// reordering a retransmission adds nothing the first-attempt model
/// doesn't already cover, and mapping those rolls to clean delivery keeps
/// the retry budget meaningful.
fn link_decide(
    cfg: &TransportCfg,
    src: usize,
    dst: usize,
    seq: u64,
    attempt: u32,
) -> Option<LinkFaultKind> {
    if src == dst || !cfg.link_active() {
        return None;
    }
    let mut h = splitmix64(cfg.link_seed ^ 0xA076_1D64_78BD_642F);
    h = splitmix64(h ^ ((src as u64) << 32) ^ dst as u64);
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ attempt as u64);
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if unit >= cfg.link_rate {
        return None;
    }
    let pick = (splitmix64(h) % cfg.link_kinds.len() as u64) as usize;
    let kind = cfg.link_kinds[pick];
    if attempt > 0 && matches!(kind, LinkFaultKind::Duplicate | LinkFaultKind::Reorder) {
        return None;
    }
    Some(kind)
}

/// Exponential backoff for retransmission attempt `attempt` (0-based).
fn backoff(rto: Duration, attempt: u32) -> Duration {
    let mult = 1u32 << attempt.min(6);
    (rto * mult).min(BACKOFF_CAP)
}

/// A sequence-numbered, checksummed data frame.
#[derive(Clone)]
struct Envelope<M> {
    seq: u64,
    payload_bytes: u64,
    crc: u32,
    msg: M,
}

/// What travels on a channel: data frames plus the ack/nack control plane.
/// Control frames ride the same (lossless) channel but are never metered
/// as logical messages and are never themselves subjected to link faults.
enum Frame<M> {
    Data(Envelope<M>),
    Ack {
        upto: u64,
    },
    Nack {
        seq: u64,
    },
    /// A shard snapshot on the recovery channel: the epoch-start replica a
    /// worker pushes to its buddy, and the same bytes forwarded back to a
    /// respawned victim during rehydration. Metered on the recovery
    /// counters only, never as a logical message, and never subjected to
    /// link faults (recovery must not depend on the wire under test).
    Replica {
        epoch: u64,
        owner: usize,
        crc: u32,
        data: Vec<u8>,
    },
}

/// A buddy-held shard snapshot, keyed by owner rank in the receiver's
/// replica store.
#[derive(Clone)]
struct ReplicaEntry {
    epoch: u64,
    crc: u32,
    data: Vec<u8>,
}

/// Sender-side retransmission state for one in-flight frame.
struct TxEntry<M> {
    seq: u64,
    payload_bytes: u64,
    msg: M,
    /// Transmissions performed so far (the initial send counts as one).
    attempts: u32,
    /// True when the latest transmission was lost (dropped/corrupted) and
    /// a repair is owed.
    victim: bool,
    retry_at: Instant,
}

/// Sender-side state for one outgoing link.
struct TxLink<M> {
    next_seq: u64,
    /// In-flight frames in sequence order, trimmed by cumulative acks.
    unacked: VecDeque<TxEntry<M>>,
    /// A frame held back by a Reorder fault; released after the next send
    /// on this link (so it arrives swapped) or at any blocking operation.
    held: Option<Envelope<M>>,
}

impl<M> TxLink<M> {
    fn new() -> Self {
        TxLink {
            next_seq: 0,
            unacked: VecDeque::new(),
            held: None,
        }
    }
}

/// Receiver-side state for one incoming link.
struct RxLink<M> {
    /// Next in-order sequence number expected from this peer.
    expected: u64,
    /// Out-of-order frames awaiting reassembly, keyed by sequence number.
    reorder: BTreeMap<u64, Envelope<M>>,
    /// A gap nack has been sent for the current `expected` value.
    nacked: bool,
}

impl<M> RxLink<M> {
    fn new() -> Self {
        RxLink {
            expected: 0,
            reorder: BTreeMap::new(),
            nacked: false,
        }
    }
}

/// What a blocked worker is waiting on, published for the stall detector.
#[derive(Clone, Copy, Debug)]
enum WaitState {
    Recv {
        peer: usize,
        expected: u64,
        reordered: usize,
        buffered: usize,
    },
    Barrier {
        generation: u64,
    },
}

/// Shared supervision state for one worker set: a global progress counter
/// (the stall detector's signal), retirement/death accounting, per-worker
/// heartbeats and published wait states.
struct Supervision {
    start: Instant,
    progress: AtomicU64,
    retired: AtomicUsize,
    dead: AtomicUsize,
    deaths: PlMutex<Vec<(usize, String)>>,
    done: Vec<AtomicBool>,
    heartbeats: Vec<AtomicU64>,
    waits: Vec<PlMutex<Option<WaitState>>>,
    diagnosed: AtomicBool,
    /// In-run healing engaged for this collective (`--recover in-run`
    /// with more than one worker).
    heal_armed: bool,
    /// Victims registered for the current recovery round and not yet
    /// rehydrated; nonzero turns every blocking operation's death check
    /// into a park-at-the-recovery-barrier instead of a hard abort.
    heal_pending: AtomicUsize,
    /// Ranks awaiting respawn+rehydration in the current round.
    heal_victims: PlMutex<Vec<usize>>,
    /// Drivers that completed the epoch body in the current attempt; the
    /// epoch commits — finally — once all `n` have (no victim can appear
    /// after that, since a victim never completes the body).
    heal_committed: AtomicUsize,
    /// The three-phase recovery rendezvous barrier (quiesce → rewind →
    /// rehydrate), reused across rounds.
    heal_bar: SpmdBarrier,
}

impl Supervision {
    fn new(n: usize, heal_armed: bool) -> Self {
        Supervision {
            start: Instant::now(),
            progress: AtomicU64::new(0),
            retired: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            deaths: PlMutex::new(Vec::new()),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            waits: (0..n).map(|_| PlMutex::new(None)).collect(),
            diagnosed: AtomicBool::new(false),
            heal_armed,
            heal_pending: AtomicUsize::new(0),
            heal_victims: PlMutex::new(Vec::new()),
            heal_committed: AtomicUsize::new(0),
            heal_bar: SpmdBarrier::new(n),
        }
    }

    #[inline]
    fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn heartbeat(&self, rank: usize) {
        self.heartbeats[rank].store(self.now_ms(), Ordering::Relaxed);
    }

    fn retire(&self, rank: usize) {
        self.done[rank].store(true, Ordering::Release);
        self.retired.fetch_add(1, Ordering::AcqRel);
        self.bump();
    }

    /// Record a worker death. `count_retirement` is false when the worker
    /// already retired (it died during teardown linger) so the retirement
    /// counter is not double-bumped.
    fn record_death(&self, rank: usize, msg: String, count_retirement: bool) {
        self.deaths.lock().push((rank, msg));
        self.done[rank].store(true, Ordering::Release);
        if count_retirement {
            self.retired.fetch_add(1, Ordering::AcqRel);
        }
        self.dead.fetch_add(1, Ordering::AcqRel);
        self.bump();
    }

    /// Register a healable death: the rank joins the current recovery
    /// round's victim set instead of the hard-death registry, and blocked
    /// peers park at the recovery barrier instead of aborting.
    fn record_heal(&self, rank: usize) {
        self.heal_victims.lock().push(rank);
        self.heal_pending.fetch_add(1, Ordering::AcqRel);
        self.bump();
    }

    /// First hard death on record, if any.
    fn first_dead(&self) -> Option<usize> {
        self.deaths.lock().first().map(|&(rank, _)| rank)
    }
}

/// Panic payload used to unwind a surviving worker out of its collective
/// body and into the recovery rendezvous when a peer's death is healable.
/// Never escapes [`run_workers`]: the driver catches it and re-enters the
/// epoch loop after the rewind.
struct HealRewind;

/// Snapshot of the progress counter used by blocking loops to decide when
/// the system has stalled.
struct StallWatch {
    last: u64,
    since: Instant,
}

impl StallWatch {
    fn new(sup: &Supervision) -> Self {
        StallWatch {
            last: sup.progress.load(Ordering::Relaxed),
            since: Instant::now(),
        }
    }
}

/// A reusable barrier for `n` workers: generation-counted, so the same
/// object serves every round of a collective. [`Router::barrier`] waits in
/// slices so it can keep servicing the transport; the standalone
/// [`SpmdBarrier::wait`] remains for barrier-only users and panics with a
/// generation/arrival diagnosis instead of hanging.
pub struct SpmdBarrier {
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    n: usize,
}

impl SpmdBarrier {
    /// Barrier for `n` workers.
    pub fn new(n: usize) -> Self {
        SpmdBarrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            n,
        }
    }

    /// Arrive at the barrier. Returns `None` when this arrival released
    /// the generation (the caller proceeds immediately), otherwise the
    /// generation to [`SpmdBarrier::poll`] for.
    pub fn arrive(&self) -> Option<u64> {
        let mut state = self.state.lock().expect("spmd barrier poisoned");
        let gen = state.1;
        state.0 += 1;
        if state.0 == self.n {
            state.0 = 0;
            state.1 += 1;
            self.cv.notify_all();
            None
        } else {
            Some(gen)
        }
    }

    /// Wait up to `timeout` for generation `gen` to be released. Returns
    /// true once the barrier has advanced past `gen`.
    pub fn poll(&self, gen: u64, timeout: Duration) -> bool {
        let state = self.state.lock().expect("spmd barrier poisoned");
        if state.1 != gen {
            return true;
        }
        let (state, _) = self
            .cv
            .wait_timeout(state, timeout)
            .expect("spmd barrier poisoned");
        state.1 != gen
    }

    /// The current generation (completed barrier rounds).
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("spmd barrier poisoned").1
    }

    /// Workers arrived at the current generation so far.
    pub fn arrived(&self) -> usize {
        self.state.lock().expect("spmd barrier poisoned").0
    }

    /// Discard partial arrivals at the current generation (recovery
    /// rewind: every worker re-runs the epoch body, so any arrivals from
    /// the doomed attempt must be forgotten). The generation counter is
    /// left alone — `arrive`/`poll` are relative to whatever generation
    /// they observe, so rewound workers synchronize correctly from any
    /// starting generation. Only called while every worker is parked at
    /// the recovery barrier.
    fn reset_arrivals(&self) {
        self.state.lock().expect("spmd barrier poisoned").0 = 0;
    }

    /// Block until all `n` workers have arrived at this generation.
    pub fn wait(&self) {
        let Some(gen) = self.arrive() else { return };
        let deadline = Instant::now() + DEFAULT_HARD_TIMEOUT;
        loop {
            if self.poll(gen, Duration::from_millis(50)) {
                return;
            }
            if Instant::now() >= deadline {
                panic!(
                    "spmd barrier timed out after {DEFAULT_HARD_TIMEOUT:?} at generation {gen} \
                     ({}/{} workers arrived; deadlock suspected)",
                    self.arrived(),
                    self.n
                );
            }
        }
    }
}

/// A worker's communication endpoint: senders to every rank (self
/// included, so collective code stays uniform) and the worker's receiver.
/// Incoming frames are tagged with the sender rank, verified, deduped and
/// reassembled into per-sender pending queues, preserving exactly-once
/// per-pair FIFO order even under injected link faults.
pub struct Router<'a, M> {
    rank: usize,
    txs: Vec<Sender<(usize, Frame<M>)>>,
    rx: Receiver<(usize, Frame<M>)>,
    pending: Vec<VecDeque<M>>,
    tx_links: Vec<TxLink<M>>,
    rx_links: Vec<RxLink<M>>,
    ops_since_service: u32,
    meter: &'a LinkMeter,
    cfg: &'a TransportCfg,
    barrier: &'a SpmdBarrier,
    sup: &'a Supervision,
    /// Buddy-held shard snapshots keyed by owner rank. Survives recovery
    /// rewinds (it is the recovery state) and dies with the Router at the
    /// end of the collective.
    replica_store: Vec<Option<ReplicaEntry>>,
}

impl<M: Send + Clone> Router<'_, M> {
    /// This worker's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total worker count.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.txs.len()
    }

    /// Send `msg` to worker `to`, metering `payload_bytes` when the
    /// message crosses between distinct workers. Sends never block
    /// (unbounded channels); under an armed link-fault plan the frame may
    /// be dropped, duplicated, reordered or corrupted on the simulated
    /// wire, and the reliability protocol repairs it transparently.
    pub fn send(&mut self, to: usize, payload_bytes: u64, msg: M) {
        let local = to == self.rank;
        if !local {
            self.meter.record(payload_bytes);
        }
        if local || !self.cfg.reliable() {
            // Lossless fast path: no checksum, no retransmission state.
            let seq = self.tx_links[to].next_seq;
            self.tx_links[to].next_seq += 1;
            self.transmit(
                to,
                Envelope {
                    seq,
                    payload_bytes,
                    crc: 0,
                    msg,
                },
            );
            return;
        }
        // Service the control plane periodically so a tight send loop
        // can't starve acks/nacks and overflow peer reassembly windows.
        self.ops_since_service += 1;
        if self.ops_since_service >= SEND_SERVICE_EVERY {
            self.ops_since_service = 0;
            self.service(None);
            self.run_sender_timers();
        }
        let seq = self.tx_links[to].next_seq;
        self.tx_links[to].next_seq += 1;
        let crc = header_crc(self.rank, to, seq, payload_bytes);
        self.tx_links[to].unacked.push_back(TxEntry {
            seq,
            payload_bytes,
            msg: msg.clone(),
            attempts: 1,
            victim: false,
            retry_at: Instant::now() + self.cfg.rto,
        });
        let idx = self.tx_links[to].unacked.len() - 1;
        let env = Envelope {
            seq,
            payload_bytes,
            crc,
            msg,
        };
        match link_decide(self.cfg, self.rank, to, seq, 0) {
            None => {
                self.transmit(to, env);
                self.flush_held(to);
            }
            Some(LinkFaultKind::Drop) => {
                self.meter.note_fault(LinkFaultKind::Drop);
                self.flush_held(to);
                self.owe_repair(to, idx, 0);
            }
            Some(LinkFaultKind::Corrupt) => {
                self.meter.note_fault(LinkFaultKind::Corrupt);
                self.transmit(
                    to,
                    Envelope {
                        crc: env.crc ^ CRC_MANGLE,
                        ..env
                    },
                );
                self.flush_held(to);
                self.owe_repair(to, idx, 0);
            }
            Some(LinkFaultKind::Duplicate) => {
                self.meter.note_fault(LinkFaultKind::Duplicate);
                self.transmit(to, env.clone());
                self.transmit(to, env);
                self.flush_held(to);
            }
            Some(LinkFaultKind::Reorder) => {
                self.meter.note_fault(LinkFaultKind::Reorder);
                // Release any previously held frame, then hold this one
                // until the next send on this link (or a blocking op).
                self.flush_held(to);
                self.tx_links[to].held = Some(env);
            }
        }
    }

    /// Receive the next message from worker `from`, buffering messages
    /// from other senders. While blocked the worker keeps servicing the
    /// transport (acks, nacks, retransmission timers), publishes its wait
    /// state for the stall detector, and aborts with a diagnosis instead
    /// of hanging.
    pub fn recv_from(&mut self, from: usize) -> M {
        if let Some(m) = self.pending[from].pop_front() {
            self.sup.bump();
            return m;
        }
        self.heartbeat();
        self.flush_all_held();
        let deadline = Instant::now() + self.cfg.hard_timeout;
        let mut watch = StallWatch::new(self.sup);
        loop {
            self.service(None);
            if let Some(m) = self.pending[from].pop_front() {
                self.clear_wait();
                self.heartbeat();
                self.sup.bump();
                return m;
            }
            self.check_deaths();
            self.run_sender_timers();
            self.publish_wait(WaitState::Recv {
                peer: from,
                expected: self.rx_links[from].expected,
                reordered: self.rx_links[from].reorder.len(),
                buffered: self.pending.iter().map(VecDeque::len).sum(),
            });
            self.service(Some(SERVICE_SLICE));
            self.stall_check(&mut watch);
            if Instant::now() >= deadline {
                self.clear_wait();
                let hb = self
                    .sup
                    .now_ms()
                    .saturating_sub(self.sup.heartbeats[from].load(Ordering::Relaxed));
                panic!(
                    "spmd worker {} timed out after {:?} waiting for worker {from} \
                     (expected seq {}, {} reordered frame(s) held, {} message(s) buffered \
                     across peers, peer heartbeat {hb}ms ago; deadlock suspected)",
                    self.rank,
                    self.cfg.hard_timeout,
                    self.rx_links[from].expected,
                    self.rx_links[from].reorder.len(),
                    self.pending.iter().map(VecDeque::len).sum::<usize>(),
                );
            }
        }
    }

    /// Wait on the collective's reusable barrier, servicing the transport
    /// and watching for stalls while blocked.
    pub fn barrier(&mut self) {
        self.heartbeat();
        self.flush_all_held();
        let Some(gen) = self.barrier.arrive() else {
            self.sup.bump();
            return;
        };
        let deadline = Instant::now() + self.cfg.hard_timeout;
        let mut watch = StallWatch::new(self.sup);
        loop {
            if self.barrier.poll(gen, Duration::from_millis(5)) {
                self.clear_wait();
                self.sup.bump();
                return;
            }
            self.check_deaths();
            self.service(None);
            self.run_sender_timers();
            self.publish_wait(WaitState::Barrier { generation: gen });
            self.stall_check(&mut watch);
            if Instant::now() >= deadline {
                self.clear_wait();
                panic!(
                    "spmd worker {} timed out after {:?} at barrier generation {gen} \
                     ({}/{} workers arrived; deadlock suspected)",
                    self.rank,
                    self.cfg.hard_timeout,
                    self.barrier.arrived(),
                    self.nprocs(),
                );
            }
        }
    }

    #[inline]
    fn heartbeat(&self) {
        self.sup.heartbeat(self.rank);
    }

    fn publish_wait(&self, w: WaitState) {
        *self.sup.waits[self.rank].lock() = Some(w);
    }

    fn clear_wait(&self) {
        *self.sup.waits[self.rank].lock() = None;
    }

    /// Release this worker from its blocking loop when a peer has died:
    /// a hard death aborts with a typed [`DpfError::WorkerDied`]; a
    /// healable death (in-run recovery armed) unwinds with the private
    /// [`HealRewind`] marker, which the driver catches to park this
    /// worker at the recovery rendezvous instead of failing the run.
    fn check_deaths(&self) {
        if self.sup.dead.load(Ordering::Acquire) > 0 {
            if let Some(worker) = self.sup.first_dead() {
                self.clear_wait();
                std::panic::panic_any(DpfError::WorkerDied {
                    worker,
                    waiter: self.rank,
                });
            }
        }
        if self.sup.heal_armed && self.sup.heal_pending.load(Ordering::Acquire) > 0 {
            self.clear_wait();
            std::panic::panic_any(HealRewind);
        }
    }

    /// Put a frame on the wire. A send error means the peer's receiver is
    /// gone: diagnose it as a death if one is recorded, else panic.
    fn transmit(&self, to: usize, env: Envelope<M>) {
        if self.txs[to].send((self.rank, Frame::Data(env))).is_err() {
            self.check_deaths();
            panic!("spmd worker {}: peer worker {to} hung up", self.rank);
        }
    }

    /// Send a control frame; losing one to a dead peer is harmless (the
    /// death path releases everyone), so errors are ignored.
    fn send_ctl(&self, to: usize, frame: Frame<M>) {
        let _ = self.txs[to].send((self.rank, frame));
    }

    fn flush_held(&mut self, to: usize) {
        if let Some(env) = self.tx_links[to].held.take() {
            self.transmit(to, env);
        }
    }

    fn flush_all_held(&mut self) {
        for to in 0..self.txs.len() {
            self.flush_held(to);
        }
    }

    /// Mark in-flight entry `idx` on link `to` as owing a repair after its
    /// transmission attempt `attempt` was lost, failing the link with a
    /// typed error once the retry budget is exhausted.
    fn owe_repair(&mut self, to: usize, idx: usize, attempt: u32) {
        if attempt >= self.cfg.max_retransmits {
            let seq = self.tx_links[to].unacked[idx].seq;
            self.clear_wait();
            std::panic::panic_any(DpfError::LinkFailure {
                src: self.rank,
                dst: to,
                seq,
                attempts: attempt + 1,
            });
        }
        let e = &mut self.tx_links[to].unacked[idx];
        e.victim = true;
        e.retry_at = Instant::now() + backoff(self.cfg.rto, attempt);
    }

    /// Retransmit in-flight entry `idx` on link `to`, consuming one
    /// transmission attempt and re-rolling the fault decision.
    fn retransmit(&mut self, to: usize, idx: usize) {
        let (seq, payload_bytes, attempt, msg) = {
            let e = &mut self.tx_links[to].unacked[idx];
            let attempt = e.attempts;
            e.attempts += 1;
            (e.seq, e.payload_bytes, attempt, e.msg.clone())
        };
        self.meter.note_retransmit(payload_bytes);
        match link_decide(self.cfg, self.rank, to, seq, attempt) {
            Some(LinkFaultKind::Drop) => {
                self.meter.note_fault(LinkFaultKind::Drop);
                self.owe_repair(to, idx, attempt);
            }
            Some(LinkFaultKind::Corrupt) => {
                self.meter.note_fault(LinkFaultKind::Corrupt);
                self.transmit(
                    to,
                    Envelope {
                        seq,
                        payload_bytes,
                        crc: header_crc(self.rank, to, seq, payload_bytes) ^ CRC_MANGLE,
                        msg,
                    },
                );
                self.owe_repair(to, idx, attempt);
            }
            _ => {
                self.tx_links[to].unacked[idx].victim = false;
                self.transmit(
                    to,
                    Envelope {
                        seq,
                        payload_bytes,
                        crc: header_crc(self.rank, to, seq, payload_bytes),
                        msg,
                    },
                );
            }
        }
    }

    /// Retransmit every owed repair whose backoff deadline has passed.
    fn run_sender_timers(&mut self) {
        if !self.cfg.reliable() {
            return;
        }
        let now = Instant::now();
        for to in 0..self.txs.len() {
            if to == self.rank {
                continue;
            }
            let mut idx = 0;
            while idx < self.tx_links[to].unacked.len() {
                let e = &self.tx_links[to].unacked[idx];
                if e.victim && e.retry_at <= now {
                    self.retransmit(to, idx);
                }
                idx += 1;
            }
        }
    }

    /// Drain the channel; with `block` set, sleep up to that long for one
    /// more frame if the drain came up empty.
    fn service(&mut self, block: Option<Duration>) {
        let mut got_any = false;
        loop {
            match self.rx.try_recv() {
                Ok(item) => {
                    got_any = true;
                    self.dispatch(item);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.channel_down(),
            }
        }
        if !got_any {
            if let Some(timeout) = block {
                match self.rx.recv_timeout(timeout) {
                    Ok(item) => self.dispatch(item),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => self.channel_down(),
                }
            }
        }
    }

    fn channel_down(&self) {
        self.check_deaths();
        panic!("spmd worker {}: all peers hung up", self.rank);
    }

    fn dispatch(&mut self, (sender, frame): (usize, Frame<M>)) {
        match frame {
            Frame::Data(env) => self.accept(sender, env),
            Frame::Ack { upto } => {
                let link = &mut self.tx_links[sender];
                while link.unacked.front().is_some_and(|e| e.seq <= upto) {
                    link.unacked.pop_front();
                }
            }
            Frame::Nack { seq } => self.on_nack(sender, seq),
            Frame::Replica {
                epoch,
                owner,
                crc,
                data,
            } => {
                self.replica_store[owner] = Some(ReplicaEntry { epoch, crc, data });
            }
        }
    }

    /// Verify, dedup and reassemble an incoming data frame, delivering
    /// in-order messages to the per-sender pending queue.
    fn accept(&mut self, src: usize, env: Envelope<M>) {
        if src == self.rank {
            self.deliver(src, env.msg);
            return;
        }
        let reliable = self.cfg.reliable();
        if reliable && env.crc != header_crc(src, self.rank, env.seq, env.payload_bytes) {
            self.meter.note_crc_reject();
            self.meter.note_nack();
            self.send_ctl(src, Frame::Nack { seq: env.seq });
            return;
        }
        let expected = self.rx_links[src].expected;
        if env.seq < expected || self.rx_links[src].reorder.contains_key(&env.seq) {
            self.meter.note_duplicate_discarded();
            if reliable && expected > 0 {
                // Re-ack so a sender retransmitting an already-delivered
                // frame trims its in-flight window.
                self.meter.note_ack();
                self.send_ctl(src, Frame::Ack { upto: expected - 1 });
            }
            return;
        }
        if env.seq > expected {
            if self.rx_links[src].reorder.len() >= self.cfg.reassembly_cap {
                self.clear_wait();
                std::panic::panic_any(DpfError::LinkBackpressure {
                    worker: self.rank,
                    peer: src,
                    buffered: self.rx_links[src].reorder.len(),
                    cap: self.cfg.reassembly_cap,
                });
            }
            self.rx_links[src].reorder.insert(env.seq, env);
            if reliable && !self.rx_links[src].nacked {
                self.rx_links[src].nacked = true;
                self.meter.note_nack();
                self.send_ctl(src, Frame::Nack { seq: expected });
            }
            return;
        }
        self.rx_links[src].expected += 1;
        self.rx_links[src].nacked = false;
        self.deliver(src, env.msg);
        while let Some(e) = {
            let next = self.rx_links[src].expected;
            self.rx_links[src].reorder.remove(&next)
        } {
            self.rx_links[src].expected += 1;
            self.deliver(src, e.msg);
        }
        if reliable {
            self.meter.note_ack();
            let upto = self.rx_links[src].expected - 1;
            self.send_ctl(src, Frame::Ack { upto });
        }
    }

    fn deliver(&mut self, src: usize, msg: M) {
        if self.pending[src].len() >= self.cfg.pending_cap {
            self.clear_wait();
            std::panic::panic_any(DpfError::LinkBackpressure {
                worker: self.rank,
                peer: src,
                buffered: self.pending[src].len(),
                cap: self.cfg.pending_cap,
            });
        }
        self.pending[src].push_back(msg);
        self.sup.bump();
    }

    /// React to a nack: release a held frame the receiver is missing, or
    /// repair a lost transmission ahead of its backoff timer.
    fn on_nack(&mut self, from: usize, seq: u64) {
        if self.tx_links[from]
            .held
            .as_ref()
            .is_some_and(|h| h.seq == seq)
        {
            self.flush_held(from);
            return;
        }
        let idx = self.tx_links[from]
            .unacked
            .iter()
            .position(|e| e.seq == seq);
        if let Some(idx) = idx {
            if self.tx_links[from].unacked[idx].victim {
                self.retransmit(from, idx);
            }
        }
    }

    /// Diagnose a deadlock once the whole worker set is blocked and global
    /// progress has been flat for the stall window.
    fn stall_check(&mut self, watch: &mut StallWatch) {
        let current = self.sup.progress.load(Ordering::Relaxed);
        if current != watch.last {
            watch.last = current;
            watch.since = Instant::now();
            return;
        }
        let stalled_for = watch.since.elapsed();
        if stalled_for < self.cfg.stall_timeout {
            return;
        }
        let n = self.txs.len();
        for rank in 0..n {
            if self.sup.done[rank].load(Ordering::Acquire) {
                continue;
            }
            if self.sup.waits[rank].lock().is_none() {
                // Someone is still computing: not a deadlock (the hard
                // timeout remains as the backstop).
                return;
            }
        }
        if self.sup.diagnosed.swap(true, Ordering::SeqCst) {
            return;
        }
        let detail = self.render_wait_graph(stalled_for);
        self.clear_wait();
        std::panic::panic_any(DpfError::Deadlock {
            worker: self.rank,
            detail,
        });
    }

    /// Render the wait-for graph: one line per worker (what it waits on,
    /// with sequence/buffer/heartbeat detail) plus cycle detection.
    fn render_wait_graph(&self, stalled_for: Duration) -> String {
        use std::fmt::Write as _;
        let n = self.txs.len();
        let now = self.sup.now_ms();
        let deaths = self.sup.deaths.lock().clone();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "no global progress for {stalled_for:?}; wait-for graph ({n} worker(s)):"
        );
        let mut edges: Vec<Option<usize>> = vec![None; n];
        #[allow(clippy::needless_range_loop)] // rank also indexes the sup arrays
        for rank in 0..n {
            let hb = now.saturating_sub(self.sup.heartbeats[rank].load(Ordering::Relaxed));
            if let Some((_, msg)) = deaths.iter().find(|(d, _)| *d == rank) {
                let _ = writeln!(out, "  worker {rank}: dead ({msg})");
                continue;
            }
            if self.sup.done[rank].load(Ordering::Acquire) {
                let _ = writeln!(out, "  worker {rank}: finished");
                continue;
            }
            match *self.sup.waits[rank].lock() {
                Some(WaitState::Recv {
                    peer,
                    expected,
                    reordered,
                    buffered,
                }) => {
                    edges[rank] = Some(peer);
                    let _ = writeln!(
                        out,
                        "  worker {rank}: waiting on worker {peer} (expected seq {expected}, \
                         {reordered} reordered frame(s) held, {buffered} undrained message(s); \
                         heartbeat {hb}ms ago)"
                    );
                }
                Some(WaitState::Barrier { generation }) => {
                    let _ = writeln!(
                        out,
                        "  worker {rank}: at barrier generation {generation} \
                         ({}/{n} arrived; heartbeat {hb}ms ago)",
                        self.barrier.arrived()
                    );
                }
                None => {
                    let _ = writeln!(out, "  worker {rank}: running (heartbeat {hb}ms ago)");
                }
            }
        }
        match find_cycle(&edges) {
            Some(cycle) => {
                let mut path = cycle
                    .iter()
                    .map(|r| format!("worker {r}"))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let _ = write!(path, " -> worker {}", cycle[0]);
                let _ = writeln!(out, "  wait cycle detected: {path}");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  no recv cycle; suspect a barrier mismatch or lost wakeup"
                );
            }
        }
        out
    }

    /// Teardown drain: after a worker's collective body returns it keeps
    /// servicing acks, nacks and retransmission timers until every worker
    /// has retired, so a fault on a final frame is still repaired. Clean
    /// transports (no faults, no deaths) skip this entirely.
    fn linger(&mut self) {
        self.clear_wait();
        self.flush_all_held();
        if !self.cfg.reliable() && self.sup.dead.load(Ordering::Acquire) == 0 {
            return;
        }
        let deadline = Instant::now() + self.cfg.hard_timeout;
        while self.sup.retired.load(Ordering::Acquire) < self.txs.len() {
            self.service(Some(Duration::from_millis(5)));
            self.run_sender_timers();
            if Instant::now() >= deadline {
                // Teardown must never hang the suite; the stuck worker's
                // own wait diagnostics are the authoritative failure.
                return;
            }
        }
    }

    // ---- in-run recovery (`--recover in-run`) ----------------------------

    /// Put a frame on the recovery channel. Recovery traffic rides the
    /// same lossless in-process channels as the ack/nack control plane:
    /// it is never metered as a logical message and never subjected to
    /// link faults. A send error means the peer's receiver is gone, which
    /// the death paths diagnose — ignore it here.
    fn send_recovery(&self, to: usize, frame: Frame<M>) {
        let _ = self.txs[to].send((self.rank, frame));
    }

    /// Push this worker's epoch-start shard snapshot to its buddy rank
    /// (`rank+1 mod p`), CRC'd and epoch-tagged, metered on the replica
    /// counters.
    fn push_replica(&mut self, epoch: u64, snapshot: &[u8]) {
        let buddy = (self.rank + 1) % self.nprocs();
        if buddy == self.rank {
            return;
        }
        let mut crc = crc32(snapshot);
        if self.cfg.replica_corrupt {
            crc ^= CRC_MANGLE;
        }
        self.meter.note_replica_push(snapshot.len() as u64);
        self.send_recovery(
            buddy,
            Frame::Replica {
                epoch,
                owner: self.rank,
                crc,
                data: snapshot.to_vec(),
            },
        );
    }

    /// Forward the buddy-held replica of `victim` back to its respawned
    /// worker (rehydration phase), metered on the rehydrate counters.
    fn forward_replica(&mut self, victim: usize, epoch: u64) -> Result<(), String> {
        match self.replica_store[victim].clone() {
            Some(entry) if entry.epoch == epoch => {
                self.meter.note_rehydration(entry.data.len() as u64);
                self.send_recovery(
                    victim,
                    Frame::Replica {
                        epoch,
                        owner: victim,
                        crc: entry.crc,
                        data: entry.data,
                    },
                );
                Ok(())
            }
            _ => Err(format!(
                "spmd worker {}: no epoch-{epoch} replica held for victim worker {victim}",
                self.rank
            )),
        }
    }

    /// A respawned victim blocks here until its buddy's replica forward
    /// arrives, then verifies the CRC. Only replica frames can be in
    /// flight during the rehydration phase (every doomed data/control
    /// frame was drained at the rewind), so anything else is dropped.
    fn await_replica(&mut self, epoch: u64) -> Result<Vec<u8>, DpfError> {
        let deadline = Instant::now() + self.cfg.hard_timeout;
        loop {
            if let Some(entry) = self.replica_store[self.rank].take() {
                if entry.epoch == epoch {
                    if crc32(&entry.data) != entry.crc {
                        return Err(DpfError::ReplicaCorrupt {
                            worker: self.rank,
                            epoch,
                        });
                    }
                    return Ok(entry.data);
                }
            }
            match self.rx.recv_timeout(HEAL_SLICE) {
                Ok((
                    _,
                    Frame::Replica {
                        epoch,
                        owner,
                        crc,
                        data,
                    },
                )) => {
                    self.replica_store[owner] = Some(ReplicaEntry { epoch, crc, data });
                }
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DpfError::ReplicaCorrupt {
                        worker: self.rank,
                        epoch,
                    });
                }
            }
            if self.sup.dead.load(Ordering::Acquire) > 0 || Instant::now() >= deadline {
                return Err(DpfError::ReplicaCorrupt {
                    worker: self.rank,
                    epoch,
                });
            }
        }
    }

    /// Rewind phase: drain this worker's channel completely — keeping
    /// replica frames, discarding the doomed attempt's data/ack/nack
    /// traffic — and reset all per-link transport state so the re-run
    /// starts from sequence zero on every link (which also re-rolls the
    /// deterministic link-fault decisions identically to a clean run).
    fn drain_for_heal(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok((
                    _,
                    Frame::Replica {
                        epoch,
                        owner,
                        crc,
                        data,
                    },
                )) => {
                    self.replica_store[owner] = Some(ReplicaEntry { epoch, crc, data });
                }
                Ok(_) => {}
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let n = self.txs.len();
        self.pending = (0..n).map(|_| VecDeque::new()).collect();
        self.tx_links = (0..n).map(|_| TxLink::new()).collect();
        self.rx_links = (0..n).map(|_| RxLink::new()).collect();
        self.ops_since_service = 0;
        self.clear_wait();
    }

    /// Park at the recovery rendezvous barrier. Returns `Err(())` when a
    /// hard death is recorded (or the wait times out) — the round cannot
    /// complete and the caller aborts with a typed payload.
    fn heal_bar_wait(&mut self) -> Result<(), ()> {
        let Some(gen) = self.sup.heal_bar.arrive() else {
            return Ok(());
        };
        let deadline = Instant::now() + self.cfg.hard_timeout;
        loop {
            if self.sup.heal_bar.poll(gen, HEAL_SLICE) {
                return Ok(());
            }
            if self.sup.dead.load(Ordering::Acquire) > 0 || Instant::now() >= deadline {
                return Err(());
            }
        }
    }

    /// End-of-body wait under in-run recovery: the epoch commits only
    /// once all workers have completed it (after which no victim can
    /// appear, because a victim never completes the body). While waiting,
    /// the worker keeps servicing the transport exactly like the linger
    /// drain, so peers' final repairs still get their acks.
    fn commit_wait(&mut self) -> CommitOutcome {
        self.clear_wait();
        self.flush_all_held();
        self.sup.heal_committed.fetch_add(1, Ordering::AcqRel);
        self.sup.bump();
        let n = self.txs.len();
        let deadline = Instant::now() + self.cfg.hard_timeout;
        loop {
            if self.sup.dead.load(Ordering::Acquire) > 0 {
                return CommitOutcome::Aborted;
            }
            if self.sup.heal_pending.load(Ordering::Acquire) > 0 {
                return CommitOutcome::Heal;
            }
            if self.sup.heal_committed.load(Ordering::Acquire) >= n {
                return CommitOutcome::Committed;
            }
            self.service(Some(HEAL_SLICE));
            self.run_sender_timers();
            if Instant::now() >= deadline {
                return CommitOutcome::Aborted;
            }
        }
    }

    /// The typed payload for a worker that must give up on a recovery
    /// round: the first recorded hard death if there is one, else a
    /// timeout diagnosis.
    fn heal_abort_payload(&self) -> Box<dyn Any + Send> {
        match self.sup.first_dead() {
            Some(worker) => Box::new(DpfError::WorkerDied {
                worker,
                waiter: self.rank,
            }),
            None => Box::new(format!(
                "spmd worker {}: recovery rendezvous timed out after {:?}",
                self.rank, self.cfg.hard_timeout
            )),
        }
    }
}

/// What [`Router::commit_wait`] resolved to.
enum CommitOutcome {
    /// Every worker completed the epoch body: the result is final.
    Committed,
    /// A victim registered while waiting: rewind and re-run the epoch.
    Heal,
    /// A hard death (or timeout) was recorded: abort the collective.
    Aborted,
}

/// Walk the single-successor wait graph and return the first cycle found.
fn find_cycle(edges: &[Option<usize>]) -> Option<Vec<usize>> {
    let n = edges.len();
    // 0 = unvisited, 1 = on the current path, 2 = fully explored.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if color[cur] == 1 {
                let pos = path.iter().position(|&x| x == cur).expect("on path");
                return Some(path[pos..].to_vec());
            }
            if color[cur] == 2 {
                break;
            }
            color[cur] = 1;
            path.push(cur);
            match edges[cur] {
                Some(next) => cur = next,
                None => break,
            }
        }
        for &x in &path {
            color[x] = 2;
        }
    }
    None
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr report on threads that opted in via [`set_quiet_panics`]. SPMD
/// worker panics are routine under fault injection — they are caught,
/// recorded and re-raised as typed errors on the caller — so printing
/// each one would bury real output.
pub fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_PANICS.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// Mark the current thread's panics as quiet (suppressed by the hook
/// installed via [`install_quiet_panic_hook`]).
pub fn set_quiet_panics(quiet: bool) {
    QUIET_PANICS.with(|q| q.set(quiet));
}

/// Best-effort human-readable rendering of a caught panic payload.
fn payload_str(payload: &(dyn Any + Send)) -> String {
    if let Some(e) = payload.downcast_ref::<DpfError>() {
        e.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Byte-serializable worker-local shard state, the unit of in-run
/// recovery (`--recover in-run`).
///
/// Every worker captures its work item's *owned element bytes* at each
/// epoch (collective) entry and pushes them to its buddy rank; a worker
/// respawned after a death rebuilds its work item by restoring the
/// buddy's replica. [`ShardState::capture`] appends to `out`;
/// [`ShardState::restore`] reads the same prefix back in place and
/// advances the cursor, so implementations compose structurally (tuples,
/// options, vectors).
///
/// Structure — `Some` vs `None`, slice lengths, piece counts — is *not*
/// serialized: it is fixed by the data decomposition, which is identical
/// across attempts of the same epoch, and `restore` always runs against a
/// value of the same shape `capture` saw. Element round trips must be
/// bit-exact (see [`crate::Elem::put_le`]): healed runs are asserted
/// byte-identical to clean runs.
pub trait ShardState {
    /// Append this value's owned bytes to `out`.
    fn capture(&self, out: &mut Vec<u8>);

    /// Rebuild this value from the front of `*cursor`, advancing it past
    /// exactly the bytes [`ShardState::capture`] wrote.
    fn restore(&mut self, cursor: &mut &[u8]);
}

impl ShardState for () {
    fn capture(&self, _out: &mut Vec<u8>) {}
    fn restore(&mut self, _cursor: &mut &[u8]) {}
}

impl ShardState for usize {
    fn capture(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        let (head, rest) = cursor.split_at(8);
        *self = u64::from_le_bytes(head.try_into().expect("8-byte head")) as usize;
        *cursor = rest;
    }
}

impl<A: ShardState, B: ShardState> ShardState for (A, B) {
    fn capture(&self, out: &mut Vec<u8>) {
        self.0.capture(out);
        self.1.capture(out);
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        self.0.restore(cursor);
        self.1.restore(cursor);
    }
}

impl<T: ShardState> ShardState for Option<T> {
    fn capture(&self, out: &mut Vec<u8>) {
        if let Some(inner) = self {
            inner.capture(out);
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        if let Some(inner) = self {
            inner.restore(cursor);
        }
    }
}

impl<T: ShardState> ShardState for Vec<T> {
    fn capture(&self, out: &mut Vec<u8>) {
        for v in self {
            v.capture(out);
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        for v in self.iter_mut() {
            v.restore(cursor);
        }
    }
}

/// A driver's role in a recovery round.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HealRole {
    /// Respawned in place of a dead rank: rehydrates from the buddy's
    /// replica in phase 3.
    Victim,
    /// Survivor: rewinds its own work item from its local epoch-start
    /// snapshot in phase 2.
    Peer,
}

/// Restore `w` from a snapshot whose bytes have been deliberately
/// garbled. A respawned victim's work item is scrambled *before* the
/// recovery round so that rehydration from the buddy replica is provably
/// load-bearing — if the restore in phase 3 were skipped or wrong, the
/// healed results could not come out byte-identical to a clean run.
fn scramble<W: ShardState>(w: &mut W, snapshot: &[u8]) {
    let garbled: Vec<u8> = snapshot.iter().map(|b| b ^ 0xFF).collect();
    w.restore(&mut &garbled[..]);
}

/// The three-phase recovery rendezvous, run by every driver (peers and
/// respawned victims alike) once a round is open:
///
/// 1. **Quiesce** — park at the dedicated recovery barrier. When it
///    releases, every doomed frame of the abandoned attempt is already
///    sitting in some receiver's channel: unbounded mpsc sends complete
///    synchronously, and each park happens-after that driver's last send.
/// 2. **Rewind** — drain the own channel (keeping replica frames,
///    discarding the doomed data/control traffic), reset all per-link
///    transport state to sequence zero, restore peers' work items from
///    their epoch-start snapshots; rank 0 additionally rolls the logical
///    meters back to the epoch mark, resets the collective barrier's
///    partial arrivals and re-zeroes the commit counter.
/// 3. **Rehydrate** — buddies forward their held replicas to the
///    victims; each victim CRC-verifies and restores. Rank 0 closes the
///    round (clears the victim set and pending count) before the final
///    barrier releases everyone back into the epoch body.
///
/// Any hard death observed while parked aborts the round with a typed
/// payload; the run then falls back to harness-level restart semantics.
fn heal_round<M, W>(
    router: &mut Router<'_, M>,
    w: &mut W,
    snapshot: &[u8],
    role: HealRole,
    epoch_mark: (u64, u64),
    collective: u64,
) -> Result<(), Box<dyn Any + Send>>
where
    M: Send + Clone,
    W: ShardState,
{
    let abort = |router: &Router<'_, M>| -> Result<(), Box<dyn Any + Send>> {
        let payload = router.heal_abort_payload();
        router
            .sup
            .record_death(router.rank, payload_str(payload.as_ref()), true);
        Err(payload)
    };
    // Phase 1: quiesce.
    if router.heal_bar_wait().is_err() {
        return abort(router);
    }
    // Phase 2: rewind. The victim set is read before rank 0 clears it in
    // phase 3; every driver passes this read before arriving at the
    // phase-2 barrier below.
    let victims: Vec<usize> = router.sup.heal_victims.lock().clone();
    router.drain_for_heal();
    if role == HealRole::Peer {
        w.restore(&mut &snapshot[..]);
    }
    if router.rank == 0 {
        router.meter.rollback_logical(epoch_mark);
        router.barrier.reset_arrivals();
        router.sup.heal_committed.store(0, Ordering::Release);
        router.meter.note_epoch_rewound();
    }
    if router.heal_bar_wait().is_err() {
        return abort(router);
    }
    // Phase 3: rehydrate.
    for &v in &victims {
        if router.rank == (v + 1) % router.nprocs() && router.rank != v {
            if let Err(detail) = router.forward_replica(v, collective) {
                router.sup.record_death(router.rank, detail.clone(), true);
                return Err(Box::new(detail));
            }
        }
    }
    if role == HealRole::Victim {
        match router.await_replica(collective) {
            Ok(data) => w.restore(&mut &data[..]),
            Err(e) => {
                router.sup.record_death(router.rank, e.to_string(), true);
                return Err(Box::new(e));
            }
        }
    }
    if router.rank == 0 {
        // Close the round before releasing anyone: once the final barrier
        // opens, resumed workers consult `heal_pending` in their death
        // checks again.
        router.sup.heal_victims.lock().clear();
        router.sup.heal_pending.store(0, Ordering::Release);
    }
    if router.heal_bar_wait().is_err() {
        return abort(router);
    }
    Ok(())
}

/// Hand the dead rank's seat to a fresh thread. The dying driver's thread
/// blocks on the join and relays the replacement's result, so the outer
/// `run_workers` join loop still sees exactly one result per rank. The
/// recursion back into [`drive`] is the same monomorphized instantiation,
/// bounded by the respawn budget.
fn respawn<M, W, R, F>(
    w: W,
    router: Router<'_, M>,
    f: &F,
    collective: u64,
    epoch_mark: (u64, u64),
    respawns_left: u32,
    fired: Vec<bool>,
) -> Result<R, Box<dyn Any + Send>>
where
    M: Send + Clone,
    W: Send + ShardState,
    R: Send,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R + Sync,
{
    std::thread::scope(|s| {
        s.spawn(move || {
            drive(
                w,
                router,
                f,
                collective,
                epoch_mark,
                respawns_left,
                fired,
                true,
            )
        })
        .join()
        .unwrap_or_else(|_| {
            Err(
                Box::new("spmd respawned worker thread machinery panicked".to_string())
                    as Box<dyn Any + Send>,
            )
        })
    })
}

/// One worker's supervised epoch loop. Without in-run healing this is a
/// single pass: run the body, retire, linger. With healing armed, each
/// iteration of the loop is one *attempt* at the epoch: capture + push
/// the shard replica, honor any scheduled kill, run the body, and either
/// commit (all workers completed) or rewind through [`heal_round`] and
/// try again. A healable death (injected kill or untyped body panic)
/// converts this thread into a [`respawn`] relay instead of a hard abort.
#[allow(clippy::too_many_arguments)]
fn drive<M, W, R, F>(
    mut w: W,
    mut router: Router<'_, M>,
    f: &F,
    collective: u64,
    epoch_mark: (u64, u64),
    mut respawns_left: u32,
    mut fired: Vec<bool>,
    resume_as_victim: bool,
) -> Result<R, Box<dyn Any + Send>>
where
    M: Send + Clone,
    W: Send + ShardState,
    R: Send,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R + Sync,
{
    set_quiet_panics(true);
    let rank = router.rank;
    let heal_armed = router.sup.heal_armed;
    let mut snapshot: Vec<u8> = Vec::new();
    if resume_as_victim {
        heal_round(
            &mut router,
            &mut w,
            &snapshot,
            HealRole::Victim,
            epoch_mark,
            collective,
        )?;
    }
    loop {
        if heal_armed {
            snapshot.clear();
            w.capture(&mut snapshot);
            router.push_replica(collective, &snapshot);
        }
        // Scheduled kill gate: each schedule entry fires at most once, so
        // the re-run after a heal does not re-kill the respawned worker.
        let due = (0..fired.len())
            .find(|&i| !fired[i] && router.cfg.kill_workers[i] == (rank, collective));
        if let Some(i) = due {
            fired[i] = true;
            if heal_armed && respawns_left > 0 {
                router.sup.record_heal(rank);
                scramble(&mut w, &snapshot);
                router.meter.note_respawn();
                respawns_left -= 1;
                return respawn(w, router, f, collective, epoch_mark, respawns_left, fired);
            }
            let msg =
                format!("injected fault: spmd worker {rank} killed at collective {collective}");
            router.sup.record_death(rank, msg.clone(), true);
            return Err(Box::new(msg));
        }
        match catch_unwind(AssertUnwindSafe(|| f(rank, &mut w, &mut router))) {
            Ok(out) => {
                let committed = if heal_armed {
                    match router.commit_wait() {
                        CommitOutcome::Committed => true,
                        CommitOutcome::Heal => {
                            heal_round(
                                &mut router,
                                &mut w,
                                &snapshot,
                                HealRole::Peer,
                                epoch_mark,
                                collective,
                            )?;
                            continue;
                        }
                        CommitOutcome::Aborted => {
                            let payload = router.heal_abort_payload();
                            router
                                .sup
                                .record_death(rank, payload_str(payload.as_ref()), true);
                            return Err(payload);
                        }
                    }
                } else {
                    true
                };
                debug_assert!(committed);
                router.sup.retire(rank);
                return match catch_unwind(AssertUnwindSafe(|| router.linger())) {
                    Ok(()) => Ok(out),
                    Err(payload) => {
                        router
                            .sup
                            .record_death(rank, payload_str(payload.as_ref()), false);
                        Err(payload)
                    }
                };
            }
            Err(payload) => {
                if payload.is::<HealRewind>() {
                    heal_round(
                        &mut router,
                        &mut w,
                        &snapshot,
                        HealRole::Peer,
                        epoch_mark,
                        collective,
                    )?;
                    continue;
                }
                // Typed DpfError payloads (link failures, backpressure,
                // deadlock diagnoses, peer-death echoes) are hard faults:
                // respawning would not change the outcome, and the
                // harness owns that recovery policy. Untyped panics — the
                // injected kills and generic body bugs — are healable.
                let healable =
                    heal_armed && respawns_left > 0 && payload.downcast_ref::<DpfError>().is_none();
                if healable {
                    router.sup.record_heal(rank);
                    scramble(&mut w, &snapshot);
                    router.meter.note_respawn();
                    respawns_left -= 1;
                    return respawn(w, router, f, collective, epoch_mark, respawns_left, fired);
                }
                router
                    .sup
                    .record_death(rank, payload_str(payload.as_ref()), true);
                return Err(payload);
            }
        }
    }
}

/// Spawn `nprocs` workers on scoped threads, one per virtual processor,
/// each receiving its rank, its element of `work` (the worker's own array
/// blocks and outputs) and a [`Router`] wired to every peer. Returns the
/// workers' results in rank order.
///
/// Workers are supervised: a panicking worker is caught, its death is
/// recorded so blocked peers abort with a typed [`DpfError::WorkerDied`],
/// and after all workers join the most informative failure — the root
/// cause, preferring any non-`WorkerDied` payload — is re-raised on the
/// caller. Finished workers linger to service retransmissions until the
/// whole set retires, so faults on final frames are still repaired.
///
/// Under `--recover in-run` (with more than one worker) healable deaths
/// do not abort: the collective rewinds to its start, the dead rank is
/// respawned and rehydrated from its buddy's replica, and the epoch
/// re-runs — see the module docs and [`ShardState`].
pub fn run_workers<M, W, R, F>(
    nprocs: usize,
    transport: Transport<'_>,
    work: Vec<W>,
    f: F,
) -> Vec<R>
where
    M: Send + Clone,
    W: Send + ShardState,
    R: Send,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R + Sync,
{
    assert_eq!(work.len(), nprocs, "one work item per worker");
    install_quiet_panic_hook();
    let meter = transport.meter;
    let cfg = transport.cfg;
    let collective = meter.begin_collective();
    let heal_armed = cfg.recover == RecoverMode::InRun && nprocs > 1;
    // The logical-meter rollback point for epoch rewinds: §1.5 counters
    // as they stood before any worker of this collective sent anything.
    let epoch_mark = (meter.messages(), meter.payload_bytes());
    let barrier = SpmdBarrier::new(nprocs);
    let sup = Supervision::new(nprocs, heal_armed);
    let mut txs = Vec::with_capacity(nprocs);
    let mut rxs = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let routers: Vec<Router<'_, M>> = rxs
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Router {
            rank,
            txs: txs.clone(),
            rx,
            pending: (0..nprocs).map(|_| VecDeque::new()).collect(),
            tx_links: (0..nprocs).map(|_| TxLink::new()).collect(),
            rx_links: (0..nprocs).map(|_| RxLink::new()).collect(),
            ops_since_service: 0,
            meter,
            cfg,
            barrier: &barrier,
            sup: &sup,
            replica_store: (0..nprocs).map(|_| None).collect(),
        })
        .collect();
    drop(txs);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = routers
            .into_iter()
            .zip(work)
            .map(|(router, w)| {
                let fired = vec![false; cfg.kill_workers.len()];
                s.spawn(move || {
                    drive(
                        w,
                        router,
                        f,
                        collective,
                        epoch_mark,
                        cfg.max_respawns,
                        fired,
                        false,
                    )
                })
            })
            .collect();
        let mut oks = Vec::with_capacity(nprocs);
        let mut root: Option<Box<dyn Any + Send>> = None;
        let mut secondary: Option<Box<dyn Any + Send>> = None;
        for handle in handles {
            match handle
                .join()
                .expect("spmd worker thread machinery panicked")
            {
                Ok(r) => oks.push(r),
                Err(payload) => {
                    let is_secondary = payload
                        .downcast_ref::<DpfError>()
                        .is_some_and(|e| matches!(e, DpfError::WorkerDied { .. }));
                    if is_secondary {
                        if secondary.is_none() {
                            secondary = Some(payload);
                        }
                    } else if root.is_none() {
                        root = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = root.or(secondary) {
            std::panic::resume_unwind(payload);
        }
        oks
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("virtual".parse::<Backend>().unwrap(), Backend::Virtual);
        assert_eq!("spmd".parse::<Backend>().unwrap(), Backend::Spmd);
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::Spmd.to_string(), "spmd");
        assert_eq!(Backend::default(), Backend::Virtual);
        assert!(Backend::Spmd.is_spmd());
        assert!(!Backend::Virtual.is_spmd());
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn meter_ignores_self_sends() {
        let meter = LinkMeter::new();
        let results = run_workers::<u64, (), u64, _>(
            4,
            Transport::clean(&meter),
            vec![(); 4],
            |rank, _w, router| {
                // Every worker sends its rank to every rank (self included).
                for to in 0..router.nprocs() {
                    router.send(to, 8, rank as u64);
                }
                let mut sum = 0;
                for from in 0..router.nprocs() {
                    sum += router.recv_from(from);
                }
                sum
            },
        );
        assert_eq!(results, vec![1 + 2 + 3; 4]);
        // 4 workers x 3 cross-peers each = 12 metered messages; the clean
        // transport generates no control traffic at all.
        assert_eq!(meter.messages(), 12);
        assert_eq!(meter.payload_bytes(), 12 * 8);
        assert_eq!(meter.acks(), 0);
        assert_eq!(meter.retransmits(), 0);
        assert_eq!(meter.link_faults(), 0);
    }

    #[test]
    fn per_sender_fifo_holds_across_rounds() {
        let meter = LinkMeter::new();
        let results = run_workers::<u32, (), Vec<u32>, _>(
            3,
            Transport::clean(&meter),
            vec![(); 3],
            |rank, _w, router| {
                // Two back-to-back rounds; receivers must see each peer's
                // messages in send order even though the shared channel
                // interleaves senders arbitrarily.
                for round in 0..2u32 {
                    for to in 0..router.nprocs() {
                        router.send(to, 0, round * 10 + rank as u32);
                    }
                }
                router.barrier();
                let mut got = Vec::new();
                for from in 0..router.nprocs() {
                    for round in 0..2u32 {
                        let m = router.recv_from(from);
                        assert_eq!(m, round * 10 + from as u32);
                        got.push(m);
                    }
                }
                got
            },
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn barrier_is_reusable() {
        let b = SpmdBarrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<(), usize, (), _>(
                2,
                Transport::clean(&meter),
                vec![0, 1],
                |rank, _w, _router| {
                    if rank == 1 {
                        panic!("worker bug");
                    }
                },
            );
        });
        assert!(res.is_err());
    }

    /// All-to-all exchange under every fault kind (and the full mix):
    /// results must be bit-identical to the fault-free run, the logical
    /// meter must be unchanged, and the transport counters must show the
    /// faults were actually exercised and repaired.
    #[test]
    fn lossy_links_deliver_exactly_once_in_order() {
        let rounds = 40u64;
        let exchange = |cfg: &TransportCfg| {
            let meter = LinkMeter::new();
            let results = run_workers::<u64, (), Vec<u64>, _>(
                4,
                Transport::new(&meter, cfg),
                vec![(); 4],
                |rank, _w, router| {
                    for round in 0..rounds {
                        for to in 0..router.nprocs() {
                            router.send(to, 8, round * 100 + rank as u64);
                        }
                    }
                    let mut got = Vec::new();
                    for from in 0..router.nprocs() {
                        for round in 0..rounds {
                            let m = router.recv_from(from);
                            assert_eq!(
                                m,
                                round * 100 + from as u64,
                                "out-of-order or corrupted delivery"
                            );
                            got.push(m);
                        }
                    }
                    got
                },
            );
            (results, meter.messages(), meter.payload_bytes())
        };
        let clean = exchange(&TransportCfg::default());
        let mut kinds: Vec<Vec<LinkFaultKind>> =
            LinkFaultKind::ALL.iter().map(|&k| vec![k]).collect();
        kinds.push(LinkFaultKind::ALL.to_vec());
        for link_kinds in kinds {
            let cfg = TransportCfg {
                link_rate: 0.3,
                link_seed: 0xD5F_0004,
                link_kinds: link_kinds.clone(),
                max_retransmits: 32,
                ..TransportCfg::default()
            };
            let lossy = exchange(&cfg);
            assert_eq!(
                lossy, clean,
                "kinds {link_kinds:?} changed results or logical meters"
            );
        }
        // The full mix must actually have exercised the repair machinery.
        let cfg = TransportCfg {
            link_rate: 0.3,
            link_seed: 0xD5F_0004,
            max_retransmits: 32,
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        run_workers::<u64, (), (), _>(
            4,
            Transport::new(&meter, &cfg),
            vec![(); 4],
            |rank, _w, router| {
                for round in 0..rounds {
                    for to in 0..router.nprocs() {
                        router.send(to, 8, round * 100 + rank as u64);
                    }
                }
                for from in 0..router.nprocs() {
                    for _ in 0..rounds {
                        router.recv_from(from);
                    }
                }
            },
        );
        assert!(meter.link_faults() > 0, "injector never fired");
        assert!(meter.retransmits() > 0, "no repairs performed");
        assert!(meter.acks() > 0, "no acks flowed");
    }

    /// Retransmission accounting is a pure function of the fault seed:
    /// two identical lossy runs agree on every transport counter.
    #[test]
    fn lossy_transport_counters_are_deterministic() {
        let run = || {
            let cfg = TransportCfg {
                link_rate: 0.25,
                link_seed: 99,
                max_retransmits: 32,
                ..TransportCfg::default()
            };
            let meter = LinkMeter::new();
            run_workers::<u64, (), (), _>(
                3,
                Transport::new(&meter, &cfg),
                vec![(); 3],
                |rank, _w, router| {
                    for round in 0..30u64 {
                        for to in 0..router.nprocs() {
                            router.send(to, 16, round * 10 + rank as u64);
                        }
                        for from in 0..router.nprocs() {
                            router.recv_from(from);
                        }
                        router.barrier();
                    }
                },
            );
            // Control-frame counts (acks/nacks) depend on scheduling — a
            // cumulative ack covers however many frames arrived before it
            // flushed — so only the data-plane accounting is compared.
            assert!(meter.acks() > 0, "no acks flowed");
            (
                meter.messages(),
                meter.payload_bytes(),
                meter.retransmits(),
                meter.retransmitted_bytes(),
                meter.link_faults(),
                meter.duplicates_discarded(),
                meter.crc_rejects(),
            )
        };
        assert_eq!(run(), run());
    }

    /// An exhausted retry budget surfaces as a typed LinkFailure carrying
    /// the exact link coordinates, not a bare panic string.
    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let cfg = TransportCfg {
            link_rate: 1.0,
            link_seed: 7,
            link_kinds: vec![LinkFaultKind::Drop],
            max_retransmits: 2,
            rto: Duration::from_millis(1),
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &cfg),
                vec![(); 2],
                |rank, _w, router| {
                    router.send(1 - rank, 8, rank as u64);
                    router.recv_from(1 - rank);
                },
            );
        });
        let payload = res.expect_err("budget exhaustion must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        match err {
            DpfError::LinkFailure { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected LinkFailure, got {other}"),
        }
    }

    /// A killed worker is recorded, its blocked peers abort with a typed
    /// WorkerDied, and the kill (the root cause) wins propagation.
    #[test]
    fn killed_worker_releases_blocked_peers() {
        let cfg = TransportCfg {
            kill_workers: vec![(1, 0)],
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &cfg),
                vec![(); 2],
                |rank, _w, router| {
                    if rank == 0 {
                        router.recv_from(1);
                    }
                },
            );
        });
        let payload = res.expect_err("kill must fail the collective");
        let msg = payload_str(payload.as_ref());
        assert!(
            msg.contains("killed at collective 0"),
            "root cause should win propagation, got: {msg}"
        );
        // The next collective (index 1) must not re-fire the kill.
        let results = run_workers::<u64, (), u64, _>(
            2,
            Transport::new(&meter, &cfg),
            vec![(); 2],
            |rank, _w, router| {
                router.send(1 - rank, 8, rank as u64);
                router.recv_from(1 - rank)
            },
        );
        assert_eq!(results, vec![1, 0]);
    }

    /// Two workers receiving from each other with nothing in flight is a
    /// cycle the stall detector must name explicitly.
    #[test]
    fn deadlock_diagnosis_names_the_cycle() {
        let cfg = TransportCfg {
            stall_timeout: Duration::from_millis(200),
            hard_timeout: Duration::from_secs(20),
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &cfg),
                vec![(); 2],
                |rank, _w, router| {
                    router.recv_from(1 - rank);
                },
            );
        });
        let payload = res.expect_err("cross wait must be diagnosed");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        match err {
            DpfError::Deadlock { detail, .. } => {
                assert!(detail.contains("wait cycle detected"), "detail: {detail}");
                assert!(detail.contains("worker 0"), "detail: {detail}");
                assert!(detail.contains("worker 1"), "detail: {detail}");
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    /// Overflowing the per-peer delivered-message buffer is a typed
    /// backpressure error, not an OOM.
    #[test]
    fn pending_buffer_overflow_is_typed_backpressure() {
        let cfg = TransportCfg {
            pending_cap: 4,
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &cfg),
                vec![(); 2],
                |rank, _w, router| {
                    if rank == 1 {
                        for i in 0..32u64 {
                            router.send(0, 8, i);
                        }
                    } else {
                        // Draining one message forces a service pass over
                        // everything already on the wire.
                        router.recv_from(1);
                        std::thread::sleep(Duration::from_millis(50));
                        router.recv_from(1);
                    }
                },
            );
        });
        let payload = res.expect_err("overflow must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        assert!(
            matches!(err, DpfError::LinkBackpressure { cap: 4, .. }),
            "got {err}"
        );
    }

    /// The fault decision is a pure function of its inputs.
    #[test]
    fn link_decisions_are_deterministic() {
        let cfg = TransportCfg {
            link_rate: 0.5,
            link_seed: 1234,
            ..TransportCfg::default()
        };
        let mut fired = 0;
        for seq in 0..200u64 {
            let a = link_decide(&cfg, 0, 1, seq, 0);
            let b = link_decide(&cfg, 0, 1, seq, 0);
            assert_eq!(a, b);
            if a.is_some() {
                fired += 1;
            }
        }
        assert!(fired > 50 && fired < 150, "rate wildly off: {fired}/200");
        // Self-links and disarmed configs never fault.
        assert_eq!(link_decide(&cfg, 2, 2, 0, 0), None);
        let clean = TransportCfg::default();
        assert_eq!(link_decide(&clean, 0, 1, 0, 0), None);
    }

    /// The exchange used by the healing tests: every worker's shard is a
    /// vector it mutates with values received from every peer, so a
    /// mid-run death corrupts real state that only the buddy replica can
    /// bring back.
    fn healing_exchange(cfg: &TransportCfg) -> (Vec<Vec<usize>>, u64, u64, u64, u64) {
        let meter = LinkMeter::new();
        let nprocs = 4;
        let work: Vec<Vec<usize>> = (0..nprocs).map(|r| vec![r; 8]).collect();
        let results = run_workers::<u64, Vec<usize>, Vec<usize>, _>(
            nprocs,
            Transport::new(&meter, cfg),
            work,
            |rank, w, router| {
                for to in 0..router.nprocs() {
                    router.send(to, 8, (rank * 10) as u64);
                }
                let n = router.nprocs();
                for (from, slot) in w.iter_mut().enumerate().take(n) {
                    let m = router.recv_from(from) as usize;
                    *slot = *slot * 100 + m;
                }
                router.barrier();
                w.clone()
            },
        );
        (
            results,
            meter.messages(),
            meter.payload_bytes(),
            meter.respawns(),
            meter.epochs_rewound(),
        )
    }

    /// An injected kill under `--recover in-run` heals: the run completes
    /// with results and §1.5 logical meters byte-identical to a clean
    /// run, one respawn and one epoch rewind on the recovery counters.
    #[test]
    fn killed_worker_heals_bit_identically() {
        let clean = healing_exchange(&TransportCfg::default());
        assert_eq!(clean.3, 0);
        assert_eq!(clean.4, 0);
        let cfg = TransportCfg {
            kill_workers: vec![(2, 0)],
            recover: RecoverMode::InRun,
            ..TransportCfg::default()
        };
        let healed = healing_exchange(&cfg);
        assert_eq!(healed.0, clean.0, "healed results differ from clean run");
        assert_eq!(healed.1, clean.1, "logical message count drifted");
        assert_eq!(healed.2, clean.2, "logical payload bytes drifted");
        assert_eq!(healed.3, 1, "exactly one respawn expected");
        assert_eq!(healed.4, 1, "exactly one epoch rewind expected");
    }

    /// A generic (untyped) body panic is healable too: the buggy rank is
    /// respawned once and the re-run succeeds.
    #[test]
    fn untyped_body_panic_heals_once() {
        let cfg = TransportCfg {
            recover: RecoverMode::InRun,
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let boom = AtomicBool::new(true);
        let results = run_workers::<u64, usize, usize, _>(
            3,
            Transport::new(&meter, &cfg),
            vec![10, 20, 30],
            |rank, w, router| {
                if rank == 1 && boom.swap(false, Ordering::AcqRel) {
                    panic!("transient worker bug");
                }
                for to in 0..router.nprocs() {
                    router.send(to, 8, *w as u64);
                }
                let mut sum = 0;
                for from in 0..router.nprocs() {
                    sum += router.recv_from(from) as usize;
                }
                sum
            },
        );
        assert_eq!(results, vec![60; 3]);
        assert_eq!(meter.respawns(), 1);
        assert_eq!(meter.epochs_rewound(), 1);
    }

    /// A corrupted buddy replica must not produce wrong answers: the
    /// victim's rehydration fails its CRC check and the collective aborts
    /// with a typed ReplicaCorrupt (the harness then falls back to a full
    /// restart).
    #[test]
    fn corrupt_replica_aborts_with_typed_error() {
        let cfg = TransportCfg {
            kill_workers: vec![(1, 0)],
            recover: RecoverMode::InRun,
            replica_corrupt: true,
            ..TransportCfg::default()
        };
        let res = std::panic::catch_unwind(|| healing_exchange(&cfg));
        let payload = res.expect_err("corrupt replica must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        assert!(
            matches!(err, DpfError::ReplicaCorrupt { worker: 1, .. }),
            "got {err}"
        );
    }

    /// The respawn budget bounds healing: with it exhausted, a kill is a
    /// hard death exactly as under `--recover restart`.
    #[test]
    fn exhausted_respawn_budget_is_a_hard_death() {
        let cfg = TransportCfg {
            kill_workers: vec![(1, 0)],
            recover: RecoverMode::InRun,
            max_respawns: 0,
            ..TransportCfg::default()
        };
        let res = std::panic::catch_unwind(|| healing_exchange(&cfg));
        let payload = res.expect_err("kill with no budget must fail");
        let msg = payload_str(payload.as_ref());
        assert!(msg.contains("killed at collective 0"), "got: {msg}");
    }

    /// Shard serialization composes structurally and round-trips through
    /// capture/restore, including the scramble used on respawned victims.
    #[test]
    fn shard_state_round_trips() {
        let original: (Vec<usize>, Option<usize>) = (vec![7, 0, usize::MAX], Some(42));
        let mut snapshot = Vec::new();
        original.capture(&mut snapshot);
        assert_eq!(snapshot.len(), 4 * 8);
        let mut rebuilt: (Vec<usize>, Option<usize>) = (vec![0, 0, 0], Some(0));
        rebuilt.restore(&mut &snapshot[..]);
        assert_eq!(rebuilt, original);
        scramble(&mut rebuilt, &snapshot);
        assert_ne!(rebuilt, original, "scramble must actually garble state");
        rebuilt.restore(&mut &snapshot[..]);
        assert_eq!(rebuilt, original);
    }
}
