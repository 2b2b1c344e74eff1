//! The workloads, and one pass of each.
//!
//! A pass runs every registry benchmark once through
//! [`dpf_suite::run_guarded`], the harness `dpf all` uses. The harness is
//! handed a copy of each registry entry whose runner is [`metered`]: it
//! calls the real registry runner on the harness's fresh `Ctx`, then
//! reads the `LinkMeter` and `BufferPool` counters of that `Ctx`, which
//! the harness's report does not carry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dpf_core::{Backend, CommKey, CommStats, Ctx, Machine, ProblemClass};
use dpf_suite::{
    run_guarded, BenchEntry, Group, RunOutcome, RunOutput, Size, SuiteConfig, Variant, Version,
};

use crate::clock::process_cpu_ns;
use crate::probe::ProbePoint;
use crate::reference::Kernel;
use crate::trace::tracer;

/// Wall-clock budget of one row; a row that needs longer has failed.
const ROW_TIMEOUT: Duration = Duration::from_secs(30);

/// A named workload: the whole suite at one class, backend and
/// processor count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 32 runners at class A, virtual backend, 32 procs.
    SuiteAVirtual,
    /// All 32 runners at class S, virtual backend, 32 procs.
    SuiteSVirtual,
    /// All 32 runners at class S, SPMD backend, 4 procs.
    SuiteSSpmd4,
}

/// Class, backend and processor count of a suite run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// Problem class.
    pub class: ProblemClass,
    /// Execution backend.
    pub backend: Backend,
    /// Virtual processors.
    pub procs: usize,
}

impl Point {
    /// The harness configuration `dpf all` builds for this point.
    pub fn suite_config(self) -> SuiteConfig {
        SuiteConfig {
            machine: Machine::cm5(self.procs),
            size: Size::Class(self.class),
            timeout: ROW_TIMEOUT,
            backend: self.backend,
            ..SuiteConfig::default()
        }
    }
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteAVirtual,
        Workload::SuiteSVirtual,
        Workload::SuiteSSpmd4,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteAVirtual => "suite-A-virtual",
            Workload::SuiteSVirtual => "suite-S-virtual",
            Workload::SuiteSSpmd4 => "suite-S-spmd4",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Class, backend and procs of the workload.
    pub fn point(self) -> Point {
        let (class, backend, procs) = match self {
            Workload::SuiteAVirtual => (ProblemClass::A, Backend::Virtual, 32),
            Workload::SuiteSVirtual => (ProblemClass::S, Backend::Virtual, 32),
            Workload::SuiteSSpmd4 => (ProblemClass::S, Backend::Spmd, 4),
        };
        Point {
            class,
            backend,
            procs,
        }
    }

    /// The reference kernel the workload's CPU times are scaled by. The
    /// virtual-backend suites spend their CPU time in user-mode compute.
    /// The SPMD suite spends most of its time spawning, waking and
    /// joining worker teams in the kernel, which a compute kernel does
    /// not track, so it is scaled by a team of the same size.
    pub fn reference(self) -> Kernel {
        match self {
            Workload::SuiteAVirtual | Workload::SuiteSVirtual => Kernel::Compute,
            Workload::SuiteSSpmd4 => Kernel::Team {
                workers: self.point().procs,
            },
        }
    }

    /// The same class on the other backend, whose FLOP count must match
    /// row for row.
    pub fn twin(self) -> Option<Point> {
        match self {
            Workload::SuiteSVirtual => Some(Workload::SuiteSSpmd4.point()),
            Workload::SuiteSSpmd4 => Some(Workload::SuiteSVirtual.point()),
            Workload::SuiteAVirtual => None,
        }
    }

    /// Where this workload's primitive probes run: its backend and procs,
    /// at 1,048,576 elements for class A and 4,096 for class S.
    pub fn probe_point(self) -> ProbePoint {
        let p = self.point();
        let n = if p.class == ProblemClass::A {
            1 << 20
        } else {
            4096
        };
        ProbePoint {
            backend: p.backend,
            procs: p.procs,
            n,
        }
    }
}

// ------------------------------------------------------------- counts

/// `LinkMeter` counts of one row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Link {
    /// `run_workers` calls.
    pub collectives: u64,
    /// Logical messages between distinct workers.
    pub messages: u64,
    /// Payload bytes of those messages.
    pub payload_bytes: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Shard replicas pushed to buddy ranks.
    pub replicas_pushed: u64,
}

/// The deterministic counts of one row: identical on every pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// FLOPs charged (§1.5).
    pub flops: u64,
    /// Communication calls recorded by `Instr`.
    pub comm_calls: u64,
    /// Elements those calls moved.
    pub comm_elements: u64,
    /// Bytes that crossed a virtual-processor boundary.
    pub offproc_bytes: u64,
    /// User-declared array bytes.
    pub declared_bytes: u64,
    /// Transport counts.
    pub link: Link,
}

// ---------------------------------------------------------- pass results

/// One row of one pass.
#[derive(Clone, Debug)]
pub struct RowRun {
    /// Registry index of the benchmark.
    pub row: usize,
    /// Benchmark name.
    pub bench: &'static str,
    /// Benchmark group.
    pub group: Group,
    /// Completed on the first attempt and verified.
    pub ok: bool,
    /// Deterministic counts.
    pub counts: Counts,
    /// Wall time of the `run_guarded` call.
    pub wall_ns: u64,
    /// Runner elapsed time from the harness report.
    pub runner_ns: u64,
    /// `Instr` busy time (inside primitives).
    pub busy_ns: u64,
    /// Harness attempts launched.
    pub attempts: u32,
    /// Buffer-pool hits during the runner.
    pub pool_hits: u64,
    /// Buffer-pool misses during the runner.
    pub pool_misses: u64,
    /// The row's `Instr` communication inventory.
    pub comm: BTreeMap<CommKey, CommStats>,
}

/// One pass: every row of the workload, once.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// CPU time of the whole pass, summed over every thread of the
    /// process.
    pub cpu_ns: u64,
    /// Rows in the order they ran.
    pub rows: Vec<RowRun>,
}

impl Pass {
    /// Per-row counts indexed by [`RowRun::row`].
    pub fn counts(&self) -> Vec<Counts> {
        let mut rows: Vec<&RowRun> = self.rows.iter().collect();
        rows.sort_by_key(|r| r.row);
        rows.iter().map(|r| r.counts).collect()
    }

    /// Total FLOPs of the pass.
    pub fn flops(&self) -> u64 {
        self.rows.iter().map(|r| r.counts.flops).sum()
    }

    /// Rows that failed: not completed-and-verified, or counts differing
    /// from `reference` (indexed by row).
    pub fn failures(&self, reference: &[Counts]) -> usize {
        self.rows
            .iter()
            .filter(|r| !r.ok || reference.get(r.row) != Some(&r.counts))
            .count()
    }
}

// ------------------------------------------------------- metered runner

/// What [`metered`] runs next: set by [`run_row`] right before it calls
/// the harness. Rows run one at a time, so one slot suffices.
#[derive(Clone, Copy)]
struct Slot {
    seq: u64,
    runner: fn(&Ctx, Size) -> RunOutput,
    name: &'static str,
    parent: u64,
}

/// What [`metered`] read from the harness's `Ctx` after the runner.
struct Meter {
    seq: u64,
    link: Link,
    pool_hits: u64,
    pool_misses: u64,
}

static SLOT: Mutex<Option<Slot>> = Mutex::new(None);
static METER: Mutex<Option<Meter>> = Mutex::new(None);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static METERED: [Variant; 1] = [Variant {
    version: Version::Basic,
    run: metered,
}];

/// The runner the harness calls: the slot's registry runner on the
/// harness's `Ctx`, in a `runner` span, then a read of that `Ctx`'s
/// transport and pool counters.
fn metered(ctx: &Ctx, size: Size) -> RunOutput {
    let slot = SLOT
        .lock()
        .expect("runner slot poisoned")
        .expect("run_row sets the slot before the harness runs");
    let (hits, misses) = (ctx.pool.hits(), ctx.pool.misses());
    let out = tracer().span("runner", slot.name, slot.parent, |_| {
        (slot.runner)(ctx, size)
    });
    let link = Link {
        collectives: ctx.link.collectives(),
        messages: ctx.link.messages(),
        payload_bytes: ctx.link.payload_bytes(),
        retransmits: ctx.link.retransmits(),
        replicas_pushed: ctx.link.replicas_pushed(),
    };
    *METER.lock().expect("meter slot poisoned") = Some(Meter {
        seq: slot.seq,
        link,
        pool_hits: ctx.pool.hits() - hits,
        pool_misses: ctx.pool.misses() - misses,
    });
    out
}

/// A registry benchmark prepared for metered runs.
pub struct Row {
    entry: BenchEntry,
    runner: fn(&Ctx, Size) -> RunOutput,
}

/// Build the registry, each entry's basic runner behind [`metered`].
pub fn metered_rows() -> Vec<Row> {
    dpf_suite::registry()
        .into_iter()
        .map(|e| {
            let runner = e
                .variant(Version::Basic)
                .expect("every registry entry has a basic runner")
                .run;
            Row {
                entry: BenchEntry {
                    variants: &METERED,
                    ..e
                },
                runner,
            }
        })
        .collect()
}

fn run_row(rows: &[Row], i: usize, cfg: &SuiteConfig, parent: u64) -> RowRun {
    let row = &rows[i];
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let (guarded, wall) = tracer().span("harness", row.entry.name, parent, |id| {
        *SLOT.lock().expect("runner slot poisoned") = Some(Slot {
            seq,
            runner: row.runner,
            name: row.entry.name,
            parent: id,
        });
        let start = Instant::now();
        let guarded = run_guarded(&row.entry, Version::Basic, cfg);
        (guarded, start.elapsed())
    });
    let meter = METER
        .lock()
        .expect("meter slot poisoned")
        .take()
        .filter(|m| m.seq == seq);
    let mut run = RowRun {
        row: i,
        bench: row.entry.name,
        group: row.entry.group,
        ok: guarded.outcome == RunOutcome::Completed && meter.is_some(),
        counts: Counts::default(),
        wall_ns: wall.as_nanos() as u64,
        runner_ns: 0,
        busy_ns: 0,
        attempts: guarded.attempts,
        pool_hits: 0,
        pool_misses: 0,
        comm: BTreeMap::new(),
    };
    if let Some(res) = guarded.result {
        let report = res.report;
        let comm = &report.comm;
        run.ok &= report.verify.is_pass();
        run.counts = Counts {
            flops: report.perf.flops,
            comm_calls: comm.values().map(|s| s.calls).sum(),
            comm_elements: comm.values().map(|s| s.elements).sum(),
            offproc_bytes: comm.values().map(|s| s.offproc_bytes).sum(),
            declared_bytes: report.memory_bytes,
            link: Link::default(),
        };
        run.runner_ns = report.perf.elapsed.as_nanos() as u64;
        run.busy_ns = report.perf.busy.as_nanos() as u64;
        run.comm = report.comm;
    }
    if let Some(m) = meter {
        run.counts.link = m.link;
        run.pool_hits = m.pool_hits;
        run.pool_misses = m.pool_misses;
    }
    run
}

/// One pass: rows `order` (indices into `rows`) through the harness
/// under `cfg`.
pub fn suite_pass(rows: &[Row], order: &[usize], cfg: &SuiteConfig, parent: u64) -> Pass {
    let (start, cpu) = (Instant::now(), process_cpu_ns());
    let rows = order
        .iter()
        .map(|&i| run_row(rows, i, cfg, parent))
        .collect();
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        cpu_ns: process_cpu_ns() - cpu,
        rows,
    }
}
