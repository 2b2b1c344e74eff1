//! Suite-level benchmark of the DPF runtime.
//!
//! One process, one closed loop: a client runs *passes* back to back,
//! each pass every row of the workload once. An untraced run reports the
//! end-to-end metrics of [`catalogue::END_TO_END`]; a traced run reports
//! the per-layer metrics of [`catalogue::per_layer`], timed by spans
//! around the benchmark's own calls into each layer's public functions
//! plus the counters each layer already exposes. Nothing inside the
//! runtime is changed or instrumented. See `README.md` beside this crate.

pub mod alloc;
pub mod catalogue;
pub mod clock;
pub mod host;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use dpf_suite::{Json, SuiteConfig};

use crate::catalogue::{bench_metric, END_TO_END};
use crate::clock::process_cpu_ns;
use crate::host::Host;
use crate::reference::Scaler;
use crate::stats::{median, tail, SplitMix};
use crate::trace::tracer;
use crate::workload::{metered_rows, suite_pass, Counts, Pass, Row, RowRun, Workload};

/// Timed passes an untraced run makes at least, so the tail percentile
/// has ten passes beyond it and sits at or above the median.
pub const MIN_PASSES: usize = 21;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// A run stops timing after this many times `--seconds` even if it has
/// fewer than its minimum passes (a slow host must still finish).
const MAX_STRETCH: f64 = 3.0;
/// Traced and untraced passes a traced run makes at least, each.
const MIN_TRACED_PASSES: usize = 2;

/// Only one run at a time per process: rows are handed to the harness
/// through process-wide slots, and the tracer is process-wide.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// The benchmark crate's directory in this checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: the row order within each pass.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Timed passes at least (untraced run).
    pub min_passes: usize,
    /// Set-ups per untraced run.
    pub setup_reps: usize,
    /// Where a traced run writes its trace, counts and metrics.
    pub out_dir: PathBuf,
}

impl Options {
    /// The settings the benchmark command uses.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Options {
        Options {
            workload,
            seed,
            seconds,
            min_passes: MIN_PASSES,
            setup_reps: SETUP_REPS,
            out_dir: bench_dir().join("out"),
        }
    }
}

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// `{name: {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".to_string(), Json::F64(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Rows run, set-up and checks included.
    pub attempted: u64,
    /// Rows that failed verification or the count checks.
    pub failed: u64,
    /// The run's metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (sample counts, percentiles, files).
    pub notes: Vec<String>,
    /// Host, workload and seed.
    pub host: Json,
}

impl Outcome {
    /// Rows that failed ÷ rows attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each a value with its unit).
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::U64(self.attempted)),
            ("failed".to_string(), Json::U64(self.failed)),
            ("metrics".to_string(), metrics_json(&self.metrics)),
        ])
        .render_compact()
    }
}

/// Rows attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, pass: &Pass, reference: &[Counts]) {
        self.attempted += pass.rows.len() as u64;
        self.failed += pass.failures(reference) as u64;
    }
}

/// Everything set-up builds: the registry with its metered runners, the
/// harness configuration, and the warm-up pass whose counts every later
/// pass must repeat.
struct Prepared {
    rows: Vec<Row>,
    cfg: SuiteConfig,
    warmup: Pass,
}

fn prepare(w: Workload) -> Prepared {
    let rows = metered_rows();
    let cfg = w.point().suite_config();
    let order: Vec<usize> = (0..rows.len()).collect();
    let warmup = suite_pass(&rows, &order, &cfg, 0);
    Prepared { rows, cfg, warmup }
}

/// One timed pass, rows in a fresh seeded order.
fn run_pass(prep: &Prepared, rng: &mut SplitMix, parent: u64) -> Pass {
    let mut order: Vec<usize> = (0..prep.rows.len()).collect();
    rng.shuffle(&mut order);
    suite_pass(&prep.rows, &order, &prep.cfg, parent)
}

/// Keep timing while under `secs` or short of `min` passes, but never
/// past [`MAX_STRETCH`] × `secs`.
fn measuring(start: Instant, passes: usize, secs: f64, min: usize) -> bool {
    let t = start.elapsed().as_secs_f64();
    passes == 0 || ((t < secs || passes < min) && t < secs * MAX_STRETCH)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn host_json(opts: &Options) -> Json {
    Host::probe(bench_dir().parent().unwrap_or(bench_dir()))
        .to_json(opts.workload.name(), opts.seed)
}

/// The untraced run: end-to-end metrics.
///
/// Every time in them is process CPU time, which leaves out the time
/// the host gives this VM's CPUs to other tenants, scaled by timings of
/// the workload's fixed [`reference`] kernel, which cancel drift in the
/// host's speed (see `README.md`): each pass by the timing right after
/// it, the set-up by the run's median. The raw CPU and wall times of the
/// same passes are printed as notes.
pub fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let _only = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().set_enabled(false);
    let w = opts.workload;
    let mut tally = Tally::default();
    let mut scaler = Scaler::new(w.reference());
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for rep in 0..opts.setup_reps.max(1) {
        // The first set-up counts from process start: the process CPU
        // clock starts at zero.
        let start = if rep == 0 { 0 } else { process_cpu_ns() };
        let prep = prepare(w);
        let cpu_s = secs(process_cpu_ns() - start);
        scaler.time(cpu_s);
        setups.push(cpu_s);
        // Every set-up's warm-up must repeat the first one's counts.
        let reference = prepared.as_ref().unwrap_or(&prep).warmup.counts();
        tally.check(&prep.warmup, &reference);
        prepared.get_or_insert(prep);
    }
    let prep = prepared.expect("at least one set-up ran");
    let reference = prep.warmup.counts();

    // Each pass's peak heap, above what was live when it began, is read
    // between passes, untimed.
    let mut rng = SplitMix::new(opts.seed);
    let (mut times, mut cpus, mut walls, mut heap) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while measuring(start, times.len(), opts.seconds, opts.min_passes) {
        let live = alloc::reset_peak();
        let pass = run_pass(&prep, &mut rng, 0);
        heap.push((alloc::peak_bytes() - live) as f64 / (1 << 20) as f64);
        tally.check(&pass, &reference);
        let cpu_s = secs(pass.cpu_ns);
        let per_call_s = scaler.time(cpu_s);
        times.push(scaler.scale(cpu_s, per_call_s));
        cpus.push(cpu_s);
        walls.push(secs(pass.wall_ns));
    }

    let flops = prep.warmup.flops();
    let t = tail(&times);
    let (cpu_s, wall_s) = (median(&cpus), median(&walls));
    let scaling = format!(
        "times are process CPU time at reference speed ({:?} kernel, median call {} ms)",
        w.reference(),
        median(&scaler.timings) * 1e3
    );
    let mut notes = vec![
        format!(
            "passes: {} timed (suite_cpu_s is their median; suite_tail_cpu_s is p{:.1}), \
             {flops} FLOPs per pass, {} set-ups; {scaling}",
            times.len(),
            t.percentile,
            setups.len()
        ),
        format!(
            "raw medians (not gated): pass {cpu_s} CPU s, {wall_s} wall s; \
             elapsed FLOP rate {} MFLOP/s",
            flops as f64 / wall_s / 1e6
        ),
        format!(
            "peak resident memory (VmHWM, not gated): {} MB",
            peak_rss_mb()?
        ),
    ];
    if let Some(point) = w.twin() {
        // Same class, other backend and procs: FLOPs must agree row for
        // row. Run after timing, so it moves neither set-up nor passes.
        let order: Vec<usize> = (0..prep.rows.len()).collect();
        let twin = suite_pass(&prep.rows, &order, &point.suite_config(), 0);
        let mismatched = twin
            .rows
            .iter()
            .filter(|r| !r.ok || r.counts.flops != reference[r.row].flops)
            .count();
        tally.attempted += twin.rows.len() as u64;
        tally.failed += mismatched as u64;
        notes.push(format!(
            "twin check: {} FLOPs per pass on {} with {} procs, {mismatched} row(s) differ",
            twin.flops(),
            point.backend,
            point.procs
        ));
    }

    let suite_s = median(&times);
    // In `END_TO_END` order.
    let values = [
        suite_s,
        t.value,
        flops as f64 / suite_s / 1e6,
        // One set-up is too short to scale by the timing after it alone:
        // the median set-up is scaled by the median call of the run.
        scaler.scale(median(&setups), median(&scaler.timings)),
        median(&heap),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name.to_string(),
            value,
            unit: m.unit,
        })
        .collect();
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        host: host_json(opts),
    };
    out.notes.push(format!(
        "failed_frac = {} ({} of {} rows)",
        out.failed_frac(),
        out.failed,
        out.attempted
    ));
    Ok(out)
}

/// Per-pass total of `f` over each pass's rows, median over passes.
fn per_pass(passes: &[Pass], f: impl Fn(&RowRun) -> f64) -> f64 {
    let totals: Vec<f64> = passes.iter().map(|p| p.rows.iter().map(&f).sum()).collect();
    median(&totals)
}

/// The traced run: per-layer metrics, a Chrome trace and a counts file.
pub fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let _only = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().set_enabled(false);
    tracer().take();
    let w = opts.workload;
    let prep = prepare(w);
    let reference = prep.warmup.counts();
    let mut tally = Tally::default();
    tally.check(&prep.warmup, &reference);

    // Probes first; passes fill the rest of `--seconds`.
    let start = Instant::now();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    tracer().set_enabled(true);
    let point = w.probe_point();
    let empty_us = tracer().span("probe", "probes", 0, |id| {
        for (name, value) in probe::primitives(point, opts.seed, id) {
            m.insert(name, value);
        }
        m.insert("rayon.fanout_us".into(), probe::rayon_fanout_us(id));
        let empty_us = probe::collective_us(point.procs, id);
        m.insert("spmd.collective_us".into(), empty_us);
        m.insert(
            "spmd.msg_us".into(),
            probe::msg_us(point.procs, empty_us, id),
        );
        let inventory: Vec<_> = prep.warmup.rows.iter().map(|r| &r.comm).collect();
        let (record_ns, replay_s) = probe::instr_replay(&inventory, id);
        m.insert("instr.record_ns".into(), record_ns);
        m.insert("instr.replay_s".into(), replay_s);
        empty_us
    });
    tracer().set_enabled(false);

    // Passes, alternately untraced and traced: the traced ones give the
    // per-layer split, the pair gives the tracing overhead.
    let mut rng = SplitMix::new(opts.seed);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    while measuring(
        start,
        plain.len().min(traced.len()),
        opts.seconds,
        MIN_TRACED_PASSES,
    ) {
        let on = plain.len() > traced.len();
        tracer().set_enabled(on);
        let pass = tracer().span("pass", w.name(), 0, |id| run_pass(&prep, &mut rng, id));
        tracer().set_enabled(false);
        tally.check(&pass, &reference);
        if on {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }
    let plain_s = median(&plain.iter().map(|p| secs(p.wall_ns)).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|p| secs(p.wall_ns)).collect::<Vec<_>>());

    let useful = per_pass(&traced, |r| f64::from(u8::from(r.ok && r.attempts == 1)));
    let attempts = per_pass(&traced, |r| f64::from(r.attempts));
    m.insert(
        "harness.self_s".into(),
        per_pass(&traced, |r| secs(r.wall_ns.saturating_sub(r.runner_ns))),
    );
    m.insert("harness.attempts".into(), attempts);
    m.insert("harness.first_try_ratio".into(), useful / attempts);
    let busy_s = per_pass(&traced, |r| secs(r.busy_ns));
    let flops = prep.warmup.flops() as f64;
    m.insert(
        "runner.elapsed_s".into(),
        per_pass(&traced, |r| secs(r.runner_ns)),
    );
    m.insert("runner.busy_s".into(), busy_s);
    m.insert(
        "runner.glue_s".into(),
        per_pass(&traced, |r| secs(r.runner_ns.saturating_sub(r.busy_ns))),
    );
    m.insert("runner.flops".into(), flops);
    m.insert("runner.busy_mflops".into(), flops / busy_s / 1e6);
    for (group, name) in [
        (dpf_suite::Group::Communication, "communication"),
        (dpf_suite::Group::LinearAlgebra, "linear-algebra"),
        (dpf_suite::Group::Application, "application"),
    ] {
        let s = per_pass(&traced, |r| {
            if r.group == group {
                secs(r.runner_ns)
            } else {
                0.0
            }
        });
        m.insert(format!("runner.group.{name}_s"), s);
    }
    for entry in dpf_suite::registry() {
        let ms = per_pass(&traced, |r| {
            if r.bench == entry.name {
                secs(r.runner_ns) * 1e3
            } else {
                0.0
            }
        });
        m.insert(bench_metric(entry.name), ms);
    }

    // Deterministic counts: the warm-up's, which every pass repeated.
    let warmup = &prep.warmup;
    let total = |f: fn(&RowRun) -> u64| warmup.rows.iter().map(f).sum::<u64>() as f64;
    m.insert("instr.comm_calls".into(), total(|r| r.counts.comm_calls));
    m.insert(
        "instr.comm_elements".into(),
        total(|r| r.counts.comm_elements),
    );
    m.insert(
        "instr.offproc_bytes".into(),
        total(|r| r.counts.offproc_bytes),
    );
    m.insert(
        "instr.declared_bytes".into(),
        total(|r| r.counts.declared_bytes),
    );
    let (hits, misses) = (total(|r| r.pool_hits), total(|r| r.pool_misses));
    m.insert("pool.hits".into(), hits);
    m.insert("pool.misses".into(), misses);
    m.insert(
        "pool.hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let collectives = total(|r| r.counts.link.collectives);
    m.insert("spmd.collectives".into(), collectives);
    m.insert("spmd.messages".into(), total(|r| r.counts.link.messages));
    m.insert(
        "spmd.payload_bytes".into(),
        total(|r| r.counts.link.payload_bytes),
    );
    m.insert(
        "spmd.retransmits".into(),
        total(|r| r.counts.link.retransmits),
    );
    m.insert(
        "spmd.replicas_pushed".into(),
        total(|r| r.counts.link.replicas_pushed),
    );

    m.insert(
        "spmd.collective_share".into(),
        collectives * empty_us * 1e-6 / plain_s,
    );
    m.insert("trace.overhead_frac".into(), traced_s / plain_s - 1.0);

    let mut metrics = Vec::new();
    for (name, unit, _) in catalogue::per_layer() {
        let value = m
            .remove(&name)
            .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
        metrics.push(Metric { name, value, unit });
    }
    if let Some(extra) = m.keys().next() {
        return Err(format!("metric {extra} is not in the catalogue"));
    }

    let host = host_json(opts);
    let files = write_trace_files(opts, &host, warmup, &metrics)?;
    let notes = vec![
        format!("passes: {} untraced, {} traced", plain.len(), traced.len()),
        format!("files: {}", files.join(", ")),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        host,
    })
}

/// Write the Chrome trace, the deterministic per-row counts of `pass`
/// and the per-layer metrics under `opts.out_dir`. Returns the paths.
fn write_trace_files(
    opts: &Options,
    host: &Json,
    pass: &Pass,
    metrics: &[Metric],
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let mut rows: Vec<&RowRun> = pass.rows.iter().collect();
    rows.sort_by_key(|r| r.row);
    let counts = rows
        .iter()
        .map(|r| {
            let (c, l) = (&r.counts, &r.counts.link);
            let fields = [
                ("flops", c.flops),
                ("comm_calls", c.comm_calls),
                ("comm_elements", c.comm_elements),
                ("offproc_bytes", c.offproc_bytes),
                ("declared_bytes", c.declared_bytes),
                ("collectives", l.collectives),
                ("messages", l.messages),
                ("payload_bytes", l.payload_bytes),
                ("retransmits", l.retransmits),
                ("replicas_pushed", l.replicas_pushed),
                ("pool_hits", r.pool_hits),
                ("pool_misses", r.pool_misses),
            ];
            let mut obj = vec![("bench".to_string(), Json::str(r.bench))];
            obj.extend(fields.map(|(k, v)| (k.to_string(), Json::U64(v))));
            Json::Obj(obj)
        })
        .collect();
    let counts = Json::Obj(vec![
        ("workload".to_string(), Json::str(opts.workload.name())),
        ("rows".to_string(), Json::Arr(counts)),
    ]);
    let layers = Json::Obj(vec![
        ("host".to_string(), host.clone()),
        ("metrics".to_string(), metrics_json(metrics)),
    ]);
    let files = [
        (
            format!("{stem}.trace.json"),
            trace::chrome_json(&tracer().take()),
        ),
        (format!("{stem}.counts.json"), counts),
        (format!("{stem}.layers.json"), layers),
    ];
    let mut written = Vec::new();
    for (name, json) in files {
        let path = opts.out_dir.join(name);
        std::fs::write(&path, json.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}
