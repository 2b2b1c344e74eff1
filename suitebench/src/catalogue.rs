//! Every metric the benchmark reports, with its unit, its direction and
//! — for per-layer metrics — the end-to-end metric and workload it is
//! predicted to move. `BENCHMARK.json` at the repository root lists the
//! same names; a self-test keeps the two in step.

/// An end-to-end metric: what a user of the suite sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "suite_cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "suite_tail_cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_mflops",
        unit: "MFLOP/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric and the (end-to-end metric, workload) pairs a
/// change to its layer should move.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Predicted effect: `(end-to-end metric, workload)`.
    pub moves: &'static [(&'static str, &'static str)],
}

const A: &str = "suite-A-virtual";
const SV: &str = "suite-S-virtual";
const SP: &str = "suite-S-spmd4";

const HARNESS: &[(&str, &str)] = &[("suite_cpu_s", SV)];
const KERNEL: &[(&str, &str)] = &[("suite_cpu_s", A), ("cpu_mflops", A)];
const GLUE: &[(&str, &str)] = &[("suite_cpu_s", SV)];
const GROUP: &[(&str, &str)] = &[("suite_cpu_s", A), ("suite_cpu_s", SV)];
const ACCOUNTING: &[(&str, &str)] = &[("suite_cpu_s", SV)];
const POOL: &[(&str, &str)] = &[("suite_cpu_s", SV), ("peak_heap_mb", A)];
const TRANSPORT: &[(&str, &str)] = &[("suite_cpu_s", SP)];
const PRIMITIVE: &[(&str, &str)] = &[("suite_cpu_s", A), ("cpu_mflops", A), ("suite_cpu_s", SV)];
const FANOUT: &[(&str, &str)] = &[("suite_cpu_s", A)];
/// `bench.<name>_ms`: each moves `suite_cpu_s` on every workload.
pub const BENCH_MOVES: &[(&str, &str)] =
    &[("suite_cpu_s", A), ("suite_cpu_s", SV), ("suite_cpu_s", SP)];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics of a traced run, apart from the 32
/// `bench.<name>_ms` rows, which follow `runner.*` in [`per_layer`].
pub const LAYERS: &[Layer] = &[
    layer("harness.self_s", "s", "lower", HARNESS),
    layer("harness.attempts", "count", "lower", HARNESS),
    layer("harness.first_try_ratio", "ratio", "higher", HARNESS),
    layer("runner.elapsed_s", "s", "lower", KERNEL),
    layer("runner.busy_s", "s", "lower", KERNEL),
    layer("runner.glue_s", "s", "lower", GLUE),
    layer("runner.flops", "count", "lower", KERNEL),
    layer("runner.busy_mflops", "MFLOP/s", "higher", KERNEL),
    layer("runner.group.communication_s", "s", "lower", GROUP),
    layer("runner.group.linear-algebra_s", "s", "lower", GROUP),
    layer("runner.group.application_s", "s", "lower", GROUP),
    layer("instr.comm_calls", "count", "lower", ACCOUNTING),
    layer("instr.comm_elements", "count", "lower", ACCOUNTING),
    layer("instr.offproc_bytes", "bytes", "lower", TRANSPORT),
    layer("instr.declared_bytes", "bytes", "lower", POOL),
    layer("instr.record_ns", "ns", "lower", ACCOUNTING),
    layer("instr.replay_s", "s", "lower", ACCOUNTING),
    layer("pool.hits", "count", "higher", POOL),
    layer("pool.misses", "count", "lower", POOL),
    layer("pool.hit_ratio", "ratio", "higher", POOL),
    layer("spmd.collectives", "count", "lower", TRANSPORT),
    layer("spmd.messages", "count", "lower", TRANSPORT),
    layer("spmd.payload_bytes", "bytes", "lower", TRANSPORT),
    layer("spmd.retransmits", "count", "lower", TRANSPORT),
    layer("spmd.replicas_pushed", "count", "lower", TRANSPORT),
    layer("spmd.collective_us", "us", "lower", TRANSPORT),
    layer("spmd.msg_us", "us", "lower", TRANSPORT),
    layer("spmd.collective_share", "ratio", "lower", TRANSPORT),
    layer("comm.cshift_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.sum_all_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.spread_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.gather_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.scatter_combine_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.transpose_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.scan_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.stencil_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.sort_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("array.map_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("array.zip_map_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("array.fuse_eval_ns_per_elem", "ns", "lower", PRIMITIVE),
    layer("comm.cshift_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.sum_all_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.spread_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.gather_computed_bytes", "bytes", "lower", KERNEL),
    layer(
        "comm.scatter_combine_computed_bytes",
        "bytes",
        "lower",
        KERNEL,
    ),
    layer("comm.transpose_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.scan_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.stencil_computed_bytes", "bytes", "lower", KERNEL),
    layer("comm.sort_computed_bytes", "bytes", "lower", KERNEL),
    layer("array.map_computed_bytes", "bytes", "lower", KERNEL),
    layer("array.zip_map_computed_bytes", "bytes", "lower", KERNEL),
    layer("array.fuse_eval_computed_bytes", "bytes", "lower", KERNEL),
    layer("rayon.fanout_us", "us", "lower", FANOUT),
    layer("trace.overhead_frac", "ratio", "lower", &[]),
];

/// Name of the per-benchmark runner-time metric.
pub fn bench_metric(bench: &str) -> String {
    format!("bench.{bench}_ms")
}

/// Every per-layer metric as `(name, unit, better)`, in report order:
/// [`LAYERS`] with one `bench.<name>_ms` row per registry benchmark
/// after the `runner.*` rows.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let split = LAYERS
        .iter()
        .position(|l| l.name.starts_with("instr."))
        .expect("instr.* rows follow runner.* rows");
    for l in &LAYERS[..split] {
        out.push((l.name.to_string(), l.unit, l.better));
    }
    for entry in dpf_suite::registry() {
        out.push((bench_metric(entry.name), "ms", "lower"));
    }
    for l in &LAYERS[split..] {
        out.push((l.name.to_string(), l.unit, l.better));
    }
    out
}
