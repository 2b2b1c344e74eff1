//! Generators for every table of the paper (Tables 1–8) plus the §1.5
//! performance report.
//!
//! Tables 1, 2, 5 and 8 are rendered from registry metadata (they
//! characterize the source codes). Tables 3, 4, 6 and 7 are rendered from
//! **measured** instrumentation of small runs, so the suite demonstrates
//! that its implementations actually exhibit the communication structure
//! the paper tabulates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dpf_core::cost::CostModel;
use dpf_core::{CommPattern, Machine, ProblemClass};

use crate::benchmark::{Group, Size, Version};
use crate::harness;
use crate::registry::registry;

/// The §1.5 communication inventory: which patterns each benchmark's
/// tables row declares (the union of its Tables 3/7 appearances). This
/// is the lintable ground truth the `comm-inventory` rule in `dpf-lint`
/// cross-checks the registry's `patterns` fields against — the two
/// spellings of the same paper fact must never drift apart. Keep the
/// entries in Table 1's alphabetical order, one per benchmark.
pub const COMM_INVENTORY: &[(&str, &[CommPattern])] = &[
    ("boson", &[CommPattern::Cshift]),
    ("conj-grad", &[CommPattern::Cshift, CommPattern::Reduction]),
    ("diff-1D", &[CommPattern::Stencil, CommPattern::Cshift]),
    ("diff-2D", &[CommPattern::Stencil, CommPattern::Aapc]),
    ("diff-3D", &[CommPattern::Stencil]),
    ("ellip-2D", &[CommPattern::Cshift, CommPattern::Reduction]),
    (
        "fem-3D",
        &[CommPattern::Gather, CommPattern::ScatterCombine],
    ),
    ("fermion", &[]),
    ("fft", &[CommPattern::Cshift, CommPattern::Aapc]),
    ("gather", &[CommPattern::Gather]),
    (
        "gauss-jordan",
        &[
            CommPattern::Reduction,
            CommPattern::Send,
            CommPattern::Get,
            CommPattern::Broadcast,
        ],
    ),
    ("gmo", &[]),
    (
        "jacobi",
        &[
            CommPattern::Cshift,
            CommPattern::Send,
            CommPattern::Broadcast,
        ],
    ),
    ("ks-spectral", &[CommPattern::Butterfly]),
    ("lu", &[CommPattern::Reduction, CommPattern::Broadcast]),
    (
        "matrix-vector",
        &[CommPattern::Broadcast, CommPattern::Reduction],
    ),
    (
        "md",
        &[
            CommPattern::Spread,
            CommPattern::Reduction,
            CommPattern::Send,
            CommPattern::Aabc,
        ],
    ),
    ("mdcell", &[CommPattern::Cshift, CommPattern::Scatter]),
    ("n-body", &[CommPattern::Broadcast, CommPattern::Aabc]),
    ("pcr", &[CommPattern::Cshift]),
    (
        "pic-gather-scatter",
        &[
            CommPattern::Sort,
            CommPattern::Scan,
            CommPattern::Scatter,
            CommPattern::Gather,
        ],
    ),
    (
        "pic-simple",
        &[
            CommPattern::GatherCombine,
            CommPattern::Butterfly,
            CommPattern::Gather,
        ],
    ),
    ("qcd-kernel", &[CommPattern::Cshift, CommPattern::Reduction]),
    (
        "qmc",
        &[CommPattern::Scan, CommPattern::Send, CommPattern::Reduction],
    ),
    (
        "qptransport",
        &[
            CommPattern::Sort,
            CommPattern::Scan,
            CommPattern::Cshift,
            CommPattern::Eoshift,
            CommPattern::ScatterCombine,
            CommPattern::Gather,
            CommPattern::Reduction,
        ],
    ),
    ("qr", &[CommPattern::Reduction, CommPattern::Broadcast]),
    ("reduction", &[CommPattern::Reduction]),
    ("rp", &[CommPattern::Cshift, CommPattern::Reduction]),
    (
        "scatter",
        &[CommPattern::Scatter, CommPattern::ScatterCombine],
    ),
    ("step4", &[CommPattern::Cshift]),
    ("transpose", &[CommPattern::Aapc]),
    ("wave-1D", &[CommPattern::Cshift, CommPattern::Butterfly]),
];

/// The inventory entry for one benchmark, if declared.
pub fn comm_inventory(name: &str) -> Option<&'static [CommPattern]> {
    COMM_INVENTORY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, pats)| pats)
}

/// Table 1 — benchmark suite code versions.
pub fn table1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1. Benchmark suite code versions");
    let _ = writeln!(
        s,
        "{:<20} {:>6} {:>10} {:>8} {:>6} {:>8}",
        "Benchmark Name", "basic", "optimized", "library", "CMSSL", "C/DPEAC"
    );
    for e in registry() {
        let mark = |v: Version| {
            if e.paper_versions.contains(&v) {
                "x"
            } else {
                ""
            }
        };
        let _ = writeln!(
            s,
            "{:<20} {:>6} {:>10} {:>8} {:>6} {:>8}",
            e.name,
            mark(Version::Basic),
            mark(Version::Optimized),
            mark(Version::Library),
            mark(Version::Cmssl),
            mark(Version::CDpeac)
        );
    }
    s
}

/// Table 2 — data representation and layout, linear-algebra kernels.
pub fn table2() -> String {
    layouts_table(Group::LinearAlgebra, "Table 2. Data representation and layout for dominating computations in linear algebra kernels")
}

/// Table 5 — data representation and layout, application codes.
pub fn table5() -> String {
    layouts_table(Group::Application, "Table 5. Data representation and layout for dominating computations in the Application codes")
}

fn layouts_table(group: Group, title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<20} Arrays (\":serial\" local, \":\" parallel)",
        "Code"
    );
    for e in registry().iter().filter(|e| e.group == group) {
        let _ = writeln!(s, "{:<20} {}", e.name, e.layouts.join("  "));
    }
    s
}

/// Tables 3 and 7 — measured communication patterns, classified by the
/// rank of the arrays involved (runs every benchmark of the group at
/// class S and snapshots the recorded pattern keys).
pub fn comm_patterns_table(group: Group, machine: &Machine, title: &str) -> String {
    let mut rows: BTreeMap<CommPattern, Vec<String>> = BTreeMap::new();
    for e in registry().iter().filter(|e| e.group == group) {
        let res = harness::run_basic(e, machine, Size::Class(ProblemClass::S));
        let mut seen: BTreeMap<CommPattern, Vec<String>> = BTreeMap::new();
        for key in res.report.comm.keys() {
            let label = if key.src_rank == key.dst_rank {
                format!("{} ({}-D)", e.name, key.src_rank)
            } else {
                format!("{} ({}-D to {}-D)", e.name, key.src_rank, key.dst_rank)
            };
            seen.entry(key.pattern).or_default().push(label);
        }
        for (p, mut labels) in seen {
            labels.dedup();
            rows.entry(p).or_default().extend(labels);
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "{:<22} Codes (measured)", "Communication Pattern");
    for (pattern, codes) in rows {
        let _ = writeln!(s, "{:<22} {}", pattern.to_string(), codes.join(", "));
    }
    s
}

/// Table 3 — communication of linear-algebra kernels (measured).
pub fn table3(machine: &Machine) -> String {
    comm_patterns_table(
        Group::LinearAlgebra,
        machine,
        "Table 3. Communication of linear algebra kernels",
    )
}

/// Table 7 — communication patterns in application codes (measured).
pub fn table7(machine: &Machine) -> String {
    comm_patterns_table(
        Group::Application,
        machine,
        "Table 7. Communication patterns in application codes",
    )
}

/// Tables 4 and 6 — computation-to-communication ratio of the main loop:
/// measured FLOPs/iteration, declared memory, communication calls per
/// iteration, local access class — beside the paper's formulas.
pub fn ratio_table(group: Group, machine: &Machine, size: Size, title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<20} {:>14} {:>14} {:>10} {:>9}  {:<34} paper comm/iter",
        "Code", "FLOPs/iter", "Memory (B)", "comm/iter", "access", "paper FLOPs/iter"
    );
    for e in registry().iter().filter(|e| e.group == group) {
        let res = harness::run_basic(e, machine, size);
        let flops_per_iter = res
            .report
            .perf
            .flops
            .checked_div(res.output.iterations)
            .unwrap_or(res.report.perf.flops);
        let _ = writeln!(
            s,
            "{:<20} {:>14} {:>14} {:>10.1} {:>9}  {:<34} {}",
            e.name,
            flops_per_iter,
            res.report.memory_bytes,
            res.comm_per_iteration(),
            e.local_access.to_string(),
            e.flops_formula,
            e.comm_formula
        );
    }
    s
}

/// Table 4 — linear-algebra main-loop characterization (measured).
pub fn table4(machine: &Machine, size: Size) -> String {
    ratio_table(
        Group::LinearAlgebra,
        machine,
        size,
        "Table 4. Computation to communication ratio in the main loop of linear algebra library codes",
    )
}

/// Table 6 — application main-loop characterization (measured).
pub fn table6(machine: &Machine, size: Size) -> String {
    ratio_table(
        Group::Application,
        machine,
        size,
        "Table 6. Computation to communication ratio in the main loop of the Application codes",
    )
}

/// Table 8 — implementation techniques for stencil, gather/scatter and
/// AABC communication.
pub fn table8() -> String {
    let mut rows: BTreeMap<&str, Vec<(String, &str)>> = BTreeMap::new();
    for e in registry() {
        for &(pattern, technique) in e.techniques {
            rows.entry(pattern)
                .or_default()
                .push((e.name.to_string(), technique));
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 8. Implementation techniques for stencil, gather/scatter and AABC communication"
    );
    let _ = writeln!(
        s,
        "{:<22} {:<22} Implementation Technique",
        "Communication Pattern", "Code"
    );
    for (pattern, codes) in rows {
        for (code, technique) in codes {
            let _ = writeln!(s, "{:<22} {:<22} {}", pattern, code, technique);
        }
    }
    s
}

/// The §1.5 performance report over the whole suite: busy/elapsed times
/// and FLOP rates, verification, plus the modeled CM-5-class time from
/// the recorded statistics.
pub fn perf_report(machine: &Machine, size: Size) -> String {
    let cost = CostModel::cm5();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "DPF performance report — machine: {} virtual processors, size: {}",
        machine.nprocs, size
    );
    let _ = writeln!(
        s,
        "{:<20} {:>12} {:>11} {:>11} {:>11} {:>11} {:>13} {:>8}",
        "benchmark",
        "FLOPs",
        "busy (s)",
        "elapsed(s)",
        "busy MF/s",
        "elap MF/s",
        "modeled(s)",
        "verify"
    );
    for e in registry() {
        let res = harness::run_basic(&e, machine, size);
        let p = &res.report.perf;
        let modeled = cost.total_time(machine, p.flops, &res.report.comm);
        let _ = writeln!(
            s,
            "{:<20} {:>12} {:>11.4} {:>11.4} {:>11.1} {:>11.1} {:>13.4} {:>8}",
            e.name,
            p.flops,
            p.busy.as_secs_f64(),
            p.elapsed.as_secs_f64(),
            p.busy_mflops(),
            p.elapsed_mflops(),
            modeled.as_secs_f64(),
            if res.report.verify.is_pass() {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    s
}

/// Modeled-scalability table: for each benchmark, the analytic
/// CM-5-class time at the partition sizes the CM-5 shipped in
/// (32/64/128/256/512 nodes), from the measured FLOP and communication
/// statistics. This is the machine-size axis of the paper's evaluation:
/// compute-bound codes scale nearly linearly; communication-bound codes
/// flatten where the network terms dominate.
pub fn scalability_table(size: Size) -> String {
    let cost = CostModel::cm5();
    let partitions = [32usize, 64, 128, 256, 512];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Modeled CM-5 time (seconds) vs partition size, from measured statistics"
    );
    let _ = write!(s, "{:<20}", "benchmark");
    for p in partitions {
        let _ = write!(s, " {:>10}", format!("P={p}"));
    }
    let _ = writeln!(s, " {:>9}", "speedup");
    for e in registry() {
        let _ = write!(s, "{:<20}", e.name);
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        for (k, p) in partitions.iter().enumerate() {
            let machine = Machine::cm5(*p);
            let res = harness::run_basic(&e, &machine, size);
            let t = cost
                .total_time(&machine, res.report.perf.flops, &res.report.comm)
                .as_secs_f64();
            if k == 0 {
                first = t;
            }
            last = t;
            let _ = write!(s, " {:>10.5}", t);
        }
        let _ = writeln!(s, " {:>8.2}x", first / last.max(1e-300));
    }
    s
}

/// The matrix-vector layout sweep (Table 2's four variants, measured):
/// identical answers, different data motion — the layout axis the paper
/// uses matrix-vector to demonstrate.
pub fn matvec_layouts_table(machine: &Machine) -> String {
    use dpf_core::Ctx;
    use dpf_linalg::matvec::{matvec_basic, workload, MvLayout};
    let (ni, n, m) = (4usize, 64usize, 64usize);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "matrix-vector layout sweep (i={ni}, n={n}, m={m}, {} procs)",
        machine.nprocs
    );
    let _ = writeln!(
        s,
        "{:<42} {:>12} {:>12} {:>14}",
        "layout (Table 2)", "FLOPs", "comm calls", "off-proc bytes"
    );
    for layout in MvLayout::ALL {
        let ctx = Ctx::new(machine.clone());
        let (a, x) = workload(&ctx, layout, ni, n, m);
        let _ = matvec_basic(&ctx, &a, &x);
        let snap = ctx.instr.comm_snapshot();
        let calls: u64 = snap.values().map(|st| st.calls).sum();
        let bytes: u64 = snap.values().map(|st| st.offproc_bytes).sum();
        let _ = writeln!(
            s,
            "{:<42} {:>12} {:>12} {:>14}",
            layout.name(),
            ctx.instr.flops(),
            calls,
            bytes
        );
    }
    s
}

/// Arithmetic-efficiency table for the linear-algebra codes (§1.5
/// attribute 2: busy FLOP rate over the machine's peak).
pub fn efficiency_table(machine: &Machine, size: Size) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Arithmetic efficiency of the linear-algebra codes");
    let _ = writeln!(
        s,
        "{:<20} {:>12} {:>14}",
        "code", "busy MF/s", "efficiency (%)"
    );
    for e in registry()
        .iter()
        .filter(|e| e.group == Group::LinearAlgebra)
    {
        let res = harness::run_basic(e, machine, size);
        let _ = writeln!(
            s,
            "{:<20} {:>12.1} {:>14.2}",
            e.name,
            res.report.perf.busy_mflops(),
            res.report.perf.arithmetic_efficiency(machine)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_inventory_matches_registry_exactly() {
        let reg = registry();
        assert_eq!(
            COMM_INVENTORY.len(),
            reg.len(),
            "one inventory entry per benchmark"
        );
        for e in &reg {
            let declared = comm_inventory(e.name)
                .unwrap_or_else(|| panic!("{} missing from COMM_INVENTORY", e.name));
            assert_eq!(
                declared, e.patterns,
                "{}: §1.5 inventory and registry patterns drifted apart",
                e.name
            );
        }
        for (name, _) in COMM_INVENTORY {
            assert!(
                reg.iter().any(|e| e.name == *name),
                "inventory lists unknown benchmark {name}"
            );
        }
    }

    #[test]
    fn table1_lists_all_benchmarks_with_basic() {
        let t = table1();
        assert!(t.contains("boson"));
        assert!(t.contains("wave-1D"));
        assert_eq!(t.matches('\n').count(), 34); // title + header + 32 rows
    }

    #[test]
    fn layout_tables_cover_their_groups() {
        let t2 = table2();
        assert!(t2.contains("matrix-vector"));
        assert!(t2.contains("X(:serial,:,:)") || t2.contains("X(:,:)"));
        let t5 = table5();
        assert!(t5.contains("qcd-kernel"));
        assert!(t5.contains("x(:serial,:,:,:,:,:)"));
    }

    #[test]
    fn table3_shows_measured_linalg_patterns() {
        let t = table3(&Machine::cm5(8));
        assert!(t.contains("CSHIFT"), "{t}");
        assert!(t.contains("Reduction"), "{t}");
        assert!(t.contains("AAPC"), "{t}");
        assert!(t.contains("conj-grad"), "{t}");
    }

    #[test]
    fn table8_lists_techniques() {
        let t = table8();
        assert!(t.contains("chained CSHIFT"));
        assert!(t.contains("CMSSL partitioned gather utility"));
        assert!(t.contains("FORALL w/ SUM"));
    }
}
