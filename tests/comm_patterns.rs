//! Tables 3 and 7: every benchmark's *measured* communication pattern set
//! must contain exactly the dominating patterns its registry entry (and
//! the paper) declares.

use std::collections::BTreeSet;

use dpf::core::{CommPattern, Machine};
use dpf::suite::{registry, run_basic, ProblemClass, Size};

const CLASS_S: Size = Size::Class(ProblemClass::S);

#[test]
fn measured_patterns_cover_the_declared_set() {
    let machine = Machine::cm5(8);
    for entry in registry() {
        let res = run_basic(&entry, &machine, CLASS_S);
        let measured: BTreeSet<CommPattern> = res.report.comm.keys().map(|k| k.pattern).collect();
        for want in entry.patterns {
            assert!(
                measured.contains(want),
                "{}: declared pattern {want} was not recorded (measured: {measured:?})",
                entry.name
            );
        }
    }
}

#[test]
fn embarrassingly_parallel_codes_record_no_communication() {
    // Paper §4: "gmo and fermion are the only two embarrassingly
    // parallel" application codes.
    let machine = Machine::cm5(8);
    for name in ["gmo", "fermion"] {
        let entry = dpf::suite::find(name).unwrap();
        let res = run_basic(&entry, &machine, CLASS_S);
        assert!(
            res.report.comm.is_empty(),
            "{name} recorded communication: {:?}",
            res.report.comm.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn stencil_codes_do_not_leak_constituent_shifts() {
    // Table 6 counts "1 7-point Stencil" for diff-3D: the composite
    // stencil must be recorded once per step with its internal shifts
    // suppressed.
    let entry = dpf::suite::find("diff-3D").unwrap();
    let res = run_basic(&entry, &Machine::cm5(8), CLASS_S);
    let stencils = res
        .report
        .comm
        .iter()
        .filter(|(k, _)| k.pattern == CommPattern::Stencil)
        .map(|(_, s)| s.calls)
        .sum::<u64>();
    assert_eq!(stencils, res.output.iterations);
    let cshifts = res
        .report
        .comm
        .iter()
        .filter(|(k, _)| k.pattern == CommPattern::Cshift)
        .count();
    assert_eq!(cshifts, 0, "stencil constituents leaked as CSHIFTs");
}

#[test]
fn aapc_rank_classification_matches_transpose() {
    // Table 3 classifies the fft AAPC by rank; the transpose benchmark's
    // AAPC must be recorded as 2-D to 2-D.
    let entry = dpf::suite::find("transpose").unwrap();
    let res = run_basic(&entry, &Machine::cm5(8), CLASS_S);
    for key in res.report.comm.keys() {
        assert_eq!(key.pattern, CommPattern::Aapc);
        assert_eq!((key.src_rank, key.dst_rank), (2, 2));
    }
}

#[test]
fn table6_comm_counts_for_fixed_count_codes() {
    // Codes whose per-iteration communication count is exact in Table 6.
    let machine = Machine::cm5(8);
    let cases: [(&str, CommPattern, u64); 4] = [
        ("step4", CommPattern::Cshift, 128),
        ("rp", CommPattern::Cshift, 12), // per iteration; setup adds 12 once
        ("ellip-2D", CommPattern::Cshift, 4),
        ("fem-3D", CommPattern::Gather, 1),
    ];
    for (name, pattern, per_iter) in cases {
        let entry = dpf::suite::find(name).unwrap();
        let res = run_basic(&entry, &machine, CLASS_S);
        let calls: u64 = res
            .report
            .comm
            .iter()
            .filter(|(k, _)| k.pattern == pattern)
            .map(|(_, s)| s.calls)
            .sum();
        let iters = res.output.iterations;
        assert!(
            calls == per_iter * iters || calls == per_iter * (iters + 1),
            "{name}: {calls} {pattern} calls over {iters} iterations (want {per_iter}/iter)"
        );
    }
}
