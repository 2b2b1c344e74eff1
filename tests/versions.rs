//! The Table 1 version axis: every alternate code path must compute the
//! same answer as the basic version and keep the comm/FLOP accounting
//! consistent.

use dpf::core::Machine;
use dpf::suite::{find, registry, run, ProblemClass, Size, Version};

const CLASS_S: Size = Size::Class(ProblemClass::S);

#[test]
fn every_runnable_variant_verifies() {
    let machine = Machine::cm5(8);
    for entry in registry() {
        for variant in entry.variants {
            let res = run(&entry, variant.version, &machine, CLASS_S);
            assert!(
                res.report.verify.is_pass(),
                "{} ({}) failed: {}",
                entry.name,
                variant.version,
                res.report.verify
            );
        }
    }
}

#[test]
fn optimized_variants_charge_comparable_flops() {
    // The version axis changes the spelling, not the mathematics: FLOP
    // charges must agree within bookkeeping tolerance.
    let machine = Machine::cm5(8);
    for (name, alt) in [
        ("conj-grad", Version::Optimized),
        ("diff-3D", Version::Optimized),
        ("step4", Version::CDpeac),
        ("matrix-vector", Version::Library),
        ("lu", Version::Cmssl),
    ] {
        let entry = find(name).unwrap();
        let basic = run(&entry, Version::Basic, &machine, CLASS_S);
        let tuned = run(&entry, alt, &machine, CLASS_S);
        let (fb, ft) = (
            basic.report.perf.flops as f64,
            tuned.report.perf.flops as f64,
        );
        assert!(
            (fb - ft).abs() / fb < 0.15,
            "{name}: basic {fb} vs {alt} {ft}"
        );
    }
}

#[test]
fn variant_count_matches_registry_claims() {
    // Benchmarks with multiple runnable variants.
    for (name, want) in [
        ("matrix-vector", 2usize),
        ("n-body", 2),
        ("pcr", 3),
        ("conj-grad", 2),
        ("diff-3D", 2),
        ("step4", 2),
        ("lu", 2),
    ] {
        let entry = find(name).unwrap();
        assert_eq!(entry.variants.len(), want, "{name}");
    }
}
