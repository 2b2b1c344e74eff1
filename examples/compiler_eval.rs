//! Compiler evaluation — the suite's raison d'être (paper §1.1): compare
//! a "typical user code" against a tuned library version of the same
//! kernel, across virtual machine sizes, using the §1.5 metrics.
//!
//! Here: `matrix-vector` basic (`SUM(SPREAD(x)·A, dim)`, what an HPF
//! compiler sees) versus library (the CMSSL-style blocked kernel), the
//! exact comparison CMSSL existed to win in 1997.
//!
//! Run with: `cargo run --release --example compiler_eval`

use std::time::Instant;

use dpf::core::Machine;
use dpf::suite::{find, run, ProblemClass, Size, Version};

fn main() {
    let entry = find("matrix-vector").expect("registry");
    let size = Size::Class(ProblemClass::B);
    println!("matrix-vector: basic (compiler-visible) vs library (tuned kernel)\n");
    println!(
        "{:<8} {:<10} {:>12} {:>12} {:>12} {:>12}",
        "procs", "version", "FLOPs", "busy (ms)", "elapsed(ms)", "busy MF/s"
    );
    for procs in [1usize, 8, 32, 128] {
        let machine = Machine::cm5(procs);
        for version in [Version::Basic, Version::Library] {
            let res = run(&entry, version, &machine, size);
            assert!(res.report.verify.is_pass());
            let p = &res.report.perf;
            println!(
                "{:<8} {:<10} {:>12} {:>12.3} {:>12.3} {:>12.1}",
                procs,
                version.name(),
                p.flops,
                p.busy.as_secs_f64() * 1e3,
                p.elapsed.as_secs_f64() * 1e3,
                p.busy_mflops()
            );
        }
    }

    // Wall-clock speedup of the tuned kernel over repeated trials.
    let machine = Machine::cm5(32);
    let trials = 5;
    let mut t_basic = f64::INFINITY;
    let mut t_lib = f64::INFINITY;
    for _ in 0..trials {
        let s = Instant::now();
        let _ = run(&entry, Version::Basic, &machine, size);
        t_basic = t_basic.min(s.elapsed().as_secs_f64());
        let s = Instant::now();
        let _ = run(&entry, Version::Library, &machine, size);
        t_lib = t_lib.min(s.elapsed().as_secs_f64());
    }
    println!(
        "\nbest-of-{trials} wall clock: basic {:.1} ms, library {:.1} ms — {:.2}x",
        t_basic * 1e3,
        t_lib * 1e3,
        t_basic / t_lib
    );
    println!(
        "The basic spelling materializes the SPREAD and the product matrix;\n\
         the library version streams rows through dot products. The gap is\n\
         what the DPF suite asked compilers to close."
    );
}
