//! # DPF — the Data Parallel Fortran benchmark suite, in Rust
//!
//! A reproduction of *"DPF: A Data Parallel Fortran Benchmark Suite"*
//! (Hu, Johnsson, Kehagias, Shalaby — IPPS 1997): the HPF-style
//! distributed-array runtime the suite assumes, its collective
//! communication library, and all 32 benchmarks — 4 communication
//! functions, 8 linear-algebra suites and 20 application kernels — fully
//! instrumented with the paper's §1.5 performance metrics.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] ([`dpf_core`]) — machine model, dtypes, FLOP conventions,
//!   instrumentation, reports, the CM-5-class cost model.
//! * [`array`] ([`dpf_array`]) — `DistArray` with `:serial`/`:` axes,
//!   sections, FORALL.
//! * [`comm`] ([`dpf_comm`]) — CSHIFT, SPREAD, reductions, scans,
//!   gather/scatter, sort, AAPC transpose, stencils.
//! * [`fft`] ([`dpf_fft`]) — instrumented radix-2 FFT (1-D/2-D/3-D).
//! * [`linalg`] ([`dpf_linalg`]) — matrix-vector, lu, qr, gauss-jordan,
//!   pcr, conj-grad, jacobi, fft benchmarks.
//! * [`apps`] ([`dpf_apps`]) — the 20 application codes.
//! * [`suite`] ([`dpf_suite`]) — registry, harness, table generators.
//!
//! ## Quickstart
//!
//! ```
//! use dpf::core::{Ctx, Machine};
//! use dpf::suite::{find, run_basic, ProblemClass, Size};
//!
//! // Run the conjugate-gradient benchmark on a 32-processor virtual CM-5.
//! let entry = find("conj-grad").unwrap();
//! let result = run_basic(&entry, &Machine::cm5(32), Size::Class(ProblemClass::S));
//! assert!(result.report.verify.is_pass());
//! println!("{}", result.report);
//! # let _ = Ctx::host();
//! ```

#![warn(missing_docs)]

pub use dpf_apps as apps;
pub use dpf_array as array;
pub use dpf_comm as comm;
pub use dpf_core as core;
pub use dpf_fft as fft;
pub use dpf_linalg as linalg;
pub use dpf_suite as suite;

pub use dpf_core::{
    Backend, Ctx, DpfError, FaultKind, FaultPlan, LinkFaultKind, Machine, RecoverMode, Verify,
};
pub use dpf_suite::{
    find, registry, run, run_basic, run_campaign, run_guarded, run_on, run_soak, run_suite,
    CampaignReport, CampaignSpec, ExecMode, ProblemClass, RunOutcome, Size, SoakConfig,
    SuiteConfig, SuiteReport, Version,
};
