//! Fixed reference computations, timed between passes so that CPU times
//! can be expressed at a constant host speed.
//!
//! The kernels use only this crate's own code and `std`, never the
//! runtime under test, so no change to the runtime can move them. Each
//! mirrors the work a kind of workload spends its CPU time on, because
//! a shared host slows kinds of work unequally:
//!
//! - [`Kernel::Compute`]: floating-point stencil sweeps over an array
//!   larger than L1, then a data-dependent walk through it — user-mode
//!   compute, like the virtual-backend suites;
//! - [`Kernel::Team`]: spawn a team of threads, let each do a little
//!   arithmetic, meet at a barrier and join — the kernel-mode thread
//!   work an SPMD collective costs.

use std::sync::Barrier;

use crate::clock::process_cpu_ns;

/// Share of a pass's CPU time spent timing the reference after it.
pub const SHARE: f64 = 0.2;

/// Elements of the compute kernel's array (512 KiB of f64).
const N: usize = 1 << 16;
/// Stencil sweeps per compute call.
const SWEEPS: usize = 8;
/// Arithmetic steps each team member does before the barrier.
const TEAM_STEPS: usize = 2000;

/// A reference kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Stencil sweeps and a random walk over 512 KiB.
    Compute,
    /// One team of `workers` threads: spawn, compute, barrier, join.
    Team {
        /// Threads in the team.
        workers: usize,
    },
}

impl Kernel {
    /// CPU seconds of one call on the nominal reference host. Times "at
    /// reference speed" are CPU times scaled by this over the measured
    /// time of one call. Both are close to a call's time on the host
    /// in `README.md`, so scaled figures stay close to real seconds.
    pub fn nominal_call_s(self) -> f64 {
        match self {
            Kernel::Compute => 1e-3,
            Kernel::Team { .. } => 2e-4,
        }
    }
}

/// One compute call on `buf` (length [`N`]). Returns a checksum so the
/// work cannot be optimised away.
fn compute(buf: &mut [f64], idx: &[u32]) -> f64 {
    for _ in 0..SWEEPS {
        let mut prev = buf[N - 1];
        for i in 0..N {
            let next = buf[(i + 1) & (N - 1)];
            let cur = buf[i];
            buf[i] = 0.25 * prev + 0.5 * cur + 0.25 * next + 1e-9;
            prev = cur;
        }
    }
    let mut j = 0usize;
    let mut acc = 0.0;
    for _ in 0..N {
        j = idx[j] as usize;
        acc += buf[j];
    }
    acc
}

/// One team call: `workers` scoped threads, each a short arithmetic
/// chain, all meeting at one barrier before they are joined.
fn team(workers: usize) -> f64 {
    let barrier = Barrier::new(workers);
    std::thread::scope(|s| {
        let members: Vec<_> = (0..workers)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut x = k as f64;
                    for i in 0..TEAM_STEPS {
                        x = x * 0.999 + i as f64;
                    }
                    barrier.wait();
                    x
                })
            })
            .collect();
        members
            .into_iter()
            .map(|m| m.join().expect("team member panicked"))
            .sum()
    })
}

/// A reference kernel with its inputs, built once.
pub struct Reference {
    kernel: Kernel,
    buf: Vec<f64>,
    idx: Vec<u32>,
}

impl Reference {
    /// The kernel and its inputs: for [`Kernel::Compute`], a smooth
    /// array and one random cycle through all its indices.
    pub fn new(kernel: Kernel) -> Reference {
        let (mut buf, mut idx) = (Vec::new(), Vec::new());
        if kernel == Kernel::Compute {
            buf = (0..N).map(|i| (i % 97) as f64).collect();
            let mut perm: Vec<u32> = (0..N as u32).collect();
            crate::stats::SplitMix::new(0x5EED).shuffle(&mut perm);
            idx = vec![0u32; N];
            for w in 0..N {
                idx[perm[w] as usize] = perm[(w + 1) % N];
            }
        }
        Reference { kernel, buf, idx }
    }

    fn call(&mut self) -> f64 {
        match self.kernel {
            Kernel::Compute => compute(&mut self.buf, &self.idx),
            Kernel::Team { workers } => team(workers),
        }
    }

    /// CPU seconds per call, over `calls` calls after one untimed call
    /// that brings the kernel's data back into cache.
    pub fn seconds_per_call(&mut self, calls: usize) -> f64 {
        let calls = calls.max(1);
        let mut sum = self.call();
        let start = process_cpu_ns();
        for _ in 0..calls {
            sum += self.call();
        }
        std::hint::black_box(sum);
        (process_cpu_ns() - start) as f64 / 1e9 / calls as f64
    }
}

/// Times the reference right after each measured CPU time, and turns
/// CPU times into CPU times at reference speed.
pub struct Scaler {
    reference: Reference,
    /// Every measured CPU seconds per call, in order; the last sizes the
    /// next timing.
    pub timings: Vec<f64>,
}

impl Scaler {
    /// A scaler timing `kernel`.
    pub fn new(kernel: Kernel) -> Scaler {
        let mut reference = Reference::new(kernel);
        let first = reference.seconds_per_call(2);
        Scaler {
            reference,
            timings: vec![first],
        }
    }

    /// Time the reference now, for about [`SHARE`] of `cpu_s` and at
    /// least two calls. Returns the CPU seconds per call.
    pub fn time(&mut self, cpu_s: f64) -> f64 {
        let last = *self.timings.last().expect("new() times the reference");
        let calls = ((cpu_s * SHARE / last).round() as usize).max(2);
        let per_call_s = self.reference.seconds_per_call(calls);
        self.timings.push(per_call_s);
        per_call_s
    }

    /// `cpu_s` CPU seconds, measured while a reference call took
    /// `per_call_s`, at reference speed.
    pub fn scale(&self, cpu_s: f64, per_call_s: f64) -> f64 {
        cpu_s * self.reference.kernel.nominal_call_s() / per_call_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_takes_cpu_time() {
        for kernel in [Kernel::Compute, Kernel::Team { workers: 4 }] {
            assert!(Reference::new(kernel).seconds_per_call(2) > 0.0);
        }
    }

    #[test]
    fn a_scaler_scales_by_the_nominal_call() {
        let kernel = Kernel::Team { workers: 2 };
        let mut s = Scaler::new(kernel);
        let per_call_s = s.time(0.01);
        assert!(per_call_s > 0.0);
        assert_eq!(s.timings.len(), 2);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b;
        assert!(close(s.scale(0.01, kernel.nominal_call_s()), 0.01));
        assert!(close(s.scale(0.01, 2.0 * kernel.nominal_call_s()), 0.005));
    }
}
