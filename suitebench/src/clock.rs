//! Process CPU time, the clock of the end-to-end metrics.
//!
//! On a shared host the wall time of a pass also counts the time the
//! host hands this VM's CPUs to other tenants (steal) and the time other
//! processes hold them. Neither is in the process's CPU time, which the
//! kernel charges only while one of its threads runs.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time used so far by every thread of this process, ended threads
/// included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        while process_cpu_ns() - before < 2_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_ns() > before);
    }
}
