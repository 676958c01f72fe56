//! What the host did beside the workload: a calibration loop and the
//! hypervisor's steal time for drift, CPU time and involuntary context
//! switches for contention, and the process's peak resident set.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Median milliseconds of a fixed integer loop. The loop does the same
/// work on every host and run, so a change here is the host, not the
/// program.
pub fn calib_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..black_box(20_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("five samples")
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Process-wide CPU seconds (user + system) and involuntary context
/// switches, every thread included, exited ones too.
pub fn usage() -> (f64, u64) {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` laid out as the
    // 64-bit Linux ABI defines it, and RUSAGE_SELF (0) is a valid `who`;
    // getrusage writes only within the struct.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return (0.0, 0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (secs(&ru.utime) + secs(&ru.stime), ru.longs[13] as u64)
}

/// Starts the peak-RSS window now: returns freed heap memory to the
/// kernel and resets VmHWM to the current resident set. Set-up that
/// computes in-process what a daemon would find already on disk (the
/// serve cache fill) then does not set the peak the timed window reports.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only walks the allocator's own free lists; it
    // takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the peak resident set (Linux 4.0+); without it the peak
    // simply includes set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds the hypervisor has taken from this machine's vCPUs since
/// boot (`steal` in `/proc/stat`, in 100 Hz ticks); 0 where unavailable.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readings_are_plausible() {
        assert!(calib_ms() > 0.0);
        let (cpu, _) = usage();
        assert!(cpu > 0.0);
        assert!(steal_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
