//! Small numeric helpers and `/proc` readers.

use std::fs;

/// Median with the mean of the two middle values on an even sample
/// (what Python's `statistics.median` returns).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The kernel's CPU-time clocks, at nanosecond resolution.  `/proc`
/// offers the same numbers only in scheduler ticks (4 to 10 ms).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    pub fn read(clock: i32) -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
        // fields on every 64-bit Linux ABI, which the `cfg` above selects
        // — and `clock_gettime` writes that struct only and keeps no
        // pointer past the call.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;
    pub fn read(_clock: i32) -> Option<f64> {
        None
    }
}

/// Process CPU time (user + system, all threads, exited ones included)
/// in seconds; from `/proc/self/stat`, in ticks of 10 ms, where the
/// clock cannot be read.
pub fn process_cpu_s() -> f64 {
    cpu_clock::read(cpu_clock::PROCESS).unwrap_or_else(|| {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name may hold spaces; fields are counted after ")".
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let mut fields = rest.split_whitespace();
        let utime: f64 = fields.nth(11).and_then(|s| s.parse().ok()).unwrap_or(0.0);
        let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
        (utime + stime) / 100.0
    })
}

/// CPU time of the calling thread in seconds; the process total where
/// the clock cannot be read.
pub fn thread_cpu_s() -> f64 {
    cpu_clock::read(cpu_clock::THREAD).unwrap_or_else(process_cpu_s)
}

/// A stopwatch for work done on the calling thread alone: it reads the
/// thread's CPU clock, so the time the scheduler gave to somebody else in
/// between does not count.  (Measured with two spinning processes beside
/// the benchmark on two cores: a 9 ms set-up read 22 ms on the wall clock
/// and a 0.9 ms one 6 ms; on this clock they read what they read on a quiet
/// host.)  Where the clock cannot be read it is a wall-clock stopwatch.
pub struct ThreadStopwatch {
    cpu0: Option<f64>,
    wall0: std::time::Instant,
}

impl ThreadStopwatch {
    pub fn start() -> Self {
        ThreadStopwatch {
            cpu0: cpu_clock::read(cpu_clock::THREAD),
            wall0: std::time::Instant::now(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu0, cpu_clock::read(cpu_clock::THREAD)) {
            (Some(t0), Some(t1)) => t1 - t0,
            _ => self.wall0.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), Some(5.5));
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() >= 0.0);
    }

    #[test]
    fn the_thread_stopwatch_does_not_count_sleep() {
        let watch = ThreadStopwatch::start();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let busy = watch.elapsed_s();
        assert!(busy > 0.0);
        if cpu_clock::read(cpu_clock::THREAD).is_some() {
            let watch = ThreadStopwatch::start();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(watch.elapsed_s() < 0.02, "sleep was counted");
        }
    }
}
