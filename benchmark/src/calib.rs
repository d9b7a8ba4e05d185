//! Host-speed calibration.
//!
//! A small sandbox host does not run at one speed: the same simulation
//! takes 1.0× one run and 1.4× the next, in phases that last longer than
//! a benchmark run, so no amount of repeating inside a run averages them
//! out.  (Measured on the development sandbox: arithmetic keeps its
//! speed, memory-bound code does not — the shared cache is the noisy
//! resource.)  The simulator workloads therefore time a fixed *reference
//! kernel* between slices of the simulation and report host time in
//! reference-host seconds: `measured × REFERENCE_KERNEL_S ÷ kernel time
//! just then`.  On ten repeats of `sim_shs_n100` this took the spread of
//! CPU time from 10–16 % to 4–6 %.  The kernel lives here and calls
//! nothing of the program, so no change to the program can move it.
//!
//! Socket workloads are not normalised: their CPU is pinned by view
//! spinning, not by how fast the host runs (see the README).

use crate::stats::ThreadStopwatch;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (the development sandbox in
/// its fast phase).  Only a unit: it scales every normalised number
/// alike.
pub const REFERENCE_KERNEL_S: f64 = 1.8e-3;

/// Words in the kernel's working set: 4 MiB, resident in a quiet shared
/// cache and evicted from a contended one, like the simulator's own maps
/// and queues.  Of 0.5 to 32 MiB this size tracked the simulator best.
const WORDS: usize = 512 * 1024;
/// Dependent steps per kernel execution.
const STEPS: usize = 20_000;

pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator { table }
    }

    /// One execution: a chain of dependent multiply-xorshift steps, each
    /// reading and writing a pseudo-random word of the table — arithmetic
    /// and cache misses in about the simulator's proportion.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..STEPS {
            let slot = (x >> 20) as usize & (WORDS - 1);
            x = (x ^ self.table[slot]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            self.table[slot] = x;
        }
        x
    }

    /// Seconds one kernel execution takes right now, on the thread's CPU
    /// clock like the work it is compared with, so that a preemption
    /// inside the kernel does not read as a slow host.  The faster of two.
    pub fn sample(&mut self) -> f64 {
        (0..2)
            .map(|_| {
                let watch = ThreadStopwatch::start();
                black_box(self.kernel());
                watch.elapsed_s()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Times the kernel between the laps of a measurement, at most every
/// [`SAMPLE_EVERY`], and scales each stretch of CPU time by the kernel
/// time sampled around it.
pub struct SpeedMeter {
    calib: Calibrator,
    kernel_s: f64,
    sampled_at: Instant,
    /// CPU seconds measured since the last kernel sample.
    pending_s: f64,
    cpu: NormalisedCpu,
}

/// Host-speed phases last seconds; sampling more often only costs time.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

impl SpeedMeter {
    pub fn start() -> Self {
        let mut calib = Calibrator::new();
        let kernel_s = calib.sample();
        SpeedMeter {
            calib,
            kernel_s,
            sampled_at: Instant::now(),
            pending_s: 0.0,
            cpu: NormalisedCpu::default(),
        }
    }

    /// Accounts `cpu_s` seconds of measured work since the last lap.
    pub fn lap(&mut self, cpu_s: f64) {
        self.pending_s += cpu_s;
        if self.sampled_at.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Times the kernel now and settles the pending stretch against the
    /// mean of the samples at its two ends.  Returns the new sample.
    pub fn sample(&mut self) -> f64 {
        let after = self.calib.sample();
        self.cpu.add(self.pending_s, (self.kernel_s + after) / 2.0);
        self.pending_s = 0.0;
        self.kernel_s = after;
        self.sampled_at = Instant::now();
        after
    }

    /// Everything accounted so far (call [`sample`](Self::sample) first
    /// to settle the last stretch).
    pub fn cpu(&self) -> NormalisedCpu {
        self.cpu
    }
}

/// Measured CPU seconds and the same in reference-host seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct NormalisedCpu {
    /// CPU seconds as measured.
    pub raw_s: f64,
    /// The same in reference-host seconds.
    pub reference_s: f64,
}

impl NormalisedCpu {
    /// Adds `cpu_s` seconds measured while the kernel took `kernel_s`.
    pub fn add(&mut self, cpu_s: f64, kernel_s: f64) {
        self.raw_s += cpu_s;
        self.reference_s += cpu_s * REFERENCE_KERNEL_S / kernel_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_counts_for_less() {
        let mut cpu = NormalisedCpu::default();
        // One second at reference speed, one second on a host half as fast.
        cpu.add(1.0, REFERENCE_KERNEL_S);
        cpu.add(1.0, 2.0 * REFERENCE_KERNEL_S);
        assert!((cpu.raw_s - 2.0).abs() < 1e-12);
        assert!((cpu.reference_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_meter_settles_every_stretch_it_was_given() {
        let mut meter = SpeedMeter::start();
        for _ in 0..10 {
            meter.lap(0.25);
        }
        meter.sample();
        let cpu = meter.cpu();
        assert!((cpu.raw_s - 2.5).abs() < 1e-12);
        assert!(cpu.reference_s > 0.0);
    }

    #[test]
    fn the_kernel_takes_a_measurable_time_and_is_deterministic() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.kernel(), b.kernel());
        let s = a.sample();
        assert!(s > 10e-6 && s < 0.1, "kernel took {s} s");
    }
}
