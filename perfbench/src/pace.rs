//! Machine-speed calibration for the timed runs.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts for
//! reasons outside the program: within three minutes of one run, the same
//! CONGEST execution took from 3.4 s to 7.8 s. A timing taken in seconds
//! then measures the host as much as the code.
//!
//! A [`Pace`] runs a fixed probe kernel (code of the benchmark's own,
//! independent of the crates under test) between measured samples, on the
//! same thread as the work it brackets. Each sample is then rescaled by
//! how long the probes on either side of it took against [`PROBE_REF_S`]:
//! a sample taken while the core ran 20% slow is reported 20% shorter. The result is in
//! reference seconds, the time the work would take on the core at its
//! reference speed. A change to the program moves the work and not the
//! probe, so it shows in full.
//!
//! The drift comes from contention for the caches and memory the host
//! shares: over those three minutes a probe on a 256 KiB table (per-core
//! cache) slowed by a quarter while the execution slowed by 2.3×, and a
//! probe on a 4 MiB table tracked it, leaving a quartile spread of 0.04 in
//! execution time over probe time against 0.57 in raw time.
//!
//! Samples and probes are both read off the process's CPU-time clock
//! ([`cpu_s`]), not the wall clock: time the core spends on another
//! process does not count, nor, on kernels that account it, time the
//! hypervisor steals. The benchmark
//! is single-threaded, so for it CPU time is the wall time it would take
//! with the core to itself.

use std::hint::black_box;

/// `clock_gettime`'s clock of the calling process's CPU time: user and
/// system, all threads; on kernels that account steal time
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), without the time the hypervisor
/// stole.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Seconds of CPU time this process has used so far.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Slots in the probe's table: 4 MiB of `u32`, past the per-core caches,
/// so the probe waits on the shared cache and memory as the workloads do.
const TABLE: usize = 1 << 20;
/// Table updates per kernel run, about 0.65 ms at the reference speed.
const UPDATES: usize = 100_000;
/// Kernel runs per probe; the probe keeps the fastest, so an interrupt
/// during one run does not count as a slow core.
const RUNS: usize = 3;
/// Seconds one kernel run takes at the reference speed (the fastest run
/// seen on a 2-vCPU Xeon virtual machine). Only the scale of reported
/// times depends on it, not their ratios.
pub const PROBE_REF_S: f64 = 0.65e-3;

/// Probe timings of one run, and the probe's working memory.
pub struct Pace {
    table: Vec<u32>,
    state: u64,
    /// Seconds of each probe taken so far (fastest kernel run).
    probes: Vec<f64>,
}

impl Pace {
    /// A calibration with one probe taken.
    pub fn new() -> Pace {
        let mut pace = Pace {
            table: vec![0; TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
            probes: Vec::new(),
        };
        pace.probe();
        pace
    }

    /// Runs one probe. Samples taken after it belong to its epoch.
    pub fn probe(&mut self) {
        let best = (0..RUNS)
            .map(|_| {
                let t = cpu_s();
                black_box(self.kernel());
                cpu_s() - t
            })
            .fold(f64::INFINITY, f64::min);
        self.probes.push(best);
    }

    /// The epoch of a sample taken now: the index of the last probe.
    pub fn epoch(&self) -> usize {
        self.probes.len() - 1
    }

    /// `seconds` measured in `epoch`, in reference seconds: scaled by the
    /// mean of the probes that open and close the epoch (the opening one
    /// alone if none closed it).
    pub fn to_ref(&self, epoch: usize, seconds: f64) -> f64 {
        let open = self.probes[epoch];
        let close = self.probes.get(epoch + 1).copied().unwrap_or(open);
        seconds * PROBE_REF_S / ((open + close) / 2.0)
    }

    /// Sums of [`Pace::to_ref`] over `samples` per epoch, in epoch order:
    /// the reference time of the work between each two probes.
    pub fn window_sums<'a>(&self, samples: impl Iterator<Item = &'a (usize, f64)>) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::new();
        for &(epoch, value) in samples {
            *sums.entry(epoch).or_insert(0.0) += self.to_ref(epoch, value);
        }
        sums.into_values().collect()
    }

    /// [`Pace::to_ref`] over `(epoch, value)` samples of any time unit.
    pub fn to_ref_all(&self, samples: &[(usize, f64)]) -> Vec<f64> {
        samples.iter().map(|&(e, v)| self.to_ref(e, v)).collect()
    }

    /// Logs the probe count and the median probe against the reference,
    /// the factor the run's timings were divided by.
    pub fn log(&self) {
        let mut sorted = self.probes.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        eprintln!(
            "perfbench: {} speed probes, median {:.3} ms = {:.2}x the reference",
            sorted.len(),
            median * 1e3,
            median / PROBE_REF_S
        );
    }

    /// Pseudo-random read-modify-write over the table, a fixed amount of
    /// integer and cache work.
    fn kernel(&mut self) -> u32 {
        let mask = TABLE - 1;
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x as u32) ^ acc;
            acc = acc.rotate_left(5) ^ self.table[(x >> 40) as usize & mask];
        }
        self.state = x;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pace(probes: &[f64]) -> Pace {
        Pace {
            table: Vec::new(),
            state: 1,
            probes: probes.to_vec(),
        }
    }

    #[test]
    fn rescales_by_the_bracketing_probes() {
        let p = pace(&[2.0 * PROBE_REF_S, 2.0 * PROBE_REF_S, 4.0 * PROBE_REF_S]);
        // Core at half speed: half the measured time.
        assert!((p.to_ref(0, 1.0) - 0.5).abs() < 1e-12);
        // Speed went from 1/2 to 1/4 across the epoch: mean probe is 3×.
        assert!((p.to_ref(1, 3.0) - 1.0).abs() < 1e-12);
        // The last epoch has no closing probe yet.
        assert!((p.to_ref(2, 4.0) - 1.0).abs() < 1e-12);
        assert_eq!(p.to_ref_all(&[(0, 2.0), (2, 8.0)]), vec![1.0, 2.0]);
        let samples = [(0, 1.0), (2, 4.0), (0, 1.0)];
        assert_eq!(p.window_sums(samples.iter()), vec![1.0, 1.0]);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = cpu_s();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(cpu_s() > t);
    }

    #[test]
    fn probes_take_time_and_advance_the_epoch() {
        let mut p = Pace::new();
        assert_eq!(p.epoch(), 0);
        p.probe();
        assert_eq!(p.epoch(), 1);
        assert!(p.probes.iter().all(|&s| s > 0.0));
    }
}
