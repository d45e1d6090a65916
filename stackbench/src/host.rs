//! The host the benchmark runs on: CPU clock, pinning, allocator set-up,
//! and the speed probe that rescales every timing to a reference speed.
//!
//! The benchmark targets small shared hosts whose speed moves by tens of
//! percent within seconds, with the core (or its SMT sibling, or the
//! shared cache) taken by other tenants. Three things keep a timing
//! comparable from run to run:
//!
//! - the process is pinned to one CPU and runs one thread, so its probe
//!   and its passes see the same CPU;
//! - timings read the process CPU clock, which leaves out time the CPU
//!   was given to another process or, on a paravirtualised guest, stolen
//!   by the hypervisor;
//! - a fixed probe, compiled into the benchmark and sharing no code with
//!   the stack, runs right before each pass and each set-up sample. Each
//!   timing is scaled by `REFERENCE_PROBE_S` over the mean of the probes
//!   around it: the time it would have taken at the speed the host had
//!   when the benchmark was calibrated.
//!
//! Apart from timing, glibc's mmap threshold is fixed so that the peak
//! resident set does not depend on the order of earlier allocations, and
//! the peak is reset around each probe sample so the probe never sets it.

use std::collections::HashMap;
use std::hint::black_box;

/// Median CPU time of one probe sample on the calibration host (2-vCPU
/// KVM guest, Intel Xeon; see README.md). It fixes the unit of the
/// scaled timings; it does not change their spread.
pub const REFERENCE_PROBE_S: f64 = 0.003;

/// Keys the probe sorts and counts: 800 KiB of `u64`.
const PROBE_KEYS: usize = 100_000;
/// Distinct keys in the probe's hash map.
const PROBE_BUCKETS: u64 = 1 << 16;
const ALU_ROUNDS: u64 = 300_000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const M_MMAP_THRESHOLD: i32 = -3;

/// CPU seconds the process has used.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pins the process to the CPU it is running on. Best effort: a host
/// that refuses leaves the process free to migrate.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and touches no memory.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = vec![0u64; cpu / 64 + 1];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `mask.len() * 8` bytes from `mask`, which
    // is that long and outlives the call; pid 0 is this process.
    let rc = unsafe { sched_setaffinity(0, mask.len() * 8, mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Fixes glibc's mmap threshold at 1 MiB. By default it rises after the
/// first large free, so whether a buffer of a few MiB comes from the heap
/// (and stays resident after it is freed) depends on the order of earlier
/// allocations, and the peak resident set jumps between seeds.
pub fn fix_mmap_threshold() {
    // SAFETY: mallopt only changes allocator parameters.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

/// The speed probe: three small kernels that share no code with the
/// stack, timed on the CPU clock. Sorting a copy of the keys and counting
/// them into a fresh hash map are branchy, cache-bound and allocate, like
/// most of the stack, and on the calibration host they slow down about
/// as much as the workloads when another tenant takes the core. The
/// integer rounds depend on none of that; they temper the probe for the
/// memory-bound sim, which slows less. A pointer chase or a memory
/// stream barely moved, so they are left out.
pub struct Probe {
    keys: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        Self {
            keys: (0..PROBE_KEYS)
                .map(|_| {
                    s = xorshift(s);
                    s
                })
                .collect(),
        }
    }

    /// One probe sample: the geometric mean of the three kernels' CPU
    /// seconds, so each counts alike whatever its length.
    pub fn sample(&self) -> f64 {
        let start = cpu_s();
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        black_box(sorted);
        let sorted = cpu_s();
        let mut counts = HashMap::new();
        for k in &self.keys {
            *counts.entry(k % PROBE_BUCKETS).or_insert(0u32) += 1;
        }
        black_box(counts);
        let counted = cpu_s();
        let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..ALU_ROUNDS {
            for v in &mut lanes {
                *v = xorshift(*v);
            }
        }
        black_box(lanes);
        let end = cpu_s();
        ((sorted - start) * (counted - sorted) * (end - counted)).cbrt()
    }
}

/// A memory figure of the process from `/proc/self/status`, MiB:
/// `VmRSS` (resident now) or `VmHWM` (peak resident).
pub fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Resets the process's peak resident set to what is resident now.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Probe samples taken through a run, the CPU timings between them, and
/// the peak resident set outside them.
pub struct Speed {
    probe: Probe,
    samples: Vec<f64>,
    /// Resident memory of the probe's keys.
    keys_mib: f64,
    /// Highest peak resident set read before a probe sample.
    peak_mib: f64,
}

/// A CPU timing and the number of probe samples taken before it.
pub type Marked = (usize, f64);

impl Speed {
    pub fn new() -> Result<Self, String> {
        let before = status_mib("VmRSS")?;
        let probe = Probe::new();
        Ok(Self {
            probe,
            samples: Vec::new(),
            keys_mib: status_mib("VmRSS")? - before,
            peak_mib: 0.0,
        })
    }

    /// Takes a probe sample. Timings marked until the next sample lie
    /// between the two. The peak resident set is read before the sample
    /// and reset after it, so the probe's own allocations never count.
    pub fn sample(&mut self) -> Result<(), String> {
        self.peak_mib = self.peak_mib.max(status_mib("VmHWM")?);
        self.samples.push(self.probe.sample());
        reset_peak_rss()
    }

    pub fn mark(&self, cpu_s: f64) -> Marked {
        (self.samples.len(), cpu_s)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The process's peak resident set outside the probe samples, less
    /// the probe's keys, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        Ok(self.peak_mib.max(status_mib("VmHWM")?) - self.keys_mib)
    }

    /// Scales each timing by the reference probe time over the mean of
    /// the samples on either side of it (the one before, if it has no
    /// sample after).
    pub fn scale_all(&self, timings: &[Marked]) -> Vec<f64> {
        timings
            .iter()
            .map(|&(before, t)| {
                assert!(before > 0, "a timing precedes every probe sample");
                let prev = self.samples[before - 1];
                let next = self.samples.get(before).copied().unwrap_or(prev);
                t * REFERENCE_PROBE_S / (0.5 * (prev + next))
            })
            .collect()
    }
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let start = cpu_s();
        black_box((0..2_000_000u64).fold(0u64, |a, x| a ^ xorshift(x)));
        assert!(cpu_s() > start);
    }

    #[test]
    fn a_probe_sample_takes_measurable_time_and_no_peak_memory() {
        let mut s = Speed::new().unwrap();
        s.sample().unwrap();
        assert!(s.samples()[0] > 0.0);
        let peak = s.peak_rss_mib().unwrap();
        // A 16 MiB buffer touched outside the probe counts.
        black_box(vec![1u8; 16 << 20]);
        assert!(s.peak_rss_mib().unwrap() >= peak + 15.0);
    }

    #[test]
    fn timings_scale_by_the_samples_around_them() {
        let mut s = Speed::new().unwrap();
        s.samples = vec![REFERENCE_PROBE_S, 3.0 * REFERENCE_PROBE_S];
        // Between a reference-speed sample and one three times slower:
        // the host ran at half speed, so 2 s of CPU counts as 1 s.
        // After the last sample only that one applies.
        let scaled = s.scale_all(&[(1, 2.0), (2, 3.0)]);
        assert!(scaled.iter().all(|v| (v - 1.0).abs() < 1e-12), "{scaled:?}");
    }
}
