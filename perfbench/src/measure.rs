//! Clocks and summaries shared by the workloads.

use std::time::{Duration, Instant};

/// The median of `samples` (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it (the
/// 11th-largest sample); the maximum when there are fewer than 11.
pub fn tail(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n < 11 => s[n - 1],
        n => s[n - 11],
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Repeat a unit of work until the budget is spent: always at least
/// `min_units`, and never start a unit the budget cannot fit by the
/// previous unit's duration.
pub fn repeat_for(budget: Duration, min_units: usize, mut unit: impl FnMut(usize)) {
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut done = 0usize;
    while done < min_units || start.elapsed() + last <= budget {
        let t = Instant::now();
        unit(done);
        last = t.elapsed();
        done += 1;
    }
}

/// The process's peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset the peak-RSS clock to the current RSS, so a later pass in the
/// same process measures its own peak. Returns false where the kernel
/// does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1 024 CPUs.
type CpuMask = [u64; 16];

/// The calling thread pinned to the CPU it runs on; threads it spawns
/// meanwhile inherit the pin. Dropping it restores the thread's previous
/// CPU set.
pub struct PinnedToOneCpu {
    previous: CpuMask,
}

impl PinnedToOneCpu {
    /// Pin the calling thread, or `None` where the kernel refuses.
    pub fn here() -> Option<PinnedToOneCpu> {
        let mut previous: CpuMask = [0; 16];
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: glibc's affinity calls on the calling thread (pid 0),
        // reading or writing exactly `size` bytes of a live mask.
        unsafe {
            let cpu = usize::try_from(sched_getcpu()).ok()?;
            if cpu >= 64 * previous.len() || sched_getaffinity(0, size, previous.as_mut_ptr()) != 0
            {
                return None;
            }
            let mut one: CpuMask = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(PinnedToOneCpu { previous })
        }
    }
}

impl Drop for PinnedToOneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `here`; a failure leaves the thread pinned, which
        // only costs it the other CPUs.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuMask>(), self.previous.as_ptr());
        }
    }
}

/// FNV-1a over u64 words: a compact fingerprint of exact results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0, "ten samples lie beyond the tail");
        assert_eq!(tail(&[1.0, 5.0, 2.0]), 5.0);
    }
}
