//! Sample summaries and process resource readings.

use std::time::Duration;

/// Percentile ladder the tail helper chooses from, lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile on the ladder that has at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median has not.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending sample (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency sample in milliseconds, sorted for percentile reads.
pub struct Latencies {
    sorted_ms: Vec<f64>,
}

impl Latencies {
    pub fn from_durations(samples: impl IntoIterator<Item = Duration>) -> Self {
        let mut sorted_ms: Vec<f64> = samples.into_iter().map(|d| d.as_secs_f64() * 1e3).collect();
        sorted_ms.sort_by(f64::total_cmp);
        Latencies { sorted_ms }
    }

    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// The `p` percentile, with whether the sample supports it (ten or
    /// more samples beyond it).
    pub fn at(&self, p: f64) -> (f64, bool) {
        if self.sorted_ms.is_empty() {
            return (f64::NAN, false);
        }
        let supported = supported_tail(self.len()).is_some_and(|tail| tail >= p - 1e-12);
        (percentile(&self.sorted_ms, p), supported)
    }
}

/// Whole-process resource usage (every thread, live or exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// High-water resident set size, KiB.
    pub max_rss_kib: u64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

impl Usage {
    /// Read the process's usage so far.
    pub fn now() -> Usage {
        let mut ru = RUsage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
        // SAFETY: `ru` is a live, writable `struct rusage` with the C
        // layout of 64-bit Linux; getrusage only writes into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
        let tv_ns = |tv: [i64; 2]| (tv[0] as u64) * 1_000_000_000 + (tv[1] as u64) * 1_000;
        Usage {
            cpu_ns: tv_ns(ru.utime) + tv_ns(ru.stime),
            // ru_nvcsw and ru_nivcsw are the last two longs.
            ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
            max_rss_kib: ru.rest[0] as u64,
        }
    }

    /// Usage accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kib: self.max_rss_kib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_helper_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(10_000_000), Some(0.9999));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let lat = Latencies::from_durations((1..=200).map(Duration::from_millis));
        assert_eq!(lat.at(0.95), (190.0, true));
        assert!(!lat.at(0.99).1, "200 samples leave only two beyond p99");
    }

    #[test]
    fn usage_grows_with_work() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let d = Usage::now().since(a);
        assert!(d.cpu_ns > 0 && d.max_rss_kib > 0, "{d:?} {x}");
    }
}
