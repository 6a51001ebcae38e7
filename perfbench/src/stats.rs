//! Raw-sample statistics and the behaviour digest.

/// Raw samples of one quantity. Every percentile is taken by nearest
/// rank over the sorted samples, never from a bucketed histogram.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank `p`-th percentile: the sample at 1-based rank
    /// `ceil(p/100 · n)` of the sorted samples (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(p, n).clamp(1, n) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// How many samples lie above the nearest-rank `p`-th percentile.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.0.len();
        n - rank(p, n).min(n)
    }

    /// The highest of p99, p95 and p90 that leaves at least ten samples
    /// beyond it; the maximum when even p90 does not.
    pub fn tail(&self) -> (&'static str, f64) {
        for (label, p) in [("p99", 99.0), ("p95", 95.0), ("p90", 90.0)] {
            if self.beyond(p) >= 10 {
                return (label, self.percentile(p));
            }
        }
        ("max", self.percentile(100.0))
    }
}

fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64).ceil() as usize
}

/// Per-operation records of a timed window: (completion time s,
/// latency µs). The buffer is allocated and written once up front, so
/// the benchmark's own memory does not grow with the number of
/// operations a run completes and `peak_rss_mb` follows the daemon.
#[derive(Default)]
pub struct OpLog {
    ops: Vec<(f32, f32)>,
}

/// What an [`OpLog`] reports.
pub struct OpSummary {
    /// Median over the slices of each slice's operations per second.
    pub ops_per_s: f64,
    /// Each slice's operations per second, in time order.
    pub slice_rates: Vec<f64>,
    /// Median over the slices of each slice's nearest-rank percentile.
    pub tail_us: f64,
    /// Fewest samples any slice leaves beyond its percentile.
    pub beyond: usize,
    /// Nearest-rank median latency of the whole run.
    pub p50_us: f64,
    pub mean_us: f64,
}

impl OpLog {
    pub fn with_capacity(cap: usize) -> OpLog {
        let mut ops = Vec::with_capacity(cap);
        ops.resize(cap, (0.0, 0.0));
        ops.clear();
        OpLog { ops }
    }

    pub fn push(&mut self, done_s: f64, latency_us: f64) {
        self.ops.push((done_s as f32, latency_us as f32));
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Splits a window of `elapsed_s` into `slices` equal slices and
    /// summarizes them at the `p`-th percentile. Sorts in place.
    pub fn summarize(&mut self, elapsed_s: f64, slices: usize, p: f64) -> OpSummary {
        let n = self.ops.len();
        let mean_us = self.ops.iter().map(|&(_, l)| f64::from(l)).sum::<f64>() / n.max(1) as f64;
        let width = elapsed_s.max(1e-9) / slices as f64;
        let slice_of = |done: f32| ((f64::from(done) / width) as usize).min(slices - 1);
        self.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut rate = Samples::default();
        let mut tail = Samples::default();
        let mut beyond = usize::MAX;
        let mut start = 0;
        for s in 0..slices {
            let end = start + self.ops[start..].partition_point(|&(d, _)| slice_of(d) <= s);
            let part = &mut self.ops[start..end];
            part.sort_by(|a, b| a.1.total_cmp(&b.1));
            let len = part.len();
            rate.push(len as f64 / width);
            if len > 0 {
                tail.push(f64::from(part[rank(p, len).clamp(1, len) - 1].1));
            }
            beyond = beyond.min(len - rank(p, len).min(len));
            start = end;
        }
        self.ops.sort_by(|a, b| a.1.total_cmp(&b.1));
        let p50_us = if n == 0 {
            0.0
        } else {
            f64::from(self.ops[rank(50.0, n).clamp(1, n) - 1].1)
        };
        OpSummary {
            ops_per_s: rate.median(),
            slice_rates: rate.values().to_vec(),
            tail_us: tail.median(),
            beyond,
            p50_us,
            mean_us,
        }
    }
}

/// 64-bit FNV-1a over every byte folded in, in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.tail(), ("p90", 90.0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let mut s = Samples::default();
        for v in 0..1000 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail().0, "p99");
        let mut small = Samples::default();
        small.push(3.0);
        assert_eq!(small.tail(), ("max", 3.0));
    }

    #[test]
    fn op_log_slices_by_completion_time() {
        let mut log = OpLog::with_capacity(4);
        // Slice 0 (0–1 s): latencies 1..=10; slice 1 (1–2 s): 11..=30.
        for i in 1..=10 {
            log.push(0.05 * f64::from(i), f64::from(i));
        }
        for i in 11..=30 {
            log.push(1.0 + 0.04 * f64::from(i - 10), f64::from(i));
        }
        let s = log.summarize(2.0, 2, 90.0);
        assert_eq!(s.ops_per_s, 10.0);
        // Slice tails are 9 and 28; the median of two is the lower.
        assert_eq!(s.tail_us, 9.0);
        assert_eq!(s.beyond, 1);
        assert_eq!(s.p50_us, 15.0);
    }
}
