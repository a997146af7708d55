//! Fixed-memory latency histogram with 1/1024 relative resolution.
//!
//! Samples are not kept in a growing vector: its size would scale with
//! the stack's speed and show up in `peak_rss_MB`, so a faster stack
//! would read as a memory regression. Values below 2048 ns are exact;
//! above, each power of two is split into 1024 buckets, and quantiles
//! interpolate by rank inside the bucket they fall in.

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A histogram of nanosecond samples.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    /// Range of buckets touched since the last clear.
    lo: usize,
    hi: usize,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            lo: BUCKETS,
            hi: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let lo = (i % SUB + SUB) << shift;
    (lo as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let i = index(ns);
        self.counts[i] += 1;
        self.n += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
    }

    /// Forgets every sample, touching only the buckets in use.
    pub fn clear(&mut self) {
        if self.n > 0 {
            self.counts[self.lo..=self.hi].fill(0);
        }
        self.n = 0;
        self.lo = BUCKETS;
        self.hi = 0;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The nearest-rank `q`-quantile in ns, interpolated inside its
    /// bucket; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n) - 1;
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate().skip(self.lo) {
            if c > 0 && below + c > rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - below) as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        for v in [
            0,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            1 << 20,
            7_500_000,
            1 << 62,
        ] {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
            assert!(width <= 1.0f64.max(lo / SUB as f64), "{v}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 2e-3, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 2e-3, "{p99}");
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        h.clear();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0.0));
        h.record(3);
        assert_eq!(h.quantile(0.99), 3.5);
    }
}
