//! A fixed-size log-linear histogram of nanosecond durations.
//!
//! 64 buckets per power of two bound the relative bucket width at 1/64
//! (~1.6%). Quantiles interpolate linearly inside the bucket that holds the
//! requested rank, so a reported percentile carries all its digits instead
//! of snapping to a bucket edge. Memory is fixed (~30 KiB) whatever the
//! number of samples, so recording latencies never grows the process.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let p = 63 - v.leading_zeros();
    let shift = p - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    (shift as usize + 1) * SUB + sub
}

/// Lower edge and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let sub = (i % SUB) as f64;
    let width = 2f64.powi(shift);
    ((SUB as f64 + sub) * width, width)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0 < q < 1) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bucket(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + width * frac;
            }
            below += c;
        }
        let (lo, width) = bucket(BUCKETS - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, u64::MAX / 3] {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
            assert!(width <= (v as f64 / 32.0).max(1.0), "{v}: width {width}");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_run_are_close() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.02, "{p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.02, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
