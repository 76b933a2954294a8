//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, nearest rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on an empty slice.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A log₂-bucketed duration histogram: bucket `b` counts samples in
/// `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds zero-length samples).
#[derive(Debug, Clone)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Per-bucket counts.
    pub buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            total_ns: 0,
            buckets: [0; 64],
        }
    }
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.buckets[(64 - ns.leading_zeros()) as usize & 63] += 1;
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Hist::default();
        for ns in [0, 1, 2, 3, 1024] {
            h.add(ns);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.mean_ns(), 1030.0 / 5.0);
    }
}
