//! Order statistics and the seeded generator the workloads draw from.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The smallest of `values`: the statistic for a cold start, whose noise —
/// first-touch page faults, allocator state — only ever adds time.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, nearest rank.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p99)` of unsorted latency samples.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_unstable_by(f64::total_cmp);
    (
        quantile_sorted(samples, 0.50),
        quantile_sorted(samples, 0.99),
    )
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every model, oracle sample and request stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these `n` is below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(Rng::new(9).next_u64(), Rng::new(10).next_u64());
        assert!(Rng::new(1).below(10) < 10);
    }
}
