//! Seeded randomness and the order statistics every metric is built on.

/// SplitMix64: small, fast, and identical on every platform, so a seed
/// pins the benchmark's inputs byte for byte.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`; every input family
    /// (graph variants, held-out edges, ticket schedule, …) draws from
    /// its own stream so adding a draw to one never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A sorted sample of timings (or any other measurements).
#[derive(Clone, Debug, Default)]
pub struct Sample(Vec<f64>);

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample(values)
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile; `None` on an empty sample.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = self.rank(q)?;
        Some(self.0[rank - 1])
    }

    /// The percentile, but only when at least [`MIN_BEYOND`] samples lie
    /// beyond it — a p99 of 100 samples is one outlier, not a metric.
    pub fn supported_percentile(&self, q: f64) -> Option<f64> {
        let rank = self.rank(q)?;
        (self.0.len() - rank >= MIN_BEYOND).then(|| self.0[rank - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.0.len();
        (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
    }
}

/// Median of a small set of repeat measurements (set-up times, the runs
/// of one metric): the mean of the two middle values when even.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method) — the spread the acceptance driver
/// computes. `None` below two values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(Sample::default().percentile(0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let hundred = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(hundred.supported_percentile(0.9), Some(90.0));
        assert_eq!(hundred.supported_percentile(0.99), None);
        let ninety_nine = Sample::new((1..=99).map(f64::from).collect());
        assert_eq!(ninety_nine.supported_percentile(0.9), None);
        let thousand = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(thousand.supported_percentile(0.99), Some(990.0));
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]).unwrap() - 2.0 / 11.0).abs() < 1e-12);
        // quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert!((quartile_spread(&[1.0, 3.0]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10 && (0.0..1.0).contains(&r.unit())));
    }
}
