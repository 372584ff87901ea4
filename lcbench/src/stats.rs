//! Order statistics and the seeded generator. Everything the benchmark
//! reports is a median with quartiles, or a nearest-rank percentile of
//! raw samples; nothing is a mean.

/// Median of `values` (mean of the two middle values when even).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive: positions
/// `(len + 1) * k / 4`, linear interpolation, extrapolated at the ends) —
/// the driver judges spread with that function, so `compare` must too.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let at = |i: usize| {
                let j = (i * (len + 1) / 4).clamp(1, len - 1);
                // Outside 0..=4 at the clamped ends: Python extrapolates.
                let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99
/// that still has at least ten samples beyond it, with its value:
/// the furthest into the tail a sample of this size can speak for.
pub fn tail_percentile(sorted: &[u32]) -> (f64, u32) {
    let mut best = 50.0;
    for p in [90.0, 99.0, 99.9, 99.99] {
        let beyond = sorted.len() as f64 * (1.0 - p / 100.0);
        if beyond >= 10.0 {
            best = p;
        }
    }
    (best, percentile(sorted, best))
}

/// Median, quartiles and range of one metric over a run's passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub k: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            k: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A quantity that is one value per run (a count, peak RSS).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

/// SplitMix64: the benchmark's only source of input bytes. The same
/// seed always yields the same stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates past a two-point sample.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u32> = (1..=999).collect();
        // 999 * 0.01 = 9.99 < 10: p99 is not yet supported, p90 is.
        assert_eq!(tail_percentile(&v).0, 90.0);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v), (99.0, 990));
        let v: Vec<u32> = (1..=19).collect();
        assert_eq!(tail_percentile(&v).0, 50.0);
        let v: Vec<u32> = (1..=100_000).collect();
        assert_eq!(tail_percentile(&v).0, 99.99);
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let (mut a, mut b, mut c) = (SplitMix64::new(7), SplitMix64::new(7), SplitMix64::new(8));
        let (mut x, mut y, mut z) = ([0u8; 13], [0u8; 13], [0u8; 13]);
        a.fill(&mut x);
        b.fill(&mut y);
        c.fill(&mut z);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
