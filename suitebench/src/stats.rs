//! Order statistics over pass times, and the seeded generator that
//! orders rows.

/// Median of `v` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a sample: the value at the highest percentile, up to the
/// 90th, that still has at least ten samples above it, and never below
/// the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile (nearest-rank), 0–100.
    pub percentile: f64,
}

/// [`Tail`] of `v`. With ten or fewer samples no percentile has ten
/// samples above it; the maximum is returned, labelled as the 100th.
///
/// The cap at the 90th percentile matters for the class-S suite, which
/// makes over a thousand passes per run: on a shared host its 99th
/// percentile measures other tenants' interference, not the program.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            percentile: 100.0,
        };
    }
    // Nearest rank: the sample at 0-based index i is the
    // 100·(i+1)/n-th percentile; index n-11 leaves exactly ten above,
    // and index ceil(0.9·n)-1 is the 90th percentile.
    // A short run (fewer than 21 samples) falls back to the upper median.
    let idx = (n - 11).min((9 * n).div_ceil(10) - 1).max(n / 2);
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same row orders on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 20.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert!((t.percentile - 100.0 * 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail(&v).value, 8.0);
        assert!(tail(&v).value >= median(&v));
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v).value, median(&v));
    }

    #[test]
    fn tail_stops_at_the_90th_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (900.0, 90.0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..32).collect();
        let mut b = a.clone();
        SplitMix::new(9).shuffle(&mut a);
        SplitMix::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..32).collect::<Vec<_>>());
    }
}
