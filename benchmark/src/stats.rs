//! Order statistics, the tail-percentile rule, and the output digest.

/// Median of `values` (mean of the two middle values when even);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, low to high, per mille.
const TAIL_LADDER: [usize; 4] = [500, 900, 990, 999];

/// Samples a tail percentile needs beyond it before it is worth
/// repeating.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when even the median has not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&q| n * (1000 - q) / 1000 >= TAIL_MIN_BEYOND)
        .map(|&q| q as f64 / 1000.0)
}

/// A timing population: sample count, median, and the tail the sample
/// count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(q, value)` of [`tail_quantile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p99: percentile(&v, 0.99),
            tail: tail_quantile(v.len()).map(|q| (q, percentile(&v, q))),
        }
    }

    /// `p99.9=1.234 (n=20000)`: the supported tail with its sample count.
    pub fn tail_label(&self, unit: &str) -> String {
        match self.tail {
            Some((q, v)) => format!("p{}={v:.4}{unit} (n={})", q * 100.0, self.n),
            None => format!("no tail (n={})", self.n),
        }
    }
}

/// Whether two outputs hold the same bits, element for element.
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over the bit patterns of `values`.
pub fn fnv_digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Largest error of `got` against `reference` in units of last place at
/// the reference's scale, `|got − ref| / (ε · max|ref|)`: the harness
/// policy for outputs that re-associate one sum. Infinite on a length
/// mismatch or a NaN.
pub fn max_scaled_ulp(got: &[f32], reference: &[f32]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let mut worst = 0.0f64;
    for (&g, &r) in got.iter().zip(reference) {
        if g.is_nan() || r.is_nan() {
            return f64::INFINITY;
        }
        let diff = (f64::from(g) - f64::from(r)).abs();
        if diff == 0.0 {
            continue;
        }
        if scale == 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max(diff / (f64::from(f32::EPSILON) * f64::from(scale)));
    }
    worst
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
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // n·(1−q) ≥ 10: p50 from 20 samples, p90 from 100, p99 from
        // 1 000, p99.9 from 10 000.
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(99), Some(0.50));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_tail_with_its_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.p90, s.p99), (1000, 500.0, 900.0, 990.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(s.tail_label("ms").contains("p99=") && s.tail_label("ms").contains("n=1000"));
        assert!(Summary::of(&[1.0; 5]).tail_label("ms").contains("no tail"));
    }

    #[test]
    fn bitwise_eq_tells_signed_zeros_and_lengths_apart() {
        assert!(bitwise_eq(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
        assert!(!bitwise_eq(&[1.0], &[1.0, 1.0]));
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let a = fnv_digest(&[1.0, 2.0, 3.0]);
        assert_eq!(a, fnv_digest(&[1.0, 2.0, 3.0]));
        assert_ne!(a, fnv_digest(&[1.0, 3.0, 2.0]));
        assert_ne!(
            a,
            fnv_digest(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() + 1)])
        );
        assert_ne!(fnv_digest(&[0.0]), fnv_digest(&[-0.0]));
    }

    #[test]
    fn scaled_ulp_measures_at_the_reference_scale() {
        let r = [1.0f32, 1e-6, -0.5];
        assert_eq!(max_scaled_ulp(&r, &r), 0.0);
        let mut g = r;
        g[1] += f32::EPSILON; // one ULP of the scale, a million ULPs of r[1]
        let u = max_scaled_ulp(&g, &r);
        assert!((0.5..=1.5).contains(&u), "{u}");
        assert_eq!(max_scaled_ulp(&[f32::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(max_scaled_ulp(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }
}
