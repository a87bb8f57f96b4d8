//! Seeded input generators. The program under test receives only what
//! these produce; nothing here calls into it, so a change to the
//! program's own RNG cannot move the benchmark's inputs.

/// SplitMix64: one 64-bit state, full period, good enough to draw
/// benchmark inputs from.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream for `seed`, separated by `stream` so the generators of
    /// one run do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng64 {
        let mut r = Rng64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.uniform() * (hi - lo + 1) as f64) as usize
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    pub fn normals(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.normal()).collect()
    }
}

/// Token features drawn from Gaussian clusters whose popularity follows
/// a Zipf law: a few clusters hold most tokens, so a learned gate sends
/// most tokens to a few experts.
pub struct ZipfClusters {
    dim: usize,
    /// One centre per cluster, `clusters × dim`.
    centres: Vec<f32>,
    /// Cumulative cluster probabilities, ascending to 1.
    cdf: Vec<f64>,
}

/// Distance of a cluster centre from the origin per coordinate, in
/// units of the within-cluster noise: large enough that a cluster's
/// tokens agree on their top experts.
const CENTRE_SCALE: f32 = 4.0;

impl ZipfClusters {
    /// `clusters` centres drawn from `rng`; cluster `i` (from 0) has
    /// weight `1 / (i + 1)^exponent`.
    pub fn new(rng: &mut Rng64, clusters: usize, dim: usize, exponent: f64) -> ZipfClusters {
        let centres = rng
            .normals(clusters * dim)
            .into_iter()
            .map(|c| c * CENTRE_SCALE)
            .collect();
        let weights: Vec<f64> = (0..clusters)
            .map(|i| ((i + 1) as f64).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfClusters { dim, centres, cdf }
    }

    /// Draws `tokens` rows; returns the features and each row's cluster.
    pub fn draw(&self, rng: &mut Rng64, tokens: usize) -> (Vec<f32>, Vec<usize>) {
        let mut rows = Vec::with_capacity(tokens * self.dim);
        let mut ids = Vec::with_capacity(tokens);
        for _ in 0..tokens {
            let u = rng.uniform();
            let c = self
                .cdf
                .partition_point(|&p| p <= u)
                .min(self.cdf.len() - 1);
            ids.push(c);
            let centre = &self.centres[c * self.dim..(c + 1) * self.dim];
            rows.extend(centre.iter().map(|&m| m + rng.normal()));
        }
        (rows, ids)
    }
}

/// `n` request lengths, each uniform in `[lo, hi]` token rows.
pub fn request_sizes(rng: &mut Rng64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n).map(|_| rng.between(lo, hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let sizes = |seed| request_sizes(&mut Rng64::new(seed, 1), 500, 1, 4);
        assert_eq!(sizes(7), sizes(7));
        assert_ne!(sizes(7), sizes(8));
        let draw = |seed| {
            let mut rng = Rng64::new(seed, 2);
            let clusters = ZipfClusters::new(&mut rng, 16, 8, 1.0);
            clusters.draw(&mut rng, 256)
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3).1, draw(4).1);
        assert_ne!(
            Rng64::new(5, 0).normals(16),
            Rng64::new(5, 1).normals(16),
            "streams of one seed differ"
        );
    }

    #[test]
    fn request_sizes_stay_in_range_and_use_it() {
        let sizes = request_sizes(&mut Rng64::new(11, 0), 4000, 4, 16);
        assert!(sizes.iter().all(|s| (4..=16).contains(s)));
        assert!(sizes.contains(&4) && sizes.contains(&16));
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 10.0).abs() < 0.3, "{mean}");
    }

    #[test]
    fn normals_have_unit_scale() {
        let v = Rng64::new(1, 0).normals(20_000);
        let mean = v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(
            mean.abs() < 0.03 && (var - 1.0).abs() < 0.05,
            "{mean} {var}"
        );
    }

    #[test]
    fn zipf_clusters_are_skewed_on_every_seed() {
        for seed in 0..8 {
            let mut rng = Rng64::new(seed, 0);
            let clusters = ZipfClusters::new(&mut rng, 16, 8, 1.0);
            let (_, ids) = clusters.draw(&mut rng, 8192);
            let mut counts = [0usize; 16];
            for c in ids {
                counts[c] += 1;
            }
            // Zipf(1) over 16: the head holds 1/H16 ≈ 29.6 % of the draws.
            let head = counts[0] as f64 / 8192.0;
            assert!(
                (0.27..0.32).contains(&head),
                "seed {seed}: head share {head}"
            );
            assert!(counts[0] > 5 * counts[15], "seed {seed}: {counts:?}");
        }
    }
}
