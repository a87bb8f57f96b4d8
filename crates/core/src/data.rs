//! Synthetic clustered-token datasets standing in for ImageNet/COCO.
//!
//! The paper's accuracy experiments (Tables 9–13, Figure 25) require
//! ImageNet-22K pre-training and COCO fine-tuning; neither the data nor
//! the GPU-months are available here. This module builds the closest
//! synthetic equivalent that exercises the same mechanisms:
//!
//! * tokens are drawn from `G` latent **clusters** — the structure MoE
//!   experts specialize on;
//! * the class label is an XOR-style *correlation* signal: each token
//!   carries `u·dir1_g + u·s_{c,g}·dir2_g` with a random per-token sign
//!   `u`, so the class is invisible to any linear function of the
//!   pooled tokens (the `u` averages out) and decodable only by a
//!   *token-level nonlinear, cluster-specific* transform — exactly the
//!   computation expert FFNs provide. A FLOP-matched dense FFN must
//!   cram all `G` cluster transforms into one hidden layer; a sparse
//!   MoE with enough experts learns one per expert. This is the regime
//!   where the paper's sparse-beats-dense results (Tables 9/11) and
//!   capacity sensitivity (Figure 25) reproduce;
//! * [`SyntheticVision::shifted`] produces a distribution-shifted
//!   variant (rotated features, remapped classes) playing the role of
//!   the COCO transfer task in the Table 10 freeze-vs-tune experiment;
//! * [`SyntheticVision::few_shot`] draws the 5-shot linear-eval subset.

use tutel_tensor::{Rng, Tensor};

/// A synthetic clustered-token classification dataset.
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    channels: usize,
    tokens_per_sample: usize,
    classes: usize,
    clusters: usize,
    /// `(G, C)` cluster centers.
    centers: Tensor,
    /// `(G, C)` per-cluster carrier directions (unit norm).
    dirs1: Tensor,
    /// `(G, C)` per-cluster signal directions (unit norm).
    dirs2: Tensor,
    /// `(K, G)` class signal signs (±1).
    signs: Vec<Vec<f32>>,
    noise: f32,
    /// Fixed rotation applied to features (identity for the base task).
    rotation: Option<Tensor>,
}

impl SyntheticVision {
    /// Creates the base ("ImageNet-like") task.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        channels: usize,
        tokens_per_sample: usize,
        classes: usize,
        clusters: usize,
        seed: u64,
    ) -> Self {
        assert!(
            channels > 0 && tokens_per_sample > 0 && classes > 0 && clusters > 0,
            "dataset dimensions must be positive"
        );
        let mut rng = Rng::seed(seed);
        let centers = rng.normal_tensor(&[clusters, channels], 0.0, 1.0);
        let dirs1 = unit_rows(rng.normal_tensor(&[clusters, channels], 0.0, 1.0));
        let dirs2 = unit_rows(rng.normal_tensor(&[clusters, channels], 0.0, 1.0));
        let signs = balanced_signs(classes, clusters, &mut rng);
        SyntheticVision {
            channels,
            tokens_per_sample,
            classes,
            clusters,
            centers,
            dirs1,
            dirs2,
            signs,
            noise: 0.15,
            rotation: None,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of latent clusters (the "ideal" expert count).
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Feature channels per token.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Tokens per sample.
    pub fn tokens_per_sample(&self) -> usize {
        self.tokens_per_sample
    }

    /// A distribution-shifted variant of this task (fixed random
    /// feature rotation + freshly drawn class signs): the "COCO"
    /// stand-in for transfer experiments. Cluster structure is
    /// preserved — which is exactly why frozen pre-trained experts
    /// transfer (Table 10).
    pub fn shifted(&self, seed: u64) -> Self {
        let mut rng = Rng::seed(seed ^ 0xC0C0);
        let mut out = self.clone();
        // A mild random rotation blended with identity keeps the task
        // learnable while shifting the input distribution. Kept gentle:
        // the paper's transfer target (COCO) shares the pre-training
        // visual domain — the task changes, the features barely do.
        let mut rot = rng.normal_tensor(&[self.channels, self.channels], 0.0, 1.0);
        let scale = 0.15 / (self.channels as f32).sqrt();
        for v in rot.as_mut_slice() {
            *v *= scale;
        }
        for i in 0..self.channels {
            let idx = i * self.channels + i;
            rot.as_mut_slice()[idx] += 1.0;
        }
        out.rotation = Some(rot);
        out.signs = balanced_signs(self.classes, self.clusters, &mut rng);
        out
    }

    /// Writes one token of `class` from cluster `g` into `row`.
    fn write_token(&self, row: &mut [f32], class: usize, g: usize, rng: &mut Rng) {
        let c = self.channels;
        let center = &self.centers.as_slice()[g * c..(g + 1) * c];
        let d1 = &self.dirs1.as_slice()[g * c..(g + 1) * c];
        let d2 = &self.dirs2.as_slice()[g * c..(g + 1) * c];
        let s = self.signs[class][g];
        // Per-token random carrier sign: the class lives only in the
        // *correlation* u·(u·s) between the two directions.
        let u = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        let norm = (c as f32).sqrt();
        for j in 0..c {
            row[j] =
                (1.5 * center[j] + u * d1[j] + u * s * 0.9 * d2[j] + self.noise * rng.normal())
                    / norm;
        }
    }

    /// Samples a batch: returns `(tokens (B·T, C), labels (B))`.
    pub fn batch(&self, batch: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let t = self.tokens_per_sample;
        let c = self.channels;
        let mut x = Tensor::zeros(&[batch * t, c]);
        let mut labels = Vec::with_capacity(batch);
        for b in 0..batch {
            let class = rng.below(self.classes);
            labels.push(class);
            for ti in 0..t {
                let g = rng.below(self.clusters);
                let row = &mut x.as_mut_slice()[(b * t + ti) * c..(b * t + ti + 1) * c];
                self.write_token(row, class, g, rng);
            }
        }
        (self.rotate(x), labels)
    }

    /// Draws a few-shot episode: `shots` samples per class, returned as
    /// one batch in class order (the 5-shot linear evaluation protocol
    /// of the paper uses 5 training images per class).
    pub fn few_shot(&self, shots: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let t = self.tokens_per_sample;
        let c = self.channels;
        let n = self.classes * shots;
        let mut x = Tensor::zeros(&[n * t, c]);
        let mut labels = Vec::with_capacity(n);
        for class in 0..self.classes {
            for _ in 0..shots {
                let b = labels.len();
                labels.push(class);
                for ti in 0..t {
                    let g = rng.below(self.clusters);
                    let row = &mut x.as_mut_slice()[(b * t + ti) * c..(b * t + ti + 1) * c];
                    self.write_token(row, class, g, rng);
                }
            }
        }
        (self.rotate(x), labels)
    }

    fn rotate(&self, x: Tensor) -> Tensor {
        match &self.rotation {
            // check:allow(no_panic, `shifted` builds the rotation (C, C) and every caller builds x (rows, C))
            Some(rot) => x.matmul(rot).expect("rotation is (C, C)"),
            None => x,
        }
    }
}

/// Draws one ±1 pattern per class with a (near-)zero sum, so the class
/// is invisible to any computation that pools a *shared* per-token
/// statistic across clusters: only cluster-specific units decode it.
fn balanced_signs(classes: usize, clusters: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
    (0..classes)
        .map(|_| {
            let half = clusters / 2;
            let mut pattern: Vec<f32> = (0..clusters)
                .map(|i| if i < half { 1.0 } else { -1.0 })
                .collect();
            rng.shuffle(&mut pattern);
            pattern
        })
        .collect()
}

fn unit_rows(mut t: Tensor) -> Tensor {
    let cols = t.dims()[1];
    for row in t.as_mut_slice().chunks_mut(cols) {
        let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        for v in row {
            *v /= n;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shapes_and_label_range() {
        let ds = SyntheticVision::new(8, 4, 5, 6, 1);
        let mut rng = Rng::seed(2);
        let (x, y) = ds.batch(10, &mut rng);
        assert_eq!(x.dims(), &[40, 8]);
        assert_eq!(y.len(), 10);
        assert!(y.iter().all(|&l| l < 5));
    }

    #[test]
    fn dataset_is_seed_deterministic() {
        let ds = SyntheticVision::new(8, 4, 5, 6, 1);
        let (x1, y1) = ds.batch(4, &mut Rng::seed(7));
        let (x2, y2) = ds.batch(4, &mut Rng::seed(7));
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn class_signal_is_invisible_to_linear_pooling() {
        // The pooled mean of many tokens must be (nearly) identical
        // across classes: the carrier sign u averages out.
        let ds = SyntheticVision::new(16, 512, 2, 1, 3);
        let mut rng = Rng::seed(4);
        let (x, y) = ds.batch(12, &mut rng);
        let c = ds.channels();
        let t = ds.tokens_per_sample();
        let mut mean = vec![vec![0.0f32; c]; 2];
        let mut count = [0usize; 2];
        for (b, &label) in y.iter().enumerate() {
            for ti in 0..t {
                let row = &x.as_slice()[(b * t + ti) * c..][..c];
                for j in 0..c {
                    mean[label][j] += row[j];
                }
            }
            count[label] += t;
        }
        if count[0] > 0 && count[1] > 0 {
            let gap: f32 = (0..c)
                .map(|j| (mean[0][j] / count[0] as f32 - mean[1][j] / count[1] as f32).abs())
                .fold(0.0, f32::max);
            assert!(
                gap < 0.2,
                "linear pooling must not separate classes, gap {gap}"
            );
        }
    }

    #[test]
    fn class_signal_is_visible_to_quadratic_correlation() {
        // The product of the two direction projections recovers s.
        let ds = SyntheticVision::new(16, 256, 2, 1, 3);
        // Ensure the fixture classes actually differ on cluster 0.
        if ds.signs[0][0] == ds.signs[1][0] {
            return;
        }
        let mut rng = Rng::seed(4);
        let (x, y) = ds.batch(12, &mut rng);
        let c = ds.channels();
        let t = ds.tokens_per_sample();
        let d1 = &ds.dirs1.as_slice()[..c];
        let d2 = &ds.dirs2.as_slice()[..c];
        let mut corr = [0.0f32; 2];
        let mut count = [0usize; 2];
        for (b, &label) in y.iter().enumerate() {
            for ti in 0..t {
                let row = &x.as_slice()[(b * t + ti) * c..][..c];
                let p1: f32 = row.iter().zip(d1).map(|(a, d)| a * d).sum();
                let p2: f32 = row.iter().zip(d2).map(|(a, d)| a * d).sum();
                corr[label] += p1 * p2;
                count[label] += 1;
            }
        }
        let m0 = corr[0] / count[0].max(1) as f32;
        let m1 = corr[1] / count[1].max(1) as f32;
        assert!(
            (m0 - m1).abs() > 0.02,
            "quadratic correlation must separate classes: {m0} vs {m1}"
        );
    }

    #[test]
    fn shifted_task_changes_distribution_but_not_shape() {
        let ds = SyntheticVision::new(8, 4, 5, 6, 1);
        let shifted = ds.shifted(99);
        let (x1, _) = ds.batch(4, &mut Rng::seed(5));
        let (x2, _) = shifted.batch(4, &mut Rng::seed(5));
        assert_eq!(x1.dims(), x2.dims());
        assert_ne!(x1, x2);
    }

    #[test]
    fn few_shot_is_balanced() {
        let ds = SyntheticVision::new(8, 4, 5, 6, 1);
        let mut rng = Rng::seed(6);
        let (x, y) = ds.few_shot(5, &mut rng);
        assert_eq!(y.len(), 25);
        assert_eq!(x.dims(), &[25 * 4, 8]);
        for class in 0..5 {
            assert_eq!(y.iter().filter(|&&l| l == class).count(), 5);
        }
    }
}
