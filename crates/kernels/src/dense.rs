//! The dense GShard/Fairseq encode/decode baseline (Figure 18a).
//!
//! Materializes the `(T, E, ΔC)` one-hot *combine* tensor and performs
//! full einsums against it — `O(T·E·ΔC·M)` work, almost all of it
//! multiplications by zero, plus `O(T·E·ΔC)` extra memory. This is the
//! implementation Tutel's sparse kernels replace; it exists here so the
//! equivalence can be tested and the memory/time gap benchmarked
//! (Figure 24, Table 4). The combine tensor is filled from
//! [`Routing::selections`], the same accessor the sparse kernels walk.

use tutel_gate::Routing;
use tutel_tensor::{Tensor, TensorError};

/// The materialized combine tensor `(T, E, ΔC)` of Figure 18a, line 10:
/// `combine[t][e][c] = gate(t→e)` if token `t` occupies capacity slot
/// `c` of expert `e`, else 0.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCombine {
    weights: Tensor,
}

impl DenseCombine {
    /// Builds the combine tensor from a routing decision.
    pub fn new(routing: &Routing) -> Self {
        let t = routing.num_tokens();
        let (e, cap) = (routing.experts, routing.capacity);
        let mut weights = Tensor::zeros(&[t, e, cap]);
        for ti in 0..t {
            for (ei, g, loc) in routing.selections(ti) {
                if let Some(l) = loc {
                    weights.set(&[ti, ei, l], g);
                }
            }
        }
        DenseCombine { weights }
    }

    /// The raw `(T, E, ΔC)` tensor.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Bytes this tensor occupies (the Table 4 memory overhead source).
    pub fn bytes(&self) -> u64 {
        (self.weights.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Dense encode: `dispatch[e][c] = Σ_t bool(combine[t][e][c]) · x[t]`
    /// — the full einsum of Figure 18a line 12, zeros included.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` is not `(T, M)`.
    pub fn encode(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let (t, e, cap) = self.dims();
        if x.rank() != 2 || x.dims()[0] != t {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![t, 0],
                op: "dense_encode",
            });
        }
        let m = x.dims()[1];
        let mut out = Tensor::zeros(&[e, cap, m]);
        // Deliberately dense: iterate the full T×E×ΔC×M index space.
        for ti in 0..t {
            for ei in 0..e {
                for c in 0..cap {
                    let w = if self.weights.at(&[ti, ei, c]) != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                    let row = &x.as_slice()[ti * m..(ti + 1) * m];
                    let off = (ei * cap + c) * m;
                    let orow = &mut out.as_mut_slice()[off..off + m];
                    for (o, v) in orow.iter_mut().zip(row) {
                        *o += w * v;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Dense decode: `out[t] = Σ_{e,c} combine[t][e][c] · y[e][c]`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `y` is not `(E, ΔC, M)`.
    pub fn decode(&self, y: &Tensor) -> Result<Tensor, TensorError> {
        let (t, e, cap) = self.dims();
        if y.rank() != 3 || y.dims()[0] != e || y.dims()[1] != cap {
            return Err(TensorError::ShapeMismatch {
                left: y.dims().to_vec(),
                right: vec![e, cap, 0],
                op: "dense_decode",
            });
        }
        let m = y.dims()[2];
        let mut out = Tensor::zeros(&[t, m]);
        for ti in 0..t {
            for ei in 0..e {
                for c in 0..cap {
                    let w = self.weights.at(&[ti, ei, c]);
                    let off = (ei * cap + c) * m;
                    let yrow = &y.as_slice()[off..off + m];
                    let orow = &mut out.as_mut_slice()[ti * m..(ti + 1) * m];
                    for (o, v) in orow.iter_mut().zip(yrow) {
                        *o += w * v;
                    }
                }
            }
        }
        Ok(out)
    }

    fn dims(&self) -> (usize, usize, usize) {
        (
            self.weights.dims()[0],
            self.weights.dims()[1],
            self.weights.dims()[2],
        )
    }
}

/// Convenience alias: the result of a dense encode, for symmetry with
/// the sparse API.
pub type DenseEncoded = Tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fast_decode, fast_encode};
    use tutel_gate::{route, RouteConfig};
    use tutel_tensor::Rng;

    fn setup(tokens: usize, experts: usize, k: usize, seed: u64) -> (Routing, Tensor, Tensor) {
        let mut rng = Rng::seed(seed);
        let probs = rng
            .uniform_tensor(&[tokens, experts], 0.0, 1.0)
            .softmax_last();
        let cfg = RouteConfig {
            k,
            ..RouteConfig::top1()
        };
        let routing = route(&probs, &cfg).unwrap();
        let x = rng.normal_tensor(&[tokens, 5], 0.0, 1.0);
        let y = rng.normal_tensor(&[experts, routing.capacity, 5], 0.0, 1.0);
        (routing, x, y)
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        let diff = a.sub(b).unwrap().max_abs();
        assert!(diff < 1e-5, "max diff {diff}");
    }

    #[test]
    fn dense_and_sparse_encode_agree() {
        for seed in 0..5 {
            let (routing, x, _) = setup(12, 4, 1, seed);
            let dense = DenseCombine::new(&routing).encode(&x).unwrap();
            let sparse = fast_encode(&x, &routing).unwrap();
            assert_close(&dense, &sparse);
        }
    }

    #[test]
    fn dense_and_sparse_decode_agree() {
        for seed in 0..5 {
            let (routing, _, y) = setup(12, 4, 2, 100 + seed);
            let dense = DenseCombine::new(&routing).decode(&y).unwrap();
            let sparse = fast_decode(&y, &routing, 12).unwrap();
            assert_close(&dense, &sparse);
        }
    }

    #[test]
    fn combine_tensor_memory_scales_with_t_e_cap() {
        let (routing, _, _) = setup(16, 4, 2, 9);
        let c = DenseCombine::new(&routing);
        assert_eq!(c.bytes(), (16 * 4 * routing.capacity * 4) as u64);
    }

    #[test]
    fn dense_encode_validates_shapes() {
        let (routing, _, y) = setup(6, 3, 1, 11);
        let c = DenseCombine::new(&routing);
        assert!(c.encode(&Tensor::zeros(&[7, 5])).is_err());
        assert!(c
            .decode(&Tensor::zeros(&[3, routing.capacity + 1, 5]))
            .is_err());
        assert!(c.decode(&y).is_ok());
    }
}
