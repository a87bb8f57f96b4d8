//! Arena-backed scratch tensors.
//!
//! The per-iteration MoE path builds the same tensor shapes every
//! step. These helpers check the backing `Vec<f32>` out of the global
//! [`tutel_rt::Arena`] instead of allocating, and [`recycle`] returns
//! it when the iteration no longer needs the value. Recycling is
//! always optional — a scratch tensor is an ordinary [`Tensor`] and
//! may simply be dropped.
//!
//! Numerics are unaffected by recycling: [`zeroed`] buffers are
//! re-zeroed on checkout and [`raw`] ones are fully overwritten by
//! their first writer, so arena on/off cannot change results.

use crate::Tensor;

/// An all-zero tensor of the given shape, backed by a recycled buffer
/// when one of the right size is available. Drop-in replacement for
/// [`Tensor::zeros`] on hot paths.
pub fn zeroed(dims: &[usize]) -> Tensor {
    let data = tutel_rt::arena().take_zeroed(dims.iter().product());
    // Length matches the shape product by construction; the fallback
    // keeps this path free of typed errors.
    Tensor::from_vec(data, dims).unwrap_or_else(|_| Tensor::zeros(dims))
}

/// A tensor of the given shape with **unspecified contents**, backed
/// by a recycled buffer when one fits — for an output whose very next
/// writer stores every element, such as a storing grouped launch
/// ([`crate::grouped_gemm_into`]), which zero-fills inside its jobs.
pub fn raw(dims: &[usize]) -> Tensor {
    let data = tutel_rt::arena().take_raw(dims.iter().product());
    Tensor::from_vec(data, dims).unwrap_or_else(|_| Tensor::zeros(dims))
}

/// A copy of `src` backed by a recycled buffer when one of the right
/// size is available. Drop-in replacement for `src.clone()` on hot
/// paths that go on to mutate the copy.
pub fn copy_of(src: &Tensor) -> Tensor {
    let mut data = tutel_rt::arena().take_raw(src.len());
    data.copy_from_slice(src.as_slice());
    Tensor::from_vec(data, src.dims()).unwrap_or_else(|_| src.clone())
}

/// Returns a tensor's backing buffer to the arena for reuse. Call on
/// per-iteration temporaries once their value is consumed.
pub fn recycle(t: Tensor) {
    tutel_rt::arena().put(t.into_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_matches_tensor_zeros() {
        let a = zeroed(&[3, 4]);
        assert_eq!(a, Tensor::zeros(&[3, 4]));
    }

    #[test]
    fn recycle_roundtrip_rezeros() {
        let mut t = zeroed(&[8, 8]);
        t.as_mut_slice().fill(7.0);
        recycle(t);
        let again = zeroed(&[8, 8]);
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn copy_of_matches_clone() {
        let mut t = zeroed(&[2, 3]);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let c = copy_of(&t);
        assert_eq!(c, t);
        recycle(c);
        let again = copy_of(&t);
        assert_eq!(again, t);
    }

    #[test]
    fn scalar_and_empty_shapes() {
        assert_eq!(zeroed(&[]).len(), 1);
        let e = zeroed(&[0, 5]);
        assert_eq!(e.len(), 0);
        recycle(e);
    }
}
