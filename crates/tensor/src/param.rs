//! A trainable parameter: a weight tensor and the gradient accumulated
//! against it.

use crate::{Result, Tensor, TensorError};

/// A weight tensor `w` and its gradient accumulator `g`.
///
/// The constructor allocates `g` with `w`'s dims, and no method can
/// give either tensor another shape: that the two agree is a property
/// of the type, so [`Param::step`] has no run-time shape check to fail.
/// Owners read `w`, add into `g` during their backward pass, and call
/// `step` once per optimizer step.
#[derive(Debug, Clone)]
pub struct Param {
    w: Tensor,
    g: Tensor,
}

impl Param {
    /// Maximum gradient L2 norm [`Param::step`] applies, per parameter.
    pub const GRAD_CLIP: f32 = 1.0;

    /// Wraps `w` with a zero gradient of the same dims.
    pub fn new(w: Tensor) -> Self {
        let g = Tensor::zeros(w.dims());
        Param { w, g }
    }

    /// The weights.
    pub fn w(&self) -> &Tensor {
        &self.w
    }

    /// The weights' elements, writable (re-rounding to a storage grid).
    pub fn w_mut(&mut self) -> &mut [f32] {
        self.w.as_mut_slice()
    }

    /// The accumulated gradient.
    pub fn g(&self) -> &Tensor {
        &self.g
    }

    /// The gradient's elements, for kernels that accumulate in place.
    pub fn g_mut(&mut self) -> &mut [f32] {
        self.g.as_mut_slice()
    }

    /// The weights beside the writable gradient, for a backward pass
    /// that reads one while accumulating into the other.
    pub fn w_and_g_mut(&mut self) -> (&Tensor, &mut [f32]) {
        (&self.w, self.g.as_mut_slice())
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the parameter holds no weight.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Replaces the weights (checkpoint restore); the gradient stays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `w`'s dims differ.
    pub fn set(&mut self, w: Tensor) -> Result<()> {
        if w.dims() != self.w.dims() {
            return Err(TensorError::shape_mismatch(
                "set_weights",
                w.dims(),
                self.w.dims(),
            ));
        }
        self.w = w;
        Ok(())
    }

    /// `g += grad`, for a backward pass that produced its gradient as a
    /// tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `grad`'s dims differ.
    pub fn accumulate(&mut self, grad: &Tensor) -> Result<()> {
        self.g.axpy(1.0, grad)
    }

    /// One SGD step: clips the gradient's norm to [`Self::GRAD_CLIP`],
    /// applies `w -= lr · g` and clears `g` in place. After the norm
    /// (one serial sum: it defines the clip) it is one pass over the
    /// elements, each scaled, applied and cleared, with the roundings
    /// of [`Tensor::clip_norm`] then [`Tensor::axpy`]. An owner that
    /// stores `w` on a coarser grid re-rounds it afterwards.
    pub fn step(&mut self, lr: f32) {
        // An unclipped `g · 1.0` is `g`, bit for bit (a NaN quietened,
        // as the update would quieten it anyway).
        let scale = self.g.clip_scale(Self::GRAD_CLIP).unwrap_or(1.0);
        let (w, g) = (self.w.as_mut_slice(), self.g.as_mut_slice());
        for (w, g) in w.iter_mut().zip(g) {
            *w += -lr * (*g * scale);
            *g = 0.0;
        }
    }

    /// Clears the gradient in place (no reallocation — this runs every
    /// optimizer step).
    pub fn zero_grad(&mut self) {
        self.g.as_mut_slice().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_clips_updates_and_clears() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap());
        assert_eq!(p.g().dims(), p.w().dims());
        p.accumulate(&Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap())
            .unwrap();
        p.step(0.5);
        // ‖g‖ = 5 is clipped to 1: g = (0.6, 0.8).
        assert!((p.w().as_slice()[0] - 0.7).abs() < 1e-6);
        assert!((p.w().as_slice()[1] - 0.6).abs() < 1e-6);
        assert_eq!(p.g().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn neither_tensor_can_change_shape() {
        let mut p = Param::new(Tensor::zeros(&[2, 3]));
        assert!(p.set(Tensor::zeros(&[3, 2])).is_err());
        assert!(p.accumulate(&Tensor::zeros(&[6])).is_err());
        assert!(p.set(Tensor::ones(&[2, 3])).is_ok());
        assert_eq!((p.len(), p.g().len()), (6, 6));
    }
}
