//! Reduced-precision emulation.
//!
//! Tutel supports FP64/FP32/FP16/BF16 on its GPU backends
//! (Section 4.1). This stack computes in `f32`; these utilities
//! *emulate* the reduced formats by rounding values to the target
//! format's representable set after every op that would have produced
//! them — the standard way to study precision sensitivity without
//! hardware support. The MoE layer's routing decisions are integer-like
//! (argmax over softmax) and robust to these roundings; tests in the
//! core crate assert output closeness under BF16 weights.

use crate::Tensor;

/// A floating-point storage format to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE binary32 (the native compute type — identity rounding).
    F32,
    /// bfloat16: 8 exponent bits, 7 mantissa bits (round-to-nearest).
    Bf16,
    /// IEEE binary16: 5 exponent bits, 10 mantissa bits, with overflow
    /// saturating to ±∞ like hardware casts.
    F16,
}

impl Precision {
    /// Rounds one value to this format's representable set (returned as
    /// `f32`).
    pub fn round(&self, v: f32) -> f32 {
        match self {
            Precision::F32 => v,
            Precision::Bf16 => bf16_round(v),
            Precision::F16 => f16_round(v),
        }
    }

    /// Bytes one element occupies *in storage / on the wire* under this
    /// format. Compute always accumulates in `f32`; this is what the
    /// adaptive cost functions multiply parameter counts by.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 | Precision::F16 => 2,
        }
    }

    /// Short audit-log label (`f32` / `bf16` / `f16`).
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::F16 => "f16",
        }
    }
}

/// Rounds every element of `t` to `precision`, returning a new tensor.
pub fn quantize(t: &Tensor, precision: Precision) -> Tensor {
    t.map(|v| precision.round(v))
}

/// Rounds every element of `data` to `precision` in place. The bf16
/// path goes through the active kernel table (SIMD when available —
/// bitwise-identical to the scalar rounding by construction); the
/// other formats use the scalar reference.
pub fn quantize_in_place(data: &mut [f32], precision: Precision) {
    match precision {
        Precision::F32 => {}
        Precision::Bf16 => (crate::dispatch::table().bf16_round)(data),
        Precision::F16 => {
            for v in data.iter_mut() {
                *v = f16_round(*v);
            }
        }
    }
}

/// Delegates to the dispatch module's scalar reference so the
/// emulation path and the tables' `bf16_round` kernels can never
/// disagree on the rounding rule.
fn bf16_round(v: f32) -> f32 {
    crate::dispatch::bf16_round_one(v)
}

fn f16_round(v: f32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    let max_f16 = 65504.0f32;
    if v.abs() > max_f16 {
        return if v > 0.0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    // Decompose, clamp the exponent to f16's range, round the mantissa
    // to 10 bits.
    let bits = v.to_bits();
    let sign = bits & 0x8000_0000;
    let exp = ((bits >> 23) & 0xFF) as i32 - 127;
    if v == 0.0 {
        return v;
    }
    if exp < -14 {
        // Subnormal in f16: quantize to multiples of 2^-24.
        let step = 2.0f32.powi(-24);
        return f32::from_bits(sign) + (v / step).round() * step;
    }
    // Keep 10 mantissa bits: clear the low 13 with round-to-nearest-even.
    let drop_bits = 13;
    let bias = (1u32 << (drop_bits - 1)) - 1 + ((bits >> drop_bits) & 1);
    f32::from_bits((bits.wrapping_add(bias) >> drop_bits) << drop_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_is_identity() {
        for v in [0.0f32, 1.5, -3.25e7, 1e-30] {
            assert_eq!(Precision::F32.round(v), v);
        }
    }

    #[test]
    fn bf16_keeps_seven_mantissa_bits() {
        // 1 + 2^-7 is representable in bf16; 1 + 2^-8 rounds away.
        let exact = 1.0 + 2.0f32.powi(-7);
        assert_eq!(Precision::Bf16.round(exact), exact);
        let fine = 1.0 + 2.0f32.powi(-9);
        let rounded = Precision::Bf16.round(fine);
        assert!(rounded == 1.0 || rounded == exact, "got {rounded}");
        // Sign and rough magnitude always survive.
        assert!((Precision::Bf16.round(-123.456) + 123.456).abs() < 1.0);
    }

    #[test]
    fn bf16_round_is_idempotent() {
        let mut rng = crate::Rng::seed(5);
        for _ in 0..1000 {
            let v = rng.normal() * 100.0;
            let once = Precision::Bf16.round(v);
            assert_eq!(Precision::Bf16.round(once), once);
        }
    }

    #[test]
    fn f16_keeps_ten_mantissa_bits_and_saturates() {
        let exact = 1.0 + 2.0f32.powi(-10);
        assert_eq!(Precision::F16.round(exact), exact);
        assert_eq!(Precision::F16.round(1e6), f32::INFINITY);
        assert_eq!(Precision::F16.round(-1e6), f32::NEG_INFINITY);
        assert_eq!(Precision::F16.round(0.0), 0.0);
    }

    #[test]
    fn f16_round_is_idempotent_on_normals() {
        let mut rng = crate::Rng::seed(6);
        for _ in 0..1000 {
            let v = rng.normal() * 10.0;
            let once = Precision::F16.round(v);
            assert_eq!(Precision::F16.round(once), once, "v = {v}");
        }
    }

    #[test]
    fn quantize_bounds_relative_error() {
        let mut rng = crate::Rng::seed(7);
        let t = rng.normal_tensor(&[256], 0.0, 3.0);
        let b = quantize(&t, Precision::Bf16);
        let h = quantize(&t, Precision::F16);
        for ((orig, bv), hv) in t.as_slice().iter().zip(b.as_slice()).zip(h.as_slice()) {
            let scale = orig.abs().max(1e-3);
            assert!((orig - bv).abs() / scale < 0.01, "bf16 err at {orig}");
            assert!((orig - hv).abs() / scale < 0.002, "f16 err at {orig}");
        }
    }
}
