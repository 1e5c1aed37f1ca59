//! Fixed-point encoding into the ring `Z_2^64`.
//!
//! All secure arithmetic operates on 64-bit ring elements holding
//! two's-complement fixed-point numbers with [`FixedPoint::frac_bits`]
//! fractional bits. After a secure multiplication the scale doubles; the
//! truncation protocols in [`crate::beaver`] bring it back.

use c2pi_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Fixed-point format descriptor.
///
/// ```
/// use c2pi_mpc::FixedPoint;
/// let fp = FixedPoint::default();
/// let x = fp.encode(-1.5);
/// assert!((fp.decode(x) + 1.5).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FixedPoint {
    frac_bits: u32,
}

impl Default for FixedPoint {
    /// 12 fractional bits — the common choice of Delphi-era PI systems,
    /// giving ~3 decimal digits below the point and ample headroom above.
    fn default() -> Self {
        FixedPoint { frac_bits: 12 }
    }
}

impl FixedPoint {
    /// Creates a format with the given number of fractional bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= frac_bits <= 30`.
    pub fn new(frac_bits: u32) -> Self {
        assert!((1..=30).contains(&frac_bits), "frac_bits must be in 1..=30");
        FixedPoint { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The scale factor `2^frac_bits`.
    pub fn scale(&self) -> f32 {
        (1u64 << self.frac_bits) as f32
    }

    /// Encodes a float as a ring element (round-to-nearest,
    /// two's-complement wrap).
    pub fn encode(&self, x: f32) -> u64 {
        (x * self.scale()).round() as i64 as u64
    }

    /// Decodes a ring element back to a float.
    pub fn decode(&self, v: u64) -> f32 {
        (v as i64) as f32 / self.scale()
    }

    /// Encodes a whole tensor into a ring-element vector (row-major).
    pub fn encode_tensor(&self, t: &Tensor) -> Vec<u64> {
        t.as_slice().iter().map(|&x| self.encode(x)).collect()
    }

    /// Decodes a ring-element vector into a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the length does not match the shape.
    pub fn decode_tensor(
        &self,
        v: &[u64],
        dims: &[usize],
    ) -> std::result::Result<Tensor, c2pi_tensor::TensorError> {
        Tensor::from_vec(v.iter().map(|&x| self.decode(x)).collect(), dims)
    }

    /// Local truncation by `frac_bits` (arithmetic shift on the signed
    /// interpretation) — exact when applied to a *plaintext* value.
    pub fn truncate(&self, v: u64) -> u64 {
        ((v as i64) >> self.frac_bits) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_round_trips_small_values() {
        let fp = FixedPoint::default();
        for x in [-10.0f32, -1.5, -0.001, 0.0, 0.25, 3.75, 100.0] {
            let err = (fp.decode(fp.encode(x)) - x).abs();
            assert!(err <= 1.0 / fp.scale(), "{x}: err {err}");
        }
    }

    #[test]
    fn negative_values_use_twos_complement() {
        let fp = FixedPoint::default();
        let v = fp.encode(-1.0);
        assert!(v > u64::MAX / 2); // high bit set
        assert_eq!(fp.decode(v), -1.0);
    }

    #[test]
    fn addition_wraps_correctly() {
        let fp = FixedPoint::default();
        let a = fp.encode(1.5);
        let b = fp.encode(-2.25);
        assert!((fp.decode(a.wrapping_add(b)) + 0.75).abs() < 1e-3);
    }

    #[test]
    fn multiplication_then_truncation_recovers_product() {
        let fp = FixedPoint::default();
        let a = fp.encode(1.5);
        let b = fp.encode(-2.0);
        let prod = a.wrapping_mul(b);
        assert!((fp.decode(fp.truncate(prod)) + 3.0).abs() < 1e-2);
    }

    #[test]
    fn tensor_round_trip() {
        let fp = FixedPoint::default();
        let t = Tensor::rand_uniform(&[2, 3], -4.0, 4.0, 1);
        let enc = fp.encode_tensor(&t);
        let dec = fp.decode_tensor(&enc, &[2, 3]).unwrap();
        for (a, b) in t.as_slice().iter().zip(dec.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn zero_frac_bits_rejected() {
        FixedPoint::new(0);
    }

    proptest! {
        #[test]
        fn encode_is_additively_homomorphic(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
            let fp = FixedPoint::default();
            let sum = fp.decode(fp.encode(a).wrapping_add(fp.encode(b)));
            prop_assert!((sum - (a + b)).abs() < 2.0 / fp.scale() + (a + b).abs() * 1e-5);
        }

        #[test]
        fn truncate_matches_signed_shift(x in -10_000.0f32..10_000.0) {
            let fp = FixedPoint::new(8);
            let enc = fp.encode(x * fp.scale()); // value with doubled scale
            let dec = fp.decode(fp.truncate(enc));
            prop_assert!((dec - x).abs() < 0.01 + x.abs() * 1e-4);
        }
    }
}
