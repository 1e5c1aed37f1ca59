//! Boundary defenses: the one perturbation a C2PI client applies to its
//! share before the reveal. A defense is an additive perturbation `Δ`:
//! the client holds only an additive share of the boundary activation,
//! so it can add noise to that share but cannot quantise or drop values
//! it never sees. The paper's mechanism is uniform noise. The attacks
//! train against a [`Defense`], the evaluation harness applies it to
//! what they observe, and the serving client adds its
//! [`Defense::delta`] to its share — one implementation for all of
//! them.

use c2pi_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A boundary-activation defense: additive noise on the revealed share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Defense {
    /// No perturbation (the insecure baseline).
    None,
    /// The paper's mechanism: add `U(−λ, λ)` noise.
    Uniform {
        /// Noise magnitude λ.
        magnitude: f32,
    },
    /// Zero-mean Gaussian noise with the given standard deviation.
    Gaussian {
        /// Standard deviation.
        std: f32,
    },
}

impl Defense {
    /// Human-readable label with the defense's parameter, for reports
    /// and plan tables (`uniform(0.100)`, `gaussian(0.300)`, …).
    pub fn label(&self) -> String {
        match *self {
            Defense::None => "none".to_string(),
            Defense::Uniform { magnitude } => format!("uniform({magnitude:.3})"),
            Defense::Gaussian { std } => format!("gaussian({std:.3})"),
        }
    }

    /// Whether every parameter is finite and non-negative. Any other
    /// parameter draws no usable noise (a negative one draws none, a NaN
    /// or infinite one draws non-finite values, which the fixed-point
    /// encoding cannot carry), so a deployment would reveal the
    /// activation under a label that claims a defense.
    pub fn is_valid(&self) -> bool {
        match *self {
            Defense::None => true,
            Defense::Uniform { magnitude: p } | Defense::Gaussian { std: p } => {
                p.is_finite() && p >= 0.0
            }
        }
    }

    /// The perturbation `Δ` of shape `dims` drawn under `seed`, such
    /// that `apply(act, seed) == act + Δ`. The client adds it to its own
    /// share without knowing the activation.
    pub fn delta(&self, dims: &[usize], seed: u64) -> Tensor {
        match *self {
            Defense::None => Tensor::zeros(dims),
            Defense::Uniform { magnitude: p } | Defense::Gaussian { std: p } if p <= 0.0 => {
                Tensor::zeros(dims)
            }
            Defense::Uniform { magnitude } => {
                Tensor::rand_uniform(dims, -magnitude, magnitude, seed)
            }
            Defense::Gaussian { std } => Tensor::rand_normal(dims, 0.0, std, seed),
        }
    }

    /// [`Defense::delta`], always `Some`. Kept only because the frozen
    /// benchmark calls it and `expect`s the result.
    pub fn additive_delta(&self, dims: &[usize], seed: u64) -> Option<Tensor> {
        Some(self.delta(dims, seed))
    }

    /// Applies the defense to an activation: `act + delta(act.dims(), seed)`.
    pub fn apply(&self, act: &Tensor, seed: u64) -> Tensor {
        act.add(&self.delta(act.dims(), seed)).expect("same dims")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act() -> Tensor {
        Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, 3)
    }

    #[test]
    fn none_is_identity() {
        let a = act();
        assert_eq!(Defense::None.apply(&a, 1), a);
    }

    #[test]
    fn uniform_is_bounded() {
        let a = act();
        let d = Defense::Uniform { magnitude: 0.2 }.apply(&a, 1);
        let diff = d.sub(&a).unwrap();
        assert!(diff.map(f32::abs).max() <= 0.2 + 1e-6);
        assert_ne!(d, a);
        assert_eq!(d, Defense::Uniform { magnitude: 0.2 }.apply(&a, 1), "seeded");
    }

    #[test]
    fn gaussian_changes_values_with_zero_mean() {
        let a = Tensor::zeros(&[1, 1, 64, 64]);
        let d = Defense::Gaussian { std: 0.5 }.apply(&a, 2);
        assert!(d.mean().abs() < 0.05);
        assert!(d.sq_norm() > 0.0);
    }

    #[test]
    fn zero_parameters_are_identity() {
        let a = act();
        assert_eq!(Defense::Uniform { magnitude: 0.0 }.apply(&a, 1), a);
        assert_eq!(Defense::Gaussian { std: 0.0 }.apply(&a, 1), a);
    }

    #[test]
    fn delta_agrees_with_apply() {
        let a = act();
        for d in
            [Defense::None, Defense::Uniform { magnitude: 0.2 }, Defense::Gaussian { std: 0.3 }]
        {
            let delta = d.delta(a.dims(), 5);
            assert_eq!(a.add(&delta).unwrap(), d.apply(&a, 5), "{}", d.label());
            assert_eq!(d.additive_delta(a.dims(), 5), Some(delta), "{}", d.label());
        }
    }

    #[test]
    fn only_finite_non_negative_parameters_are_valid() {
        for p in [0.0, 0.1, 3.0] {
            assert!(Defense::Uniform { magnitude: p }.is_valid());
            assert!(Defense::Gaussian { std: p }.is_valid());
        }
        assert!(Defense::None.is_valid());
        for p in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.1] {
            assert!(!Defense::Uniform { magnitude: p }.is_valid(), "uniform({p})");
            assert!(!Defense::Gaussian { std: p }.is_valid(), "gaussian({p})");
        }
    }

    #[test]
    fn labels_carry_parameters() {
        assert_eq!(Defense::Uniform { magnitude: 0.1 }.label(), "uniform(0.100)");
        assert_eq!(Defense::Gaussian { std: 0.3 }.label(), "gaussian(0.300)");
        assert_eq!(Defense::None.label(), "none");
    }
}
