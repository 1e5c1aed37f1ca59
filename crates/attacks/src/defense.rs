//! Boundary defenses: the one perturbation a C2PI client applies to its
//! share before the reveal. The paper's mechanism is uniform noise; the
//! others are its stated future work (*"exploring and applying more
//! defenses against IDPA to preserve client's data privacy"*). The
//! attacks train against a [`Defense`], the evaluation harness applies
//! it to what they observe, and the serving client adds its
//! [`Defense::additive_delta`] to its share — one implementation for all
//! of them.

use c2pi_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A boundary-activation defense mechanism.
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
    /// Quantize activations to a coarse grid (step `delta`) — destroys
    /// the low-order information inversion networks exploit while
    /// preserving the ranking information classification needs.
    Quantize {
        /// Quantization step.
        step: f32,
    },
    /// Randomly zero a fraction of activations (test-time dropout), as
    /// proposed for split-learning defenses.
    Dropout {
        /// Fraction of elements zeroed, in `[0, 1)`.
        rate: f32,
    },
}

impl Defense {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::Uniform { .. } => "uniform",
            Defense::Gaussian { .. } => "gaussian",
            Defense::Quantize { .. } => "quantize",
            Defense::Dropout { .. } => "dropout",
        }
    }

    /// Human-readable label with the defense's parameter, for reports
    /// and plan tables (`uniform(0.100)`, `dropout(0.30)`, …).
    pub fn label(&self) -> String {
        match *self {
            Defense::None => "none".to_string(),
            Defense::Uniform { magnitude } => format!("uniform({magnitude:.3})"),
            Defense::Gaussian { std } => format!("gaussian({std:.3})"),
            Defense::Quantize { step } => format!("quantize({step:.3})"),
            Defense::Dropout { rate } => format!("dropout({rate:.2})"),
        }
    }

    /// For *additive* defenses, the perturbation tensor `Δ` such that
    /// `apply(act, seed) == act + Δ` — the form a C2PI client can apply
    /// to its own additive share without knowing the activation.
    /// Returns `None` for non-additive defenses (quantisation, dropout
    /// depend on the activation's values, which no single share holds).
    pub fn additive_delta(&self, dims: &[usize], seed: u64) -> Option<Tensor> {
        match *self {
            Defense::None => Some(Tensor::zeros(dims)),
            Defense::Uniform { magnitude } => {
                if magnitude <= 0.0 {
                    return Some(Tensor::zeros(dims));
                }
                Some(Tensor::rand_uniform(dims, -magnitude, magnitude, seed))
            }
            Defense::Gaussian { std } => {
                if std <= 0.0 {
                    return Some(Tensor::zeros(dims));
                }
                Some(Tensor::rand_normal(dims, 0.0, std, seed))
            }
            Defense::Quantize { .. } | Defense::Dropout { .. } => None,
        }
    }

    /// Applies the defense to an activation.
    pub fn apply(&self, act: &Tensor, seed: u64) -> Tensor {
        match *self {
            Defense::None | Defense::Uniform { .. } | Defense::Gaussian { .. } => {
                let delta = self.additive_delta(act.dims(), seed).expect("additive defense");
                act.add(&delta).expect("same dims")
            }
            Defense::Quantize { step } => {
                if step <= 0.0 {
                    return act.clone();
                }
                act.map(|v| (v / step).round() * step)
            }
            Defense::Dropout { rate } => {
                if rate <= 0.0 {
                    return act.clone();
                }
                let mask = Tensor::rand_uniform(act.dims(), 0.0, 1.0, seed);
                let scale = 1.0 / (1.0 - rate).max(1e-6);
                Tensor::from_vec(
                    act.as_slice()
                        .iter()
                        .zip(mask.as_slice())
                        .map(|(&v, &m)| if m < rate { 0.0 } else { v * scale })
                        .collect(),
                    act.dims(),
                )
                .expect("same dims")
            }
        }
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
    fn quantize_snaps_to_grid() {
        let a = Tensor::from_vec(vec![0.12, -0.26, 0.51], &[3]).unwrap();
        let d = Defense::Quantize { step: 0.25 }.apply(&a, 0);
        for v in d.as_slice() {
            let q = v / 0.25;
            assert!((q - q.round()).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_zeros_roughly_the_right_fraction() {
        let a = Tensor::full(&[1, 1, 50, 50], 1.0);
        let d = Defense::Dropout { rate: 0.3 }.apply(&a, 4);
        let zeros = d.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / d.len() as f32;
        assert!((frac - 0.3).abs() < 0.07, "zeroed fraction {frac}");
        // Survivors are rescaled to preserve the expectation.
        assert!((d.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn zero_parameters_are_identity() {
        let a = act();
        assert_eq!(Defense::Uniform { magnitude: 0.0 }.apply(&a, 1), a);
        assert_eq!(Defense::Gaussian { std: 0.0 }.apply(&a, 1), a);
        assert_eq!(Defense::Quantize { step: 0.0 }.apply(&a, 1), a);
        assert_eq!(Defense::Dropout { rate: 0.0 }.apply(&a, 1), a);
    }

    #[test]
    fn additive_delta_agrees_with_apply() {
        let a = act();
        for d in
            [Defense::None, Defense::Uniform { magnitude: 0.2 }, Defense::Gaussian { std: 0.3 }]
        {
            let delta = d.additive_delta(a.dims(), 5).unwrap();
            assert_eq!(a.add(&delta).unwrap(), d.apply(&a, 5), "{}", d.label());
        }
        assert!(Defense::Quantize { step: 0.1 }.additive_delta(a.dims(), 5).is_none());
        assert!(Defense::Dropout { rate: 0.1 }.additive_delta(a.dims(), 5).is_none());
    }

    #[test]
    fn labels_carry_parameters() {
        assert_eq!(Defense::Uniform { magnitude: 0.1 }.label(), "uniform(0.100)");
        assert_eq!(Defense::None.label(), "none");
        assert!(Defense::Dropout { rate: 0.3 }.label().contains("0.30"));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Defense::None.name(),
            Defense::Uniform { magnitude: 0.1 }.name(),
            Defense::Gaussian { std: 0.1 }.name(),
            Defense::Quantize { step: 0.1 }.name(),
            Defense::Dropout { rate: 0.1 }.name(),
        ];
        let set: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
