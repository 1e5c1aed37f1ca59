//! Maximum-likelihood attack (He et al., ACSAC 2019):
//! `x̂ = argmin ‖M_l(x̂) − M_l(x)‖²` by gradient descent on the input.

use crate::{AttackError, Defense, Idpa, Result};
use c2pi_data::Dataset;
use c2pi_nn::{loss, optim::Adam, BoundaryId, Model, Param};
use c2pi_tensor::Tensor;

/// MLA configuration.
///
/// The paper runs 10 000 iterations from a random initialisation; the
/// default here is CPU-scale and the bench harness raises it under
/// `--paper-scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlaConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for MlaConfig {
    fn default() -> Self {
        MlaConfig { iterations: 300, lr: 0.05, seed: 17 }
    }
}

/// The maximum-likelihood attack.
#[derive(Debug, Clone, Default)]
pub struct Mla {
    cfg: MlaConfig,
}

impl Mla {
    /// Creates an MLA with the given configuration.
    pub fn new(cfg: MlaConfig) -> Self {
        Mla { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> MlaConfig {
        self.cfg
    }
}

impl Idpa for Mla {
    fn name(&self) -> &'static str {
        "mla"
    }

    fn prepare(
        &mut self,
        _model: &mut Model,
        _id: BoundaryId,
        _train: &Dataset,
        _defense: Defense,
    ) -> Result<()> {
        Ok(()) // MLA needs no training phase.
    }

    fn recover(
        &mut self,
        model: &mut Model,
        id: BoundaryId,
        activation: &Tensor,
    ) -> Result<Tensor> {
        let [c, h, w] = model.input_shape();
        let mut xhat = Param::new(Tensor::rand_uniform(&[1, c, h, w], 0.25, 0.75, self.cfg.seed));
        let mut adam = Adam::new(self.cfg.lr);
        for _ in 0..self.cfg.iterations {
            let a = model.forward_to_cut(id, &xhat.value)?;
            if a.dims() != activation.dims() {
                return Err(AttackError::BadConfig(format!(
                    "activation shape {:?} does not match model cut {:?}",
                    activation.dims(),
                    a.dims()
                )));
            }
            let (_, grad_a) = loss::mse(&a, activation)?;
            xhat.grad = model.backward_from_cut(id, &grad_a)?;
            adam.step(&mut [&mut xhat]);
            xhat.value = xhat.value.clamp(0.0, 1.0);
        }
        model.seq_mut().zero_grad();
        model.seq_mut().clear_cache();
        Ok(xhat.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_data::metrics::ssim;
    use c2pi_data::synth::{SynthConfig, SynthDataset};
    use c2pi_nn::model::{alexnet, ZooConfig};

    fn tiny_model() -> Model {
        alexnet(&ZooConfig { width_div: 32, seed: 3, ..Default::default() }).unwrap()
    }

    #[test]
    fn mla_recovers_early_layer_well() {
        let mut model = tiny_model();
        let data = SynthDataset::generate(&SynthConfig {
            classes: 2,
            per_class: 1,
            pixel_noise: 0.01,
            ..Default::default()
        });
        let x = &data.images()[0];
        let id = BoundaryId::conv(1);
        let act = model.forward_to_cut(id, x).unwrap();
        let mut mla = Mla::new(MlaConfig { iterations: 250, lr: 0.08, seed: 5 });
        let xhat = mla.recover(&mut model, id, &act).unwrap();
        let s = ssim(x, &xhat).unwrap();
        assert!(s > 0.5, "early-layer SSIM {s}");
    }

    #[test]
    fn recovery_quality_degrades_with_depth() {
        let mut model = tiny_model();
        let data = SynthDataset::generate(&SynthConfig {
            classes: 2,
            per_class: 1,
            pixel_noise: 0.01,
            ..Default::default()
        });
        let x = &data.images()[0];
        let mut mla = Mla::new(MlaConfig { iterations: 150, lr: 0.08, seed: 6 });
        let early_id = BoundaryId::conv(1);
        let late_id = BoundaryId::relu(6);
        let early_act = model.forward_to_cut(early_id, x).unwrap();
        let late_act = model.forward_to_cut(late_id, x).unwrap();
        let early = ssim(x, &mla.recover(&mut model, early_id, &early_act).unwrap()).unwrap();
        let late = ssim(x, &mla.recover(&mut model, late_id, &late_act).unwrap()).unwrap();
        assert!(early > late, "early {early} should beat late {late}");
    }

    #[test]
    fn mismatched_activation_rejected() {
        let mut model = tiny_model();
        let mut mla = Mla::new(MlaConfig { iterations: 1, ..Default::default() });
        let bad = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(mla.recover(&mut model, BoundaryId::conv(1), &bad).is_err());
    }

    #[test]
    fn output_is_a_valid_image() {
        let mut model = tiny_model();
        let x = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, 7);
        let id = BoundaryId::relu(2);
        let act = model.forward_to_cut(id, &x).unwrap();
        let mut mla = Mla::new(MlaConfig { iterations: 5, ..Default::default() });
        let xhat = mla.recover(&mut model, id, &act).unwrap();
        assert_eq!(xhat.dims(), &[1, 3, 32, 32]);
        assert!(xhat.min() >= 0.0 && xhat.max() <= 1.0);
    }
}
