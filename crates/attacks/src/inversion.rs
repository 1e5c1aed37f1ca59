//! Inverse-network attacks: INA (plain convolutional decoder) and EINA
//! (residual-block decoder, Li et al. 2022). A decoder `M*` is trained
//! on `(M_l(x'), x')` pairs so that `M*(M_l(x)) ≈ x`.

use crate::{AttackError, Defense, Idpa, Result};
use c2pi_data::Dataset;
use c2pi_nn::layers::{Conv2d, Relu, ResidualBlock, UpsampleNearest};
use c2pi_nn::optim::{clip_grad_norm, Adam};
use c2pi_nn::{loss, BoundaryId, Model, Sequential};
use c2pi_tensor::Tensor;

/// Decoder architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InaArch {
    /// Plain convolution + ReLU blocks (the original INA).
    Plain,
    /// ResNet basic blocks (the enhanced EINA).
    Residual,
}

/// Configuration of an inverse-network attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InaConfig {
    /// Decoder family.
    pub arch: InaArch,
    /// Training epochs over the attacker's dataset.
    pub epochs: usize,
    /// Learning rate. The paper trains with SGD at 0.001 on 50k
    /// images; at the CPU scale of this reproduction Adam converges far
    /// better, so the trainer uses Adam with this rate.
    pub lr: f32,
    /// Channel width of the decoder trunk.
    pub base_width: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for InaConfig {
    fn default() -> Self {
        InaConfig {
            arch: InaArch::Residual,
            epochs: 30,
            lr: 0.005,
            base_width: 16,
            batch: 4,
            seed: 23,
        }
    }
}

/// Builds a decoder mapping `[1, ca, ha, wa]` activations back to
/// `[1, 3, size, size]` images.
///
/// # Errors
///
/// Returns an error when the spatial size is not a power-of-two multiple
/// of the activation size.
pub fn build_decoder(
    arch: InaArch,
    act_dims: &[usize],
    image_size: usize,
    base_width: usize,
    seed: u64,
) -> Result<Sequential> {
    if act_dims.len() != 4 {
        return Err(AttackError::BadConfig(format!(
            "decoder needs an NCHW activation, got {act_dims:?}"
        )));
    }
    let (ca, ha) = (act_dims[1], act_dims[2]);
    if ha == 0 || !image_size.is_multiple_of(ha) || !(image_size / ha).is_power_of_two() {
        return Err(AttackError::BadConfig(format!(
            "cannot upsample {ha} to {image_size} by powers of two"
        )));
    }
    let ups = (image_size / ha).trailing_zeros() as usize;
    let mut seq = Sequential::new();
    let mut s = seed;
    let mut next_seed = || {
        s = s.wrapping_add(1);
        s
    };
    seq.push(Conv2d::new(ca, base_width, 3, 1, 1, 1, next_seed()));
    seq.push(Relu::new());
    for _ in 0..ups {
        seq.push(UpsampleNearest::new(2));
        match arch {
            InaArch::Plain => {
                seq.push(Conv2d::new(base_width, base_width, 3, 1, 1, 1, next_seed()));
                seq.push(Relu::new());
            }
            InaArch::Residual => {
                seq.push(ResidualBlock::new(base_width, base_width, next_seed()));
            }
        }
    }
    match arch {
        InaArch::Plain => {
            seq.push(Conv2d::new(base_width, base_width, 3, 1, 1, 1, next_seed()));
            seq.push(Relu::new());
        }
        InaArch::Residual => {
            seq.push(ResidualBlock::new(base_width, base_width, next_seed()));
        }
    }
    seq.push(Conv2d::new(base_width, 3, 3, 1, 1, 1, next_seed()));
    Ok(seq)
}

/// The inverse-network attack (INA or EINA by configuration).
#[derive(Debug)]
pub struct InversionAttack {
    cfg: InaConfig,
    decoder: Option<Sequential>,
    prepared_for: Option<BoundaryId>,
}

impl InversionAttack {
    /// Creates an attack with the given configuration.
    pub fn new(cfg: InaConfig) -> Self {
        InversionAttack { cfg, decoder: None, prepared_for: None }
    }

    /// The plain-decoder INA with default settings.
    pub fn ina() -> Self {
        InversionAttack::new(InaConfig { arch: InaArch::Plain, ..Default::default() })
    }

    /// The residual-decoder EINA with default settings.
    pub fn eina() -> Self {
        InversionAttack::new(InaConfig { arch: InaArch::Residual, ..Default::default() })
    }

    /// The configuration.
    pub fn config(&self) -> InaConfig {
        self.cfg
    }
}

impl Idpa for InversionAttack {
    fn name(&self) -> &'static str {
        match self.cfg.arch {
            InaArch::Plain => "ina",
            InaArch::Residual => "eina",
        }
    }

    fn prepare(
        &mut self,
        model: &mut Model,
        id: BoundaryId,
        train: &Dataset,
        defense: Defense,
    ) -> Result<()> {
        if train.is_empty() {
            return Err(AttackError::BadConfig("empty attacker training set".into()));
        }
        let [_, h, _] = model.input_shape();
        // Collect (activation, image) pairs once.
        let mut pairs = Vec::with_capacity(train.len());
        for (i, img) in train.images().iter().enumerate() {
            let act = model.forward_to_cut(id, img)?;
            pairs.push((defense.apply(&act, self.cfg.seed ^ (i as u64) << 8), img.clone()));
        }
        model.seq_mut().clear_cache();
        let mut decoder =
            build_decoder(self.cfg.arch, pairs[0].0.dims(), h, self.cfg.base_width, self.cfg.seed)?;
        let mut optim = Adam::new(self.cfg.lr);
        for _epoch in 0..self.cfg.epochs {
            for chunk in pairs.chunks(self.cfg.batch.max(1)) {
                let acts: Vec<Tensor> = chunk.iter().map(|(a, _)| a.clone()).collect();
                let imgs: Vec<Tensor> = chunk.iter().map(|(_, x)| x.clone()).collect();
                let act_batch = Tensor::stack_batch(&acts)?;
                let img_batch = Tensor::stack_batch(&imgs)?;
                decoder.zero_grad();
                let pred = decoder.forward(&act_batch, true)?;
                let (_, grad) = loss::mse(&pred, &img_batch)?;
                decoder.backward(&grad)?;
                clip_grad_norm(&mut decoder.params(), 5.0);
                optim.step(&mut decoder.params());
            }
        }
        decoder.clear_cache();
        self.decoder = Some(decoder);
        self.prepared_for = Some(id);
        Ok(())
    }

    fn recover(
        &mut self,
        _model: &mut Model,
        id: BoundaryId,
        activation: &Tensor,
    ) -> Result<Tensor> {
        if self.prepared_for != Some(id) {
            return Err(AttackError::NotPrepared(format!(
                "{} prepared for {:?}, asked for {id}",
                self.name(),
                self.prepared_for.map(|b| b.to_string())
            )));
        }
        let name = self.name();
        let decoder =
            self.decoder.as_mut().ok_or_else(|| AttackError::NotPrepared(name.to_string()))?;
        let out = decoder.forward(activation, false)?;
        decoder.clear_cache();
        Ok(out.clamp(0.0, 1.0))
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

    fn small_data(per_class: usize) -> Dataset {
        SynthDataset::generate(&SynthConfig {
            classes: 4,
            per_class,
            pixel_noise: 0.02,
            ..Default::default()
        })
        .into_dataset()
    }

    #[test]
    fn decoder_maps_activation_to_image_shape() {
        let seq = build_decoder(InaArch::Plain, &[1, 8, 8, 8], 32, 8, 1).unwrap();
        let mut seq = seq;
        let act = Tensor::rand_uniform(&[1, 8, 8, 8], 0.0, 1.0, 2);
        let out = seq.forward(&act, false).unwrap();
        assert_eq!(out.dims(), &[1, 3, 32, 32]);
    }

    #[test]
    fn decoder_rejects_non_power_of_two() {
        assert!(build_decoder(InaArch::Plain, &[1, 8, 5, 5], 32, 8, 1).is_err());
        assert!(build_decoder(InaArch::Plain, &[1, 8], 32, 8, 1).is_err());
    }

    #[test]
    fn eina_trains_and_recovers_better_than_untrained() {
        let mut model = tiny_model();
        let data = small_data(3);
        let id = BoundaryId::relu(2);
        let mut attack = InversionAttack::new(InaConfig {
            arch: InaArch::Residual,
            epochs: 120,
            lr: 0.01,
            base_width: 12,
            ..Default::default()
        });
        attack.prepare(&mut model, id, &data, Defense::None).unwrap();
        let x = &data.images()[0];
        let act = model.forward_to_cut(id, x).unwrap();
        let rec = attack.recover(&mut model, id, &act).unwrap();
        let s = ssim(x, &rec).unwrap();
        // Trained on this tiny set the decoder should reconstruct
        // training images with clear structural similarity.
        assert!(s > 0.35, "eina train-set SSIM {s}");
    }

    #[test]
    fn recover_before_prepare_errors() {
        let mut model = tiny_model();
        let mut attack = InversionAttack::ina();
        let act = Tensor::zeros(&[1, 2, 32, 32]);
        assert!(matches!(
            attack.recover(&mut model, BoundaryId::conv(1), &act),
            Err(AttackError::NotPrepared(_))
        ));
    }

    #[test]
    fn prepare_for_one_boundary_rejects_another() {
        let mut model = tiny_model();
        let data = small_data(1);
        let id = BoundaryId::relu(1);
        let mut attack = InversionAttack::new(InaConfig { epochs: 1, ..Default::default() });
        attack.prepare(&mut model, id, &data, Defense::None).unwrap();
        let act = model.forward_to_cut(BoundaryId::relu(2), &data.images()[0]).unwrap();
        assert!(attack.recover(&mut model, BoundaryId::relu(2), &act).is_err());
    }

    #[test]
    fn names_reflect_architecture() {
        assert_eq!(InversionAttack::ina().name(), "ina");
        assert_eq!(InversionAttack::eina().name(), "eina");
    }
}
