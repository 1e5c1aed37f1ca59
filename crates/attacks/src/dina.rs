//! DINA — the distillation-based inverse-network attack (paper §III-B).
//!
//! The tentative crypto layers before the boundary are partitioned into
//! *sub-blocks*, each ending with a ReLU. The DINA model is a chain of
//! *basic inverse blocks* (a ResNet basic block followed by a dilated
//! convolution), one per sub-block, executed in reverse. Distillation
//! points between sub-blocks supervise the matching intermediate of the
//! inverse chain through the loss of Eq. (1):
//!
//! `L = Σ_j α_j ‖D_j − I_j‖² + α_0 ‖x − x̂‖²`
//!
//! with monotonically increasing coefficients `α_0 < α_1 < …` so each
//! inverse block is guided hardest by its nearest distillation point.

use crate::{AttackError, Defense, Idpa, Result};
use c2pi_data::Dataset;
use c2pi_nn::layers::{Conv2d, ResidualBlock, UpsampleNearest};
use c2pi_nn::optim::{clip_grad_norm, Adam};
use c2pi_nn::{BoundaryId, LayerSpec, Model, Sequential};
use c2pi_tensor::Tensor;

/// Loss-coefficient schedule (Figure 5's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoefficientSchedule {
    /// DINA-c1: `α₀ = 1, α₁ = 3, α_j = 2·α_{j−1}` — increasing toward
    /// the DINA input, the paper's choice.
    IncreasingC1,
    /// DINA-c2: uniform `α_j = 1`.
    UniformC2,
}

impl CoefficientSchedule {
    /// Coefficient `α_j` for distillation point `j` (`j = 0` is the
    /// output term).
    pub fn alpha(&self, j: usize) -> f32 {
        match self {
            CoefficientSchedule::UniformC2 => 1.0,
            CoefficientSchedule::IncreasingC1 => match j {
                0 => 1.0,
                1 => 3.0,
                _ => 3.0 * 2f32.powi(j as i32 - 1),
            },
        }
    }
}

/// DINA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DinaConfig {
    /// Coefficient schedule (c1 by default, per the paper).
    pub schedule: CoefficientSchedule,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate (Adam; the paper's full-scale setup uses SGD at
    /// 0.001, which needs far more data/epochs than the CPU scale has).
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Seed for weights and noise.
    pub seed: u64,
}

impl Default for DinaConfig {
    fn default() -> Self {
        DinaConfig {
            schedule: CoefficientSchedule::IncreasingC1,
            epochs: 30,
            lr: 0.005,
            batch: 4,
            seed: 31,
        }
    }
}

/// One sub-block of the target prefix: a run of layers ending with a
/// ReLU (the final sub-block may end at the boundary itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubBlock {
    /// Half-open layer range in the model's sequential stack.
    pub range: (usize, usize),
    /// Output shape `[1, c, h, w]` of the sub-block.
    pub out_dims: Vec<usize>,
}

/// Partitions the prefix before `id` into ReLU-terminated sub-blocks and
/// records each one's output shape (probed with a dummy forward).
///
/// # Errors
///
/// Returns an error for unknown boundaries or non-NCHW activations.
pub fn sub_blocks(model: &mut Model, id: BoundaryId) -> Result<Vec<SubBlock>> {
    let end = model.seq_end_of(id)?;
    let [c, h, w] = model.input_shape();
    let probe = Tensor::zeros(&[1, c, h, w]);
    let outs = model.seq_mut().forward_collect(&probe, false)?;
    model.seq_mut().clear_cache();
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for (i, out) in outs.iter().enumerate().take(end) {
        let is_relu = matches!(model.seq().layers()[i].spec(), LayerSpec::Relu);
        let is_last = i + 1 == end;
        if is_relu || is_last {
            blocks.push(SubBlock { range: (start, i + 1), out_dims: out.dims().to_vec() });
            start = i + 1;
        }
    }
    Ok(blocks)
}

/// Builds one basic inverse block: optional upsampling, a ResNet basic
/// block, then a dilated 3×3 convolution (paper Figure 3).
///
/// # Errors
///
/// Returns an error when the spatial growth factor is not a power of two.
pub fn basic_inverse_block(in_dims: &[usize], out_dims: &[usize], seed: u64) -> Result<Sequential> {
    if in_dims.len() != 4 || out_dims.len() != 4 {
        return Err(AttackError::BadConfig("inverse block needs NCHW shapes".into()));
    }
    let (ci, hi) = (in_dims[1], in_dims[2]);
    let (co, ho) = (out_dims[1], out_dims[2]);
    if ho % hi != 0 || !(ho / hi).is_power_of_two() {
        return Err(AttackError::BadConfig(format!("inverse block cannot grow {hi} to {ho}")));
    }
    let factor = ho / hi;
    let mid = co.max(8);
    let mut seq = Sequential::new();
    if factor > 1 {
        seq.push(UpsampleNearest::new(factor));
    }
    seq.push(ResidualBlock::new(ci, mid, seed));
    seq.push(Conv2d::new(mid, co, 3, 1, 2, 2, seed.wrapping_add(7)));
    Ok(seq)
}

/// The DINA attack.
#[derive(Debug)]
pub struct Dina {
    cfg: DinaConfig,
    /// Inverse blocks in execution order: `blocks[e]` inverts sub-block
    /// `N−e` (so the chain runs from the boundary activation back to the
    /// image).
    blocks: Option<Vec<Sequential>>,
    prepared_for: Option<BoundaryId>,
}

impl Dina {
    /// Creates a DINA attack with the given configuration.
    pub fn new(cfg: DinaConfig) -> Self {
        Dina { cfg, blocks: None, prepared_for: None }
    }

    /// The configuration.
    pub fn config(&self) -> DinaConfig {
        self.cfg
    }

    /// Number of basic inverse blocks once prepared.
    pub fn block_count(&self) -> usize {
        self.blocks.as_ref().map(|b| b.len()).unwrap_or(0)
    }

    /// Runs the inverse chain, returning every intermediate `I_j`
    /// (ordered `I_{N−1}, …, I_0`).
    fn forward_chain(blocks: &mut [Sequential], z: &Tensor, train: bool) -> Result<Vec<Tensor>> {
        let mut outs = Vec::with_capacity(blocks.len());
        let mut cur = z.clone();
        for b in blocks.iter_mut() {
            cur = b.forward(&cur, train)?;
            outs.push(cur.clone());
        }
        Ok(outs)
    }
}

impl Idpa for Dina {
    fn name(&self) -> &'static str {
        "dina"
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
        let sbs = sub_blocks(model, id)?;
        let n = sbs.len();
        let [c, h, w] = model.input_shape();
        let image_dims = vec![1usize, c, h, w];
        // Build blocks in execution order: invert sub-block N first.
        let mut blocks = Vec::with_capacity(n);
        for e in 0..n {
            let j = n - e; // sub-block being inverted (1-based)
            let in_dims = &sbs[j - 1].out_dims;
            let out_dims = if j >= 2 { &sbs[j - 2].out_dims } else { &image_dims };
            blocks.push(basic_inverse_block(
                in_dims,
                out_dims,
                self.cfg.seed.wrapping_add(e as u64 * 101),
            )?);
        }
        // Pre-compute, per image: boundary activation (defended) and the
        // distillation targets D_1..D_{N-1}.
        let mut samples = Vec::with_capacity(train.len());
        for (i, img) in train.images().iter().enumerate() {
            let outs = model.seq_mut().forward_collect(img, false)?;
            model.seq_mut().clear_cache();
            let z = defense.apply(&outs[sbs[n - 1].range.1 - 1], self.cfg.seed ^ ((i as u64) << 9));
            let targets: Vec<Tensor> =
                (1..n).map(|j| outs[sbs[j - 1].range.1 - 1].clone()).collect();
            samples.push((z, targets, img.clone()));
        }
        let mut optim = Adam::new(self.cfg.lr);
        for _epoch in 0..self.cfg.epochs {
            for chunk in samples.chunks(self.cfg.batch.max(1)) {
                // Batch the chunk.
                let zs: Vec<Tensor> = chunk.iter().map(|(z, _, _)| z.clone()).collect();
                let z = Tensor::stack_batch(&zs)?;
                let imgs: Vec<Tensor> = chunk.iter().map(|(_, _, x)| x.clone()).collect();
                let x = Tensor::stack_batch(&imgs)?;
                for b in blocks.iter_mut() {
                    b.zero_grad();
                }
                let inters = Dina::forward_chain(&mut blocks, &z, true)?;
                // inters[e] is I_{n-1-e}; inters[n-1] is x̂.
                let xhat = &inters[n - 1];
                let a0 = self.cfg.schedule.alpha(0);
                let mut g = xhat.sub(&x)?.scale(2.0 * a0 / xhat.len() as f32);
                // Walk blocks backwards, injecting distillation gradients.
                for e in (0..n).rev() {
                    g = blocks[e].backward(&g)?;
                    // After backing through blocks[e] we sit at I_{n-e},
                    // the output of blocks[e-1]; inject its loss term.
                    if e > 0 {
                        let j = n - e; // distillation index of I_j
                        if j < n {
                            let i_j = &inters[e - 1];
                            let d_j: Vec<Tensor> = chunk
                                .iter()
                                .map(|(_, targets, _)| targets[j - 1].clone())
                                .collect();
                            let d_j = Tensor::stack_batch(&d_j)?;
                            let aj = self.cfg.schedule.alpha(j);
                            let inject = i_j.sub(&d_j)?.scale(2.0 * aj / i_j.len() as f32);
                            g = g.add(&inject)?;
                        }
                    }
                }
                let mut params = Vec::new();
                for b in blocks.iter_mut() {
                    params.extend(b.params());
                }
                clip_grad_norm(&mut params, 5.0);
                optim.step(&mut params);
            }
        }
        for b in blocks.iter_mut() {
            b.clear_cache();
        }
        self.blocks = Some(blocks);
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
                "dina prepared for {:?}, asked for {id}",
                self.prepared_for.map(|b| b.to_string())
            )));
        }
        let blocks = self.blocks.as_mut().ok_or_else(|| AttackError::NotPrepared("dina".into()))?;
        let inters = Dina::forward_chain(blocks, activation, false)?;
        for b in blocks.iter_mut() {
            b.clear_cache();
        }
        let xhat = inters.last().ok_or_else(|| AttackError::BadConfig("empty chain".into()))?;
        Ok(xhat.clamp(0.0, 1.0))
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
    fn coefficients_are_monotone_for_c1() {
        let c1 = CoefficientSchedule::IncreasingC1;
        assert_eq!(c1.alpha(0), 1.0);
        assert_eq!(c1.alpha(1), 3.0);
        assert_eq!(c1.alpha(2), 6.0);
        assert_eq!(c1.alpha(3), 12.0);
        for j in 0..6 {
            assert!(c1.alpha(j) < c1.alpha(j + 1));
            assert_eq!(CoefficientSchedule::UniformC2.alpha(j), 1.0);
        }
    }

    #[test]
    fn sub_blocks_end_with_relus() {
        let mut model = tiny_model();
        // alexnet prefix to relu(3): conv1 relu pool conv2 relu pool conv3 relu
        let sbs = sub_blocks(&mut model, BoundaryId::relu(3)).unwrap();
        assert_eq!(sbs.len(), 3);
        // Boundary at a conv (pre-relu) adds a trailing relu-less block.
        let sbs2 = sub_blocks(&mut model, BoundaryId::conv(4)).unwrap();
        assert_eq!(sbs2.len(), 4);
        assert!(sbs2[3].range.1 > sbs2[2].range.1);
    }

    #[test]
    fn inverse_block_restores_shape() {
        let mut b = basic_inverse_block(&[1, 16, 8, 8], &[1, 8, 16, 16], 1).unwrap();
        let z = Tensor::rand_uniform(&[1, 16, 8, 8], 0.0, 1.0, 2);
        let out = b.forward(&z, false).unwrap();
        assert_eq!(out.dims(), &[1, 8, 16, 16]);
        // Same-size block has no upsample layer.
        let same = basic_inverse_block(&[1, 16, 8, 8], &[1, 8, 8, 8], 1).unwrap();
        assert!(same.len() < b.len());
    }

    #[test]
    fn dina_trains_and_reconstructs_training_images() {
        let mut model = tiny_model();
        let data = small_data(3);
        let id = BoundaryId::relu(2);
        let mut dina = Dina::new(DinaConfig { epochs: 60, lr: 0.01, ..Default::default() });
        dina.prepare(&mut model, id, &data, Defense::None).unwrap();
        assert_eq!(dina.block_count(), 2);
        let x = &data.images()[0];
        let act = model.forward_to_cut(id, x).unwrap();
        let rec = dina.recover(&mut model, id, &act).unwrap();
        assert_eq!(rec.dims(), x.dims());
        let s = ssim(x, &rec).unwrap();
        assert!(s > 0.35, "dina train-set SSIM {s}");
    }

    #[test]
    fn recover_without_prepare_errors() {
        let mut model = tiny_model();
        let mut dina = Dina::new(DinaConfig::default());
        let act = Tensor::zeros(&[1, 2, 16, 16]);
        assert!(dina.recover(&mut model, BoundaryId::relu(2), &act).is_err());
    }

    #[test]
    fn c1_beats_or_matches_c2_on_training_reconstruction() {
        // The Figure 5 effect, at miniature scale: increasing
        // coefficients give at least comparable reconstruction.
        let data = small_data(2);
        let id = BoundaryId::relu(3);
        let run = |schedule| {
            let mut model = tiny_model();
            let mut dina =
                Dina::new(DinaConfig { schedule, epochs: 30, lr: 0.01, ..Default::default() });
            dina.prepare(&mut model, id, &data, Defense::None).unwrap();
            let mut total = 0.0f32;
            for x in data.images() {
                let act = model.forward_to_cut(id, x).unwrap();
                let rec = dina.recover(&mut model, id, &act).unwrap();
                total += ssim(x, &rec).unwrap();
            }
            total / data.len() as f32
        };
        let c1 = run(CoefficientSchedule::IncreasingC1);
        let c2 = run(CoefficientSchedule::UniformC2);
        // Allow slack: at this scale the schedules are close; c1 must not
        // be dramatically worse.
        assert!(c1 > c2 - 0.08, "c1 {c1} vs c2 {c2}");
    }
}
