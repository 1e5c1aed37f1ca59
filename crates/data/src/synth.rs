//! Procedural class-conditioned image generator — the offline stand-in
//! for CIFAR-10/100.
//!
//! Each class is a parametric texture family (oriented stripes,
//! checkerboards, radial rings, gradients, blob constellations, …) whose
//! parameters are derived deterministically from the class index; each
//! *instance* adds phase/position jitter, colour jitter and pixel noise.
//! The result is a dataset that
//!
//! * small conv nets can classify well above chance (so the paper's
//!   accuracy-vs-noise and boundary-accuracy experiments are meaningful),
//!   and
//! * has low-level spatial structure, so SSIM between an original and an
//!   attack reconstruction behaves like it does on natural images.

use crate::Dataset;
use c2pi_tensor::Tensor;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of classes (10 mirrors CIFAR-10, 100 mirrors CIFAR-100).
    pub classes: usize,
    /// Images generated per class.
    pub per_class: usize,
    /// Square image side length.
    pub image_size: usize,
    /// Master seed; the generator is fully deterministic given the
    /// configuration.
    pub seed: u64,
    /// Amplitude of the per-pixel uniform noise.
    pub pixel_noise: f32,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { classes: 10, per_class: 16, image_size: 32, seed: 7, pixel_noise: 0.04 }
    }
}

/// A generated dataset (thin wrapper adding the generator entry point to
/// [`Dataset`]).
#[derive(Debug, Clone)]
pub struct SynthDataset {
    inner: Dataset,
}

impl SynthDataset {
    /// Generates the dataset described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `classes`, `per_class` or `image_size` is zero.
    pub fn generate(cfg: &SynthConfig) -> Self {
        assert!(
            cfg.classes > 0 && cfg.per_class > 0 && cfg.image_size > 0,
            "synth config must be positive"
        );
        let mut images = Vec::with_capacity(cfg.classes * cfg.per_class);
        let mut labels = Vec::with_capacity(cfg.classes * cfg.per_class);
        for class in 0..cfg.classes {
            for inst in 0..cfg.per_class {
                let inst_seed = cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((class as u64) << 20)
                    .wrapping_add(inst as u64);
                images.push(render_class(class, cfg, inst_seed));
                labels.push(class);
            }
        }
        SynthDataset {
            inner: Dataset::new(images, labels, cfg.classes)
                .expect("generator produced consistent data"),
        }
    }

    /// The generated images, `[1, 3, s, s]` each, values in `[0, 1]`.
    pub fn images(&self) -> &[Tensor] {
        self.inner.images()
    }

    /// Class labels aligned with [`SynthDataset::images`].
    pub fn labels(&self) -> &[usize] {
        self.inner.labels()
    }

    /// Consumes the wrapper, returning the plain [`Dataset`].
    pub fn into_dataset(self) -> Dataset {
        self.inner
    }
}

/// Deterministic per-class parameters derived by integer hashing.
#[derive(Debug, Clone, Copy)]
struct ClassParams {
    family: usize,
    angle: f32,
    freq: f32,
    color_a: [f32; 3],
    color_b: [f32; 3],
    cells: usize,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f32 {
    (h >> 11) as f32 / (1u64 << 53) as f32
}

fn class_params(class: usize) -> ClassParams {
    let h0 = splitmix(class as u64 + 1);
    let h1 = splitmix(h0);
    let h2 = splitmix(h1);
    let h3 = splitmix(h2);
    ClassParams {
        family: class % 8,
        angle: unit(h0) * std::f32::consts::PI,
        freq: 1.5 + unit(h1) * 4.0,
        color_a: [unit(h2), unit(splitmix(h2 ^ 1)), unit(splitmix(h2 ^ 2))],
        color_b: [unit(h3), unit(splitmix(h3 ^ 1)), unit(splitmix(h3 ^ 2))],
        cells: 2 + (h1 % 5) as usize,
    }
}

/// Scalar field in `[0, 1]` for the class's texture family at normalised
/// coordinates `(u, v) ∈ [0, 1]²` with instance jitter `(pu, pv, pr)`.
fn field(p: &ClassParams, u: f32, v: f32, pu: f32, pv: f32, pr: f32) -> f32 {
    use std::f32::consts::PI;
    let (su, sv) = (u + pu * 0.2, v + pv * 0.2);
    let rot = p.angle + pr * 0.3;
    let ru = su * rot.cos() + sv * rot.sin();
    let rv = -su * rot.sin() + sv * rot.cos();
    match p.family {
        0 => 0.5 + 0.5 * (2.0 * PI * p.freq * ru).sin(),
        1 => {
            let cx = (ru * p.cells as f32).floor() as i64;
            let cy = (rv * p.cells as f32).floor() as i64;
            if (cx + cy).rem_euclid(2) == 0 {
                1.0
            } else {
                0.0
            }
        }
        2 => {
            let dx = su - 0.5 - pu * 0.1;
            let dy = sv - 0.5 - pv * 0.1;
            let r = (dx * dx + dy * dy).sqrt();
            0.5 + 0.5 * (2.0 * PI * p.freq * 2.0 * r).cos()
        }
        3 => (ru).rem_euclid(1.0),
        4 => {
            // Blob constellation: class-fixed centres, instance jitter.
            let mut acc: f32 = 0.0;
            for i in 0..p.cells {
                let h = splitmix((p.cells * 31 + i) as u64);
                let bx = unit(h) + pu * 0.15;
                let by = unit(splitmix(h)) + pv * 0.15;
                let d2 = (su - bx).powi(2) + (sv - by).powi(2);
                acc += (-d2 * 40.0 * p.freq).exp();
            }
            acc.min(1.0)
        }
        5 => {
            let d = (su - 0.5).abs().max((sv - 0.5).abs());
            0.5 + 0.5 * (2.0 * PI * p.freq * 2.0 * d).sin()
        }
        6 => {
            0.5 + 0.25 * (2.0 * PI * p.freq * ru).sin()
                + 0.25 * (2.0 * PI * (p.freq * 0.7) * rv).cos()
        }
        _ => {
            // Polka dots on a class-sized grid.
            let g = p.cells as f32 + 1.0;
            let fu = (su * g).fract() - 0.5;
            let fv = (sv * g).fract() - 0.5;
            if fu * fu + fv * fv < 0.09 {
                1.0
            } else {
                0.2
            }
        }
    }
}

fn render_class(class: usize, cfg: &SynthConfig, inst_seed: u64) -> Tensor {
    let p = class_params(class);
    let s = cfg.image_size;
    let mut rng = rand::rngs::StdRng::seed_from_u64(inst_seed);
    let pu: f32 = rng.random_range(-1.0..1.0);
    let pv: f32 = rng.random_range(-1.0..1.0);
    let pr: f32 = rng.random_range(-1.0..1.0);
    let cj: f32 = rng.random_range(-0.1..0.1);
    let mut img = Tensor::zeros(&[1, 3, s, s]);
    for y in 0..s {
        for x in 0..s {
            let u = x as f32 / (s - 1).max(1) as f32;
            let v = y as f32 / (s - 1).max(1) as f32;
            let t = field(&p, u, v, pu, pv, pr).clamp(0.0, 1.0);
            for ch in 0..3 {
                let base = p.color_a[ch] * (1.0 - t) + p.color_b[ch] * t + cj;
                let noise = rng.random_range(-cfg.pixel_noise..cfg.pixel_noise.max(1e-9));
                img.set(&[0, ch, y, x], (base + noise).clamp(0.0, 1.0))
                    .expect("coordinates in range");
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ssim;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig { classes: 4, per_class: 2, ..Default::default() };
        let a = SynthDataset::generate(&cfg);
        let b = SynthDataset::generate(&cfg);
        assert_eq!(a.images()[3], b.images()[3]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthDataset::generate(&SynthConfig {
            classes: 2,
            per_class: 1,
            seed: 1,
            ..Default::default()
        });
        let b = SynthDataset::generate(&SynthConfig {
            classes: 2,
            per_class: 1,
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.images()[0], b.images()[0]);
    }

    #[test]
    fn pixels_are_in_unit_range() {
        let d = SynthDataset::generate(&SynthConfig {
            classes: 10,
            per_class: 3,
            ..Default::default()
        });
        for img in d.images() {
            assert!(img.min() >= 0.0 && img.max() <= 1.0);
            assert_eq!(img.dims(), &[1, 3, 32, 32]);
        }
    }

    #[test]
    fn labels_align_with_class_blocks() {
        let d =
            SynthDataset::generate(&SynthConfig { classes: 3, per_class: 4, ..Default::default() });
        assert_eq!(d.labels().len(), 12);
        assert_eq!(d.labels()[0], 0);
        assert_eq!(d.labels()[4], 1);
        assert_eq!(d.labels()[11], 2);
    }

    #[test]
    fn same_class_more_similar_than_cross_class() {
        // Structural similarity within a class should on average beat
        // cross-class similarity — the property classifiers exploit.
        let d = SynthDataset::generate(&SynthConfig {
            classes: 6,
            per_class: 4,
            pixel_noise: 0.02,
            ..Default::default()
        });
        let imgs = d.images();
        let mut within = Vec::new();
        let mut across = Vec::new();
        for c in 0..6usize {
            let b = c * 4;
            within.push(ssim(&imgs[b], &imgs[b + 1]).unwrap());
            across.push(ssim(&imgs[b], &imgs[(b + 5) % 24]).unwrap());
        }
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(avg(&within) > avg(&across), "within {:?} across {:?}", avg(&within), avg(&across));
    }

    #[test]
    fn hundred_class_mode_has_distinct_palettes() {
        let d = SynthDataset::generate(&SynthConfig {
            classes: 100,
            per_class: 1,
            ..Default::default()
        });
        assert_eq!(d.images().len(), 100);
        // Mean colours across classes should not collapse to one value.
        let means: Vec<f32> = d.images().iter().map(|i| i.mean()).collect();
        let spread = means.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - means.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(spread > 0.1);
    }
}
