//! Functional (immutable) layer evaluation from [`LayerSpec`]s.
//!
//! The [`crate::Layer::forward`] path takes `&mut self` because training
//! caches activations for the backward pass. Serving does not train, so
//! this module provides the pure path: evaluate a layer's
//! protocol-facing spec on an input with scratch buffers only. It backs
//! [`crate::Layer::forward_eval`], [`crate::Sequential::forward_eval`]
//! and [`crate::Model::predict`].

use crate::{LayerSpec, NnError, Result};
use c2pi_tensor::{conv::conv2d_im2col, pool, Tensor};

/// Evaluates one layer spec on `x` without mutating anything.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for shape mismatches and
/// [`NnError::BadConfig`] for [`LayerSpec::Unsupported`] layers (which
/// have no functional description).
pub fn eval_spec(spec: &LayerSpec, x: &Tensor) -> Result<Tensor> {
    match spec {
        LayerSpec::Conv2d { weight, bias, geom } => Ok(conv2d_im2col(x, weight, bias, *geom)?),
        LayerSpec::Linear { weight, bias } => {
            let (n, f) = x.shape().as_matrix()?;
            let (in_f, out_f) = weight.shape().as_matrix()?;
            if f != in_f {
                return Err(NnError::BadConfig(format!("linear expects {in_f} features, got {f}")));
            }
            let mut y = x.matmul(weight)?;
            for i in 0..n {
                for (j, v) in y.as_mut_slice()[i * out_f..(i + 1) * out_f].iter_mut().enumerate() {
                    *v += bias.as_slice()[j];
                }
            }
            Ok(y)
        }
        LayerSpec::Relu => Ok(x.map(|v| if v > 0.0 { v } else { 0.0 })),
        LayerSpec::MaxPool2d { window, stride } => {
            Ok(pool::max_pool2d(x, *window, *stride)?.output)
        }
        LayerSpec::AvgPool2d { window, stride } => Ok(pool::avg_pool2d(x, *window, *stride)?),
        LayerSpec::Flatten => {
            let (n, c, h, w) = x.shape().as_nchw()?;
            Ok(x.reshape(&[n, c * h * w])?)
        }
        LayerSpec::Affine { scale, shift } => {
            let (n, c, h, w) = x.shape().as_nchw()?;
            if scale.len() != c || shift.len() != c {
                return Err(NnError::BadConfig(format!(
                    "affine expects {} channels, got {c}",
                    scale.len()
                )));
            }
            let plane = h * w;
            let mut out = x.clone();
            let data = out.as_mut_slice();
            for b in 0..n {
                for ch in 0..c {
                    let off = (b * c + ch) * plane;
                    for v in &mut data[off..off + plane] {
                        *v = scale[ch] * *v + shift[ch];
                    }
                }
            }
            Ok(out)
        }
        LayerSpec::Unsupported(d) => {
            Err(NnError::BadConfig(format!("layer {d} has no functional evaluation")))
        }
    }
}

/// Evaluates a spec stack front to back.
///
/// # Errors
///
/// Propagates the first layer error.
pub fn eval_specs(specs: &[LayerSpec], x: &Tensor) -> Result<Tensor> {
    let mut cur = x.clone();
    for spec in specs {
        cur = eval_spec(spec, &cur)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use crate::{Layer, Sequential};

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn eval_matches_stateful_forward_for_all_supported_layers() {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        seq.push(Conv2d::new(3, 2, 3, 1, 1, 1, 2));
        seq.push(AvgPool2d::new(2, 2));
        seq.push(Flatten::new());
        seq.push(Linear::new(2 * 2 * 2, 5, 3));
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], -1.0, 1.0, 4);
        let stateful = seq.forward(&x, false).unwrap();
        let specs: Vec<LayerSpec> = seq.layers().iter().map(|l| l.spec()).collect();
        let functional = eval_specs(&specs, &x).unwrap();
        assert_close(&stateful, &functional, 1e-5);
    }

    #[test]
    fn eval_matches_batchnorm_inference() {
        let mut bn = BatchNorm2d::new(2);
        let warm = Tensor::rand_uniform(&[4, 2, 6, 6], -1.0, 2.0, 5);
        for _ in 0..20 {
            bn.forward(&warm, true).unwrap();
            bn.clear_cache();
        }
        let x = Tensor::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, 6);
        let stateful = bn.forward(&x, false).unwrap();
        let functional = eval_spec(&bn.spec(), &x).unwrap();
        assert_close(&stateful, &functional, 1e-4);
    }

    #[test]
    fn spec_free_layers_have_forward_eval_overrides() {
        // ResidualBlock and UpsampleNearest have no protocol-facing
        // spec (the PI engines reject them) but still support the
        // immutable path, so clear-segment suffixes and Model::predict
        // work on generator-style models.
        use crate::layers::{ResidualBlock, UpsampleNearest};
        let mut seq = Sequential::new();
        seq.push(ResidualBlock::new(2, 4, 1));
        seq.push(UpsampleNearest::new(2));
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, 3);
        let stateful = seq.forward(&x, false).unwrap();
        let immutable = seq.forward_eval(&x).unwrap();
        assert_close(&stateful, &immutable, 1e-5);
    }

    #[test]
    fn unsupported_spec_is_rejected() {
        let spec = LayerSpec::Unsupported("gelu".into());
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(eval_spec(&spec, &x).is_err());
    }
}
