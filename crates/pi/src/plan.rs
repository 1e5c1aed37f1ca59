//! Compilation of a model's crypto prefix into an execution plan.
//!
//! Compilation is the per-deployment work a [`crate::session::PiSession`]
//! does **once**: shape inference, server-side weight encoding into the
//! ring, and the backend-independent operation counts. Per-inference
//! correlated randomness is *not* generated here — that is the offline
//! phase (`PiSession::preprocess`), which runs the dealer against this
//! plan.

use crate::report::OpCounts;
use crate::{PiError, Result};
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::FixedPoint;
use c2pi_nn::LayerSpec;
use c2pi_tensor::conv::Conv2dGeom;

/// Public per-layer execution plan (both parties know the crypto-prefix
/// architecture; only weights are server-private).
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Conv { c: usize, h: usize, w: usize, geom: Conv2dGeom },
    Fc { k: usize },
    Relu { n: usize },
    MaxPool { c: usize, h: usize, w: usize },
    AvgPool { c: usize, h: usize, w: usize, window: usize, stride: usize },
    Flatten,
    Affine,
}

/// Server-side constants of a step, encoded into the ring once per
/// session (weights never change between inferences).
#[derive(Debug, Clone)]
pub(crate) enum StepData {
    Lin { w: RingMatrix, bias2f: Vec<u64>, cols: usize },
    Affine { scale: Vec<u64>, shift2f: Vec<u64> },
    None,
}

/// A compiled crypto prefix: steps, per-step server constants, the
/// backend-independent cost counts, and the public output shape.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    pub steps: Vec<Step>,
    pub data: Vec<StepData>,
    pub base_counts: OpCounts,
    pub in_chw: (usize, usize, usize),
    pub out_dims: Vec<usize>,
}

/// Base OTs the real offline phases run per dealt set: one κ = 128 set,
/// the setup their OT extension amortises. A modelled price (DESIGN.md
/// §3) — the dealer draws no base OT.
const BASE_OTS_PER_SET: u64 = 128;

/// Compiles layer specs against a `[c, h, w]` input shape.
pub(crate) fn compile(
    specs: &[LayerSpec],
    in_chw: (usize, usize, usize),
    fp: FixedPoint,
) -> Result<Plan> {
    let (c, h, w) = in_chw;
    let mut steps = Vec::with_capacity(specs.len());
    let mut data = Vec::with_capacity(specs.len());
    let mut counts = OpCounts { base_ots: BASE_OTS_PER_SET, ..OpCounts::default() };
    let scale2 = fp.scale() * fp.scale();
    // Current public shape: Some((c,h,w)) for NCHW, or flat length.
    let mut cur_chw: Option<(usize, usize, usize)> = Some((c, h, w));
    let mut cur_flat = c * h * w;
    for spec in specs {
        match spec {
            LayerSpec::Conv2d { weight, bias, geom } => {
                let (cc, hh, ww) =
                    cur_chw.ok_or_else(|| PiError::BadConfig("conv after flatten".into()))?;
                let (oc, ic, k, _) = weight.shape().as_nchw()?;
                if ic != cc {
                    return Err(PiError::BadConfig(format!(
                        "conv expects {ic} channels, activation has {cc}"
                    )));
                }
                let (oh, ow) = geom.output_hw(hh, ww)?;
                let ckk = ic * k * k;
                let w_ring = RingMatrix::from_vec(fp.encode_tensor(weight), oc, ckk)?;
                let bias2f: Vec<u64> =
                    bias.as_slice().iter().map(|&b| (b * scale2).round() as i64 as u64).collect();
                counts.linear_in_elems.push(cc * hh * ww);
                counts.linear_out_elems.push(oc * oh * ow);
                counts.macs += (oc * ckk * oh * ow) as u64;
                steps.push(Step::Conv { c: cc, h: hh, w: ww, geom: *geom });
                data.push(StepData::Lin { w: w_ring, bias2f, cols: oh * ow });
                cur_chw = Some((oc, oh, ow));
                cur_flat = oc * oh * ow;
            }
            LayerSpec::Linear { weight, bias } => {
                let (k_in, out) = weight.shape().as_matrix()?;
                if k_in != cur_flat {
                    return Err(PiError::BadConfig(format!(
                        "linear expects {k_in} features, activation has {cur_flat}"
                    )));
                }
                // Ring weight as [out, in] (transposed for column input).
                let wt = weight.transpose()?;
                let w_ring = RingMatrix::from_vec(fp.encode_tensor(&wt), out, k_in)?;
                let bias2f: Vec<u64> =
                    bias.as_slice().iter().map(|&b| (b * scale2).round() as i64 as u64).collect();
                counts.linear_in_elems.push(k_in);
                counts.linear_out_elems.push(out);
                counts.macs += (k_in * out) as u64;
                steps.push(Step::Fc { k: k_in });
                data.push(StepData::Lin { w: w_ring, bias2f, cols: 1 });
                cur_chw = None;
                cur_flat = out;
            }
            LayerSpec::Relu => {
                counts.relu_elems += cur_flat;
                steps.push(Step::Relu { n: cur_flat });
                data.push(StepData::None);
            }
            LayerSpec::MaxPool2d { window, stride } => {
                let (cc, hh, ww) =
                    cur_chw.ok_or_else(|| PiError::BadConfig("pool after flatten".into()))?;
                if *window != 2 || *stride != 2 || hh % 2 != 0 || ww % 2 != 0 {
                    return Err(PiError::BadConfig(
                        "secure max pooling supports 2x2 stride-2 on even sizes".into(),
                    ));
                }
                counts.pool_windows += cc * (hh / 2) * (ww / 2);
                steps.push(Step::MaxPool { c: cc, h: hh, w: ww });
                data.push(StepData::None);
                cur_chw = Some((cc, hh / 2, ww / 2));
                cur_flat = cc * (hh / 2) * (ww / 2);
            }
            LayerSpec::AvgPool2d { window, stride } => {
                let (cc, hh, ww) =
                    cur_chw.ok_or_else(|| PiError::BadConfig("pool after flatten".into()))?;
                if hh < *window || ww < *window {
                    return Err(PiError::BadConfig("average pool window too large".into()));
                }
                let oh = (hh - window) / stride + 1;
                let ow = (ww - window) / stride + 1;
                steps.push(Step::AvgPool { c: cc, h: hh, w: ww, window: *window, stride: *stride });
                data.push(StepData::None);
                cur_chw = Some((cc, oh, ow));
                cur_flat = cc * oh * ow;
            }
            LayerSpec::Flatten => {
                steps.push(Step::Flatten);
                data.push(StepData::None);
                cur_chw = None;
            }
            LayerSpec::Affine { scale, shift } => {
                let (cc, hh, ww) =
                    cur_chw.ok_or_else(|| PiError::BadConfig("affine after flatten".into()))?;
                if scale.len() != cc || shift.len() != cc {
                    return Err(PiError::BadConfig("affine channel mismatch".into()));
                }
                let n = cc * hh * ww;
                // Broadcast per-channel scale/shift over the plane.
                let plane = hh * ww;
                let mut scale_ring = Vec::with_capacity(n);
                let mut shift2f = Vec::with_capacity(n);
                for ch in 0..cc {
                    let s_enc = fp.encode(scale[ch]);
                    let t_enc = (shift[ch] * scale2).round() as i64 as u64;
                    for _ in 0..plane {
                        scale_ring.push(s_enc);
                        shift2f.push(t_enc);
                    }
                }
                counts.linear_in_elems.push(n);
                counts.linear_out_elems.push(n);
                counts.macs += n as u64;
                steps.push(Step::Affine);
                data.push(StepData::Affine { scale: scale_ring, shift2f });
            }
            LayerSpec::Unsupported(d) => return Err(PiError::UnsupportedLayer(d.clone())),
        }
    }
    let out_dims: Vec<usize> = match cur_chw {
        Some((cc, hh, ww)) => vec![1, cc, hh, ww],
        None => vec![1, cur_flat],
    };
    Ok(Plan { steps, data, base_counts: counts, in_chw, out_dims })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use c2pi_nn::Sequential;

    fn specs() -> Vec<LayerSpec> {
        let mut s = Sequential::new();
        s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
        s.push(Relu::new());
        s.push(MaxPool2d::new(2, 2));
        s.push(Flatten::new());
        s.push(Linear::new(3 * 4 * 4, 5, 2));
        s.layers().iter().map(|l| l.spec()).collect()
    }

    #[test]
    fn compile_tracks_shapes_and_counts() {
        let plan = compile(&specs(), (1, 8, 8), FixedPoint::default()).unwrap();
        assert_eq!(plan.steps.len(), 5);
        assert_eq!(plan.out_dims, vec![1, 5]);
        assert_eq!(plan.base_counts.relu_elems, 3 * 8 * 8);
        assert_eq!(plan.base_counts.pool_windows, 3 * 4 * 4);
        assert_eq!(plan.base_counts.linear_in_elems.len(), 2);
        // Backend-dependent counts are not filled at compile time.
        assert_eq!(plan.base_counts.and_gates, 0);
        assert_eq!(plan.base_counts.bit_triples, 0);
        // The modelled base-OT setup is seeded here, not drawn by a deal.
        assert_eq!(plan.base_counts.base_ots, 128);
    }

    #[test]
    fn compile_rejects_channel_mismatch() {
        let err = compile(&specs(), (2, 8, 8), FixedPoint::default());
        assert!(matches!(err, Err(PiError::BadConfig(_))));
    }
}
