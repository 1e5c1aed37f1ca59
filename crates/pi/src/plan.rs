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
use c2pi_mpc::gcpre::MaskedOp;
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::FixedPoint;
use c2pi_nn::LayerSpec;
use c2pi_tensor::conv::Conv2dGeom;

/// Public per-layer execution plan (both parties know the crypto-prefix
/// architecture; only weights are server-private). A `MaxPool` with
/// `relu` also computes the ReLU that directly follows the pool, as one
/// non-linear unit per window.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Conv { c: usize, h: usize, w: usize, geom: Conv2dGeom },
    Fc { k: usize },
    Relu { n: usize },
    MaxPool { c: usize, h: usize, w: usize, relu: bool },
    AvgPool { c: usize, h: usize, w: usize, window: usize, stride: usize },
    Flatten,
}

/// The masked unit a max-pool step runs per window: the 4-way max, or,
/// fused with the ReLU after it, `max(v₀..v₃, 0)`.
pub(crate) fn pool_unit(relu: bool) -> MaskedOp {
    if relu {
        MaskedOp::MaxpoolRelu4
    } else {
        MaskedOp::Maxpool4
    }
}

/// Server-side constants of a step, encoded into the ring once per
/// session (weights never change between inferences).
#[derive(Debug, Clone)]
pub(crate) enum StepData {
    Lin { w: RingMatrix, bias2f: Vec<u64>, cols: usize },
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

/// Compiles layer specs against a `[c, h, w]` input shape: folds batch
/// norms into their convolutions ([`fold_batch_norm`]), puts max pools
/// before ReLU ([`pool_before_relu`]), then lowers the specs to steps,
/// each pool with the ReLU right after it as one step ([`lower`]).
pub(crate) fn compile(
    specs: &[LayerSpec],
    in_chw: (usize, usize, usize),
    fp: FixedPoint,
) -> Result<Plan> {
    let mut specs = specs.to_vec();
    fold_batch_norm(&mut specs);
    pool_before_relu(&mut specs);
    lower(&specs, in_chw, fp)
}

/// Folds every batch norm (`Affine { scale, shift }`) that directly
/// follows a convolution into it: `s ⊙ (W ∗ x + b) + t` is the
/// convolution with `W'[o] = s[o]·W[o]` and `b'[o] = s[o]·b[o] + t[o]`,
/// so the prefix runs the one masked-linear protocol with one
/// truncation (DESIGN.md §14). Any other batch norm is left in place
/// and refused by lowering as [`PiError::UnsupportedLayer`].
pub(crate) fn fold_batch_norm(specs: &mut Vec<LayerSpec>) {
    let mut folded: Vec<LayerSpec> = Vec::with_capacity(specs.len());
    for spec in specs.drain(..) {
        match (folded.last_mut(), spec) {
            (Some(LayerSpec::Conv2d { weight, bias, .. }), LayerSpec::Affine { scale, shift })
                if scale.len() == bias.len() && shift.len() == bias.len() =>
            {
                let per_out = weight.len() / scale.len();
                for (row, &s) in weight.as_mut_slice().chunks_exact_mut(per_out).zip(&scale) {
                    row.iter_mut().for_each(|v| *v *= s);
                }
                for ((b, &s), &t) in bias.as_mut_slice().iter_mut().zip(&scale).zip(&shift) {
                    *b = s * *b + t;
                }
            }
            (_, spec) => folded.push(spec),
        }
    }
    *specs = folded;
}

/// Moves every ReLU behind the max pools that directly follow it, so
/// `Relu, MaxPool2d` runs as `MaxPool2d, Relu`: `relu(max(a, b, c, d))
/// = max(relu(a), …, relu(d))`, and ReLU runs on one element per window
/// instead of four. The identity is exact in the ring: both sides make
/// the same signed comparisons of the same values, and neither ReLU nor
/// max truncates (DESIGN.md §13). Within each run of ReLUs and max pools
/// the pools go first, so a second pass moves nothing. `AvgPool2d` does
/// not commute with ReLU and ends a run, and so does the end of the
/// specs: they are the crypto prefix only, so the revealed activation
/// never changes.
pub(crate) fn pool_before_relu(specs: &mut [LayerSpec]) {
    let movable = |s: &LayerSpec| matches!(s, LayerSpec::Relu | LayerSpec::MaxPool2d { .. });
    for run in specs.chunk_by_mut(|a, b| movable(a) && movable(b)) {
        run.sort_by_key(|s| matches!(s, LayerSpec::Relu));
    }
}

/// Lowers layer specs to steps in the order given: shapes, ring-encoded
/// server constants and the backend-independent counts. A `MaxPool2d`
/// directly followed by a `Relu` lowers to one fused step, `MaxPool {
/// relu: true }`: `relu(max(v₀..v₃))` per window, counted as the window
/// and the ReLU element it stands for (DESIGN.md §13). Sessions are
/// compiled by [`compile`]; the tests hold the rewrite and the fusion
/// against the specs lowered one at a time.
pub(crate) fn lower(
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
    let mut specs = specs.iter().peekable();
    while let Some(spec) = specs.next() {
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
                let windows = cc * (hh / 2) * (ww / 2);
                let relu = specs.next_if(|s| matches!(s, LayerSpec::Relu)).is_some();
                counts.pool_windows += windows;
                if relu {
                    counts.relu_elems += windows;
                }
                steps.push(Step::MaxPool { c: cc, h: hh, w: ww, relu });
                data.push(StepData::None);
                cur_chw = Some((cc, hh / 2, ww / 2));
                cur_flat = windows;
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
            LayerSpec::Affine { .. } => {
                return Err(PiError::UnsupportedLayer(
                    "a batch norm not foldable into a directly preceding convolution".into(),
                ))
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

/// The plan run on unshared ring values: the protocols' arithmetic with
/// the sharing taken out. The same encoding, weights and `bias2f` as the
/// walks, signed ReLU and max (a fused pool: the max, then its ReLU), and
/// every truncation the shift
/// `beaver::truncate_share` applies to each share, applied here to the
/// whole value — so a protocol run differs from this only by the ±1 LSB
/// each local share truncation may add (SecureML).
#[cfg(test)]
pub(crate) fn eval_ring(plan: &Plan, x: &[u64], fp: FixedPoint) -> Vec<u64> {
    use c2pi_mpc::ring::im2col_ring;
    let signed_max = |a: u64, b: u64| if (b as i64) > (a as i64) { b } else { a };
    let mut cur = x.to_vec();
    for (step, data) in plan.steps.iter().zip(&plan.data) {
        cur = match (step, data) {
            (Step::Conv { .. } | Step::Fc { .. }, StepData::Lin { w, bias2f, .. }) => {
                let input = match step {
                    Step::Conv { c, h, w, geom } => im2col_ring(&cur, *c, *h, *w, *geom).unwrap(),
                    _ => RingMatrix::from_vec(cur, w.cols(), 1).unwrap(),
                };
                let y = w.matmul(&input).unwrap();
                let cols = y.cols();
                y.as_slice()
                    .chunks_exact(cols)
                    .zip(bias2f)
                    .flat_map(|(row, &b)| row.iter().map(move |&v| fp.truncate(v.wrapping_add(b))))
                    .collect()
            }
            (Step::Relu { n }, StepData::None) => {
                assert_eq!(*n, cur.len(), "ReLU width");
                cur.iter().map(|&v| signed_max(0, v)).collect()
            }
            (Step::MaxPool { c, h, w, relu }, StepData::None) => {
                let mut out = Vec::with_capacity(c * (h / 2) * (w / 2));
                for plane in cur.chunks_exact(h * w) {
                    for oy in 0..h / 2 {
                        for ox in 0..w / 2 {
                            let at = 2 * oy * w + 2 * ox;
                            let quad = [plane[at], plane[at + 1], plane[at + w], plane[at + w + 1]];
                            let max = quad[1..].iter().fold(quad[0], |m, &v| signed_max(m, v));
                            out.push(if *relu { signed_max(0, max) } else { max });
                        }
                    }
                }
                out
            }
            (Step::AvgPool { h, w, window, stride, .. }, StepData::None) => {
                let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
                let coeff = fp.encode(1.0 / (window * window) as f32);
                let mut out = Vec::new();
                for plane in cur.chunks_exact(h * w) {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0u64;
                            for ky in 0..*window {
                                for kx in 0..*window {
                                    let v = plane[(oy * stride + ky) * w + ox * stride + kx];
                                    acc = acc.wrapping_add(v);
                                }
                            }
                            out.push(fp.truncate(acc.wrapping_mul(coeff)));
                        }
                    }
                }
                out
            }
            (Step::Flatten, StepData::None) => cur,
            (step, _) => unreachable!("{step:?} without its data"),
        };
    }
    cur
}

#[cfg(test)]
mod differential;

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

    /// The plan's steps, one short name each (`relu 48`, `maxpool`,
    /// `maxpool+relu`, …).
    fn names(plan: &Plan) -> Vec<String> {
        plan.steps
            .iter()
            .map(|s| match s {
                Step::Relu { n } => format!("relu {n}"),
                Step::MaxPool { relu: true, .. } => "maxpool+relu".into(),
                other => format!("{other:?}").split([' ', '{']).next().unwrap().to_lowercase(),
            })
            .collect()
    }

    #[test]
    fn compile_tracks_shapes_and_counts() {
        let fp = FixedPoint::default();
        let plan = compile(&specs(), (1, 8, 8), fp).unwrap();
        assert_eq!(plan.steps.len(), 4);
        assert_eq!(plan.out_dims, vec![1, 5]);
        // Pooled before the ReLU, which then runs on one element per
        // window (3·4·4, not the 3·8·8 of the spec order) inside the
        // pool's own step.
        assert_eq!(names(&plan), ["conv", "maxpool+relu", "flatten", "fc"]);
        assert!(matches!(plan.steps[1], Step::MaxPool { c: 3, h: 8, w: 8, relu: true }));
        // The fused step counts the window and the ReLU element it
        // stands for, as the two steps did.
        assert_eq!(plan.base_counts.relu_elems, 3 * 4 * 4);
        assert_eq!(plan.base_counts.pool_windows, 3 * 4 * 4);
        // Of two pools in a row only the one the ReLU directly follows
        // fuses with it; the counts are the three layers'.
        let pool = || LayerSpec::MaxPool2d { window: 2, stride: 2 };
        let twice = lower(&[pool(), pool(), LayerSpec::Relu], (2, 8, 8), fp).unwrap();
        assert_eq!(names(&twice), ["maxpool", "maxpool+relu"]);
        assert_eq!(twice.base_counts.pool_windows, 2 * 4 * 4 + 2 * 2 * 2);
        assert_eq!(twice.base_counts.relu_elems, 2 * 2 * 2);
        // A ReLU that does not directly follow the pool stays its own step.
        let avg = LayerSpec::AvgPool2d { window: 2, stride: 2 };
        let apart = lower(&[pool(), avg, LayerSpec::Relu], (2, 8, 8), fp).unwrap();
        assert_eq!(names(&apart), ["maxpool", "avgpool", "relu 8"]);
        assert_eq!(plan.base_counts.linear_in_elems.len(), 2);
        // Backend-dependent counts are not filled at compile time.
        assert_eq!(plan.base_counts.and_gates, 0);
        assert_eq!(plan.base_counts.bit_triples, 0);
        // The modelled base-OT setup is seeded here, not drawn by a deal.
        assert_eq!(plan.base_counts.base_ots, 128);
    }

    #[test]
    fn pool_before_relu_moves_relu_past_max_pools_only_inside_the_prefix() {
        let fp = FixedPoint::default();
        let compiled = |specs: &[LayerSpec], chw| names(&compile(specs, chw, fp).unwrap());
        let pool = || LayerSpec::MaxPool2d { window: 2, stride: 2 };
        // A ReLU crosses a whole run of max pools.
        let mut twice = Sequential::new();
        twice.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        twice.push(Relu::new());
        twice.push(MaxPool2d::new(2, 2));
        twice.push(MaxPool2d::new(2, 2));
        let specs: Vec<LayerSpec> = twice.layers().iter().map(|l| l.spec()).collect();
        assert_eq!(compiled(&specs, (1, 8, 8)), ["conv", "maxpool", "maxpool+relu"]);
        // Within a run of ReLUs and max pools every pool goes first, so
        // the order the pass hands out (`specs_of`'s) compiles unchanged.
        let mut run = [LayerSpec::Relu, pool(), LayerSpec::Relu, pool()];
        let want = ["maxpool", "maxpool+relu", "relu 4"];
        assert_eq!(compiled(&run, (1, 8, 8)), want);
        pool_before_relu(&mut run);
        assert_eq!(names(&lower(&run, (1, 8, 8), fp).unwrap()), want);
        // An average pool does not commute with ReLU: spec order stays.
        let avg = [LayerSpec::Relu, LayerSpec::AvgPool2d { window: 2, stride: 2 }];
        assert_eq!(compiled(&avg, (2, 4, 4)), ["relu 32", "avgpool"]);
        // A split after relu(1) puts the first max pool in the clear
        // suffix; the plan sees only the prefix, so its ReLU runs on
        // every element and the revealed activation is the clear one.
        let demo = c2pi_nn::model::alexnet(&c2pi_nn::model::ZooConfig {
            width_div: 32,
            seed: 3,
            image_size: 16,
            ..Default::default()
        })
        .unwrap();
        let (prefix, _) = demo.split_at(c2pi_nn::BoundaryId::relu(1)).unwrap();
        let specs: Vec<LayerSpec> = prefix.layers().iter().map(|l| l.spec()).collect();
        assert_eq!(compiled(&specs, (3, 16, 16)), ["conv", "relu 1024"]);
    }

    #[test]
    fn compile_rejects_channel_mismatch() {
        let err = compile(&specs(), (2, 8, 8), FixedPoint::default());
        assert!(matches!(err, Err(PiError::BadConfig(_))));
    }
}
