//! Compilation of a model's crypto prefix into an execution plan.
//!
//! Compilation is the per-deployment work a [`crate::session::PiSession`]
//! does **once**: shape inference, server-side weight encoding into the
//! ring, and the backend-independent operation counts. Per-inference
//! correlated randomness is *not* generated here — that is the offline
//! phase (`PiSession::preprocess`), which runs the dealer against this
//! plan.
//!
//! Compilation also sizes every non-linear step. One sound interval pass
//! ([`bounds`]) carries the public input domain (every element in
//! `[−INPUT_BOUND, INPUT_BOUND]`) through the prefix, and each unit step
//! gets the fewest bits its inputs can occupy, rounded up to whole bytes
//! ([`unit_bits`]). The backends garble and compare only those low bits;
//! reducing mod `2^w` is a ring map, so they compute on the value itself
//! (DESIGN.md §9 and §12).

use crate::report::OpCounts;
use crate::{PiError, Result};
use c2pi_mpc::gcpre::MaskedOp;
use c2pi_mpc::ring::{im2col_ring, RingMatrix};
use c2pi_mpc::FixedPoint;
use c2pi_nn::LayerSpec;
use c2pi_tensor::conv::Conv2dGeom;

/// The public input domain of every session: each input element lies in
/// `[−INPUT_BOUND, INPUT_BOUND]`. It covers every dataset and workload
/// here (`[0, 1]`) and every test (`[−1, 1]`). The client refuses an
/// input outside it before anything is sent, since the widths compiled
/// from it would not hold (`PiError::InputOutOfRange`).
pub(crate) const INPUT_BOUND: f32 = 1.0;

/// Public per-layer execution plan (both parties know the crypto-prefix
/// architecture; only the weights a linear step carries are
/// server-private). Every non-linear layer is one masked `Unit` of
/// `items` items of `op` at width `bits`: a ReLU per element, a 2×2 max
/// pool per window, or a pool and the ReLU directly after it as one unit
/// per window. Its inputs occupy `bound` bits over the input domain
/// (each lies in `[−2^bound, 2^bound)`), the server's headroom figure;
/// only `bits` is public and reaches the wire. A pool's `window` is its
/// 2×2 gather, the four input indices of each window, window-major; a
/// ReLU's is `None`, one input element per item.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Conv { c: usize, h: usize, w: usize, geom: Conv2dGeom, lin: Weights },
    Fc { lin: Weights },
    Unit { op: MaskedOp, items: usize, bound: u32, bits: usize, window: Option<Vec<[usize; 4]>> },
    AvgPool { c: usize, h: usize, w: usize, window: usize, stride: usize },
    Flatten,
}

/// A linear step's server constants, encoded into the ring once per
/// session (weights never change between inferences): `w` is `[out,
/// in]`, `bias2f` one bias per output row at scale `2^{2f}`, and `cols`
/// the columns of the unfolded input (output pixels of a convolution, 1
/// for a fully connected layer).
#[derive(Debug, Clone)]
pub(crate) struct Weights {
    pub w: RingMatrix,
    pub bias2f: Vec<u64>,
    pub cols: usize,
}

impl Step {
    /// A linear step's input as the matrix its weights multiply: im2col
    /// columns for a convolution, one column for a fully connected layer.
    pub(crate) fn linear_input(&self, x: &[u64]) -> Result<RingMatrix> {
        match self {
            Step::Conv { c, h, w, geom, .. } => Ok(im2col_ring(x, *c, *h, *w, *geom)?),
            Step::Fc { lin } => Ok(RingMatrix::from_vec(x.to_vec(), lin.w.cols(), 1)?),
            _ => Err(PiError::BadConfig("not a linear step".into())),
        }
    }
}

/// A unit step's inputs, item-major: `x` itself, or its 2×2 windows
/// gathered through `window` (a public permutation both parties apply).
pub(crate) fn gather<T: Copy>(window: &Option<Vec<[usize; 4]>>, x: Vec<T>) -> Vec<T> {
    match window {
        Some(idx) => idx.iter().flat_map(|quad| quad.map(|i| x[i])).collect(),
        None => x,
    }
}

/// The 2×2 stride-2 windows of a `[c, h, w]` activation, window-major.
fn pool_windows(c: usize, h: usize, w: usize) -> Vec<[usize; 4]> {
    let mut idx = Vec::with_capacity(c * (h / 2) * (w / 2));
    for plane in (0..c).map(|ch| ch * h * w) {
        for oy in 0..h / 2 {
            for ox in 0..w / 2 {
                let at = plane + 2 * oy * w + 2 * ox;
                idx.push([at, at + 1, at + w, at + w + 1]);
            }
        }
    }
    idx
}

/// A compiled crypto prefix: steps with their server constants, the
/// backend-independent cost counts, and the public output shape.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    pub steps: Vec<Step>,
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
/// before ReLU ([`pool_before_relu`]), lowers the specs to steps, each
/// pool with the ReLU right after it as one step ([`lower`]), and sizes
/// every unit step for the input domain ([`size_units`]).
pub(crate) fn compile(
    specs: &[LayerSpec],
    in_chw: (usize, usize, usize),
    fp: FixedPoint,
) -> Result<Plan> {
    let mut specs = specs.to_vec();
    fold_batch_norm(&mut specs);
    pool_before_relu(&mut specs);
    let mut plan = lower(&specs, in_chw, fp)?;
    size_units(&mut plan, fp);
    Ok(plan)
}

/// A signed interval `[lo, hi]` of ring values.
pub(crate) type Interval = (i128, i128);

/// The smallest `B` with `−2^B ≤ lo` and `hi < 2^B`: the interval fits
/// `B + 1` two's-complement bits.
pub(crate) fn magnitude_bits((lo, hi): Interval) -> u32 {
    let up = if hi > 0 { 128 - hi.leading_zeros() } else { 0 };
    let down = if lo < 0 { 128 - (-(lo + 1)).leading_zeros() } else { 0 };
    up.max(down)
}

/// The width a unit of `op` runs at when its inputs occupy `bound` bits:
/// a ReLU reads its input's sign, so it needs `bound + 1` bits; a max
/// compares `a − b`, one bit wider than its inputs, so it (and a fused
/// max-then-ReLU) needs `bound + 2`. Rounded up to a multiple of 8 —
/// byte-aligned `δ`, at most eight cached circuits per op, and a public
/// width that says less about the weights than an exact one — and capped
/// at the 64-bit ring, so a plan whose bound nears the ring runs every
/// bit, as it did before widths existed.
pub(crate) fn unit_bits(op: MaskedOp, bound: u32) -> usize {
    let need = bound as usize + if op == MaskedOp::Relu { 1 } else { 2 };
    need.next_multiple_of(8).min(64)
}

/// Sizes every unit step of `plan` for inputs in the public domain: one
/// [`bounds`] pass over the box `[−INPUT_BOUND, INPUT_BOUND]` (encoded),
/// then [`unit_bits`] of each unit's input bound.
fn size_units(plan: &mut Plan, fp: FixedPoint) {
    let one = fp.encode(INPUT_BOUND) as i64 as i128;
    let (c, h, w) = plan.in_chw;
    let (input_bits, _) = bounds(plan, &vec![(-one, one); c * h * w], fp);
    for (step, &b) in plan.steps.iter_mut().zip(&input_bits) {
        if let Step::Unit { op, bound, bits, .. } = step {
            (*bound, *bits) = (b, unit_bits(*op, b));
        }
    }
}

/// Runs the unit steps of `plan` at `widths`, in plan order: the widths
/// a deployment publishes, handed to a client that compiled the
/// architecture without the weights (its own bounds, from zeroed
/// weights, say nothing about the server's). Each width must be a whole
/// number of bytes in `8..=64`, and no narrower than this plan's own
/// bound needs ([`unit_bits`]).
///
/// # Errors
///
/// [`PiError::BadConfig`] for a count that is not the plan's number of
/// unit steps, or a width outside those rules.
pub(crate) fn set_unit_widths(plan: &mut Plan, widths: &[usize]) -> Result<()> {
    let units = plan.steps.iter().filter(|s| matches!(s, Step::Unit { .. })).count();
    if widths.len() != units {
        return Err(PiError::BadConfig(format!(
            "{} unit widths for a plan of {units} non-linear steps",
            widths.len()
        )));
    }
    let units = plan.steps.iter_mut().filter_map(|s| match s {
        Step::Unit { op, bound, bits, .. } => Some((*op, *bound, bits)),
        _ => None,
    });
    for (i, ((op, bound, bits), &w)) in units.zip(widths).enumerate() {
        let need = unit_bits(op, bound);
        if w % 8 != 0 || !(need..=64).contains(&w) {
            return Err(PiError::BadConfig(format!(
                "unit {i}: width {w} is not a whole number of bytes in {need}..=64"
            )));
        }
        *bits = w;
    }
    Ok(())
}

/// The sound interval pass: runs `plan` on intervals, one per input
/// element (a box; a point is the box of zero width), and returns the
/// bits each step's input occupies ([`magnitude_bits`]) and every
/// output's interval. Any protocol run on an input inside the box
/// reconstructs values inside these intervals: every local share
/// truncation returns the floor of the shared value plus 0 or 1
/// (`beaver::truncate_share`), so a truncation maps `[lo, hi]` to
/// `[⌊lo / 2^f⌋, ⌊hi / 2^f⌋ + 1]`; linear layers take each weight's sign
/// into account, and ReLU and max are monotone, so they map the bounds
/// through. (Beside the interval, each local truncation fails outright
/// with odds about `2^(ℓ+1−64)` for a value of `ℓ` bits — SecureML's
/// analysis, not bounded here.)
///
/// Intervals are clamped to the signed 64-bit ring after each step: past
/// it no value is exact and every width is 64 anyway.
pub(crate) fn bounds(plan: &Plan, input: &[Interval], fp: FixedPoint) -> (Vec<u32>, Vec<Interval>) {
    let f = fp.frac_bits();
    let trunc = |(lo, hi): Interval| (lo >> f, (hi >> f) + 1);
    let ring = |v: i128| v.clamp(i64::MIN.into(), i64::MAX.into());
    let mut input_bits = Vec::with_capacity(plan.steps.len());
    let mut cur = input.to_vec();
    for step in &plan.steps {
        input_bits.push(cur.iter().map(|&b| magnitude_bits(b)).max().unwrap_or(0));
        cur = match step {
            Step::Conv { lin, .. } | Step::Fc { lin } => {
                // Unfolds the bounds as the layer unfolds its input
                // (padding is an exact zero); each row then takes `lo`
                // where its weight is positive and `hi` where it is
                // negative for the low end, and the other way round.
                let unfold = |end: Vec<u64>| step.linear_input(&end).expect("a linear step");
                let lo = unfold(cur.iter().map(|b| b.0 as i64 as u64).collect());
                let hi = unfold(cur.iter().map(|b| b.1 as i64 as u64).collect());
                let (k, cols) = (lin.w.cols(), lo.cols());
                let mut out = Vec::with_capacity(lin.w.rows() * cols);
                for (row, &b) in lin.w.as_slice().chunks_exact(k).zip(&lin.bias2f) {
                    let b = b as i64 as i128;
                    let mut acc = vec![(b, b); cols];
                    for (kk, &w) in row.iter().enumerate() {
                        let w = w as i64 as i128;
                        let lo = &lo.as_slice()[kk * cols..(kk + 1) * cols];
                        let hi = &hi.as_slice()[kk * cols..(kk + 1) * cols];
                        for ((a, &l), &h) in acc.iter_mut().zip(lo).zip(hi) {
                            let (l, h) = (w * l as i64 as i128, w * h as i64 as i128);
                            *a = (a.0.saturating_add(l.min(h)), a.1.saturating_add(l.max(h)));
                        }
                    }
                    out.extend(acc.into_iter().map(trunc));
                }
                out
            }
            Step::Unit { op, window, .. } => {
                let floor = if *op == MaskedOp::Maxpool4 { i128::MIN } else { 0 };
                gather(window, cur)
                    .chunks_exact(op.in_elems())
                    .map(|item| {
                        item.iter().fold((floor, floor), |m, v| (m.0.max(v.0), m.1.max(v.1)))
                    })
                    .collect()
            }
            Step::AvgPool { h, w, window, stride, .. } => {
                let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
                let coeff = fp.encode(1.0 / (window * window) as f32) as i64 as i128;
                let mut out = Vec::new();
                for plane in cur.chunks_exact(h * w) {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (mut lo, mut hi) = (0, 0);
                            for ky in 0..*window {
                                for kx in 0..*window {
                                    let v = plane[(oy * stride + ky) * w + ox * stride + kx];
                                    (lo, hi) = (lo + v.0, hi + v.1);
                                }
                            }
                            out.push(trunc((lo * coeff, hi * coeff)));
                        }
                    }
                }
                out
            }
            Step::Flatten => cur,
        };
        cur.iter_mut().for_each(|b| *b = (ring(b.0), ring(b.1)));
    }
    (input_bits, cur)
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
/// server constants and the backend-independent counts. Every unit runs
/// the whole 64-bit ring until [`compile`] sizes it. A `MaxPool2d`
/// directly followed by a `Relu` lowers to one fused unit,
/// [`MaskedOp::MaxpoolRelu4`]: `relu(max(v₀..v₃))` per window, counted
/// as the window and the ReLU element it stands for (DESIGN.md §13).
/// Sessions are compiled by [`compile`]; the tests hold the rewrite and
/// the fusion against the specs lowered one at a time.
pub(crate) fn lower(
    specs: &[LayerSpec],
    in_chw: (usize, usize, usize),
    fp: FixedPoint,
) -> Result<Plan> {
    let (c, h, w) = in_chw;
    let mut steps = Vec::with_capacity(specs.len());
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
                let lin = Weights { w: w_ring, bias2f, cols: oh * ow };
                steps.push(Step::Conv { c: cc, h: hh, w: ww, geom: *geom, lin });
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
                steps.push(Step::Fc { lin: Weights { w: w_ring, bias2f, cols: 1 } });
                cur_chw = None;
                cur_flat = out;
            }
            LayerSpec::Relu => {
                counts.relu_elems += cur_flat;
                let (op, items) = (MaskedOp::Relu, cur_flat);
                steps.push(Step::Unit { op, items, bound: 63, bits: 64, window: None });
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
                let op = if specs.next_if(|s| matches!(s, LayerSpec::Relu)).is_some() {
                    counts.relu_elems += windows;
                    MaskedOp::MaxpoolRelu4
                } else {
                    MaskedOp::Maxpool4
                };
                counts.pool_windows += windows;
                let window = Some(pool_windows(cc, hh, ww));
                steps.push(Step::Unit { op, items: windows, bound: 63, bits: 64, window });
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
                cur_chw = Some((cc, oh, ow));
                cur_flat = cc * oh * ow;
            }
            LayerSpec::Flatten => {
                steps.push(Step::Flatten);
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
    Ok(Plan { steps, base_counts: counts, in_chw, out_dims })
}

/// The plan run on unshared ring values: the protocols' arithmetic with
/// the sharing taken out. The same encoding, weights and `bias2f` as the
/// walks, signed ReLU and max (a fused unit: the max, then its ReLU),
/// and every truncation the shift `beaver::truncate_share` applies to
/// each share, applied here to the whole value — so a protocol run
/// differs from this only by the ±1 LSB each local share truncation may
/// add (SecureML).
#[cfg(test)]
pub(crate) fn eval_ring(plan: &Plan, x: &[u64], fp: FixedPoint) -> Vec<u64> {
    let signed_max = |a: u64, b: u64| if (b as i64) > (a as i64) { b } else { a };
    let mut cur = x.to_vec();
    for step in &plan.steps {
        cur = match step {
            Step::Conv { lin, .. } | Step::Fc { lin } => {
                let y = lin.w.matmul(&step.linear_input(&cur).unwrap()).unwrap();
                y.as_slice()
                    .chunks_exact(lin.cols)
                    .zip(&lin.bias2f)
                    .flat_map(|(row, &b)| row.iter().map(move |&v| fp.truncate(v.wrapping_add(b))))
                    .collect()
            }
            Step::Unit { op, items, window, .. } => {
                let relu = *op != MaskedOp::Maxpool4;
                let out: Vec<u64> = gather(window, cur)
                    .chunks_exact(op.in_elems())
                    .map(|item| {
                        let max = item[1..].iter().fold(item[0], |m, &v| signed_max(m, v));
                        if relu {
                            signed_max(0, max)
                        } else {
                            max
                        }
                    })
                    .collect();
                assert_eq!(out.len(), *items, "{op:?} items");
                out
            }
            Step::AvgPool { h, w, window, stride, .. } => {
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
            Step::Flatten => cur,
        };
    }
    cur
}

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
                Step::Unit { op: MaskedOp::Relu, items, .. } => format!("relu {items}"),
                Step::Unit { op: MaskedOp::Maxpool4, .. } => "maxpool".into(),
                Step::Unit { op: MaskedOp::MaxpoolRelu4, .. } => "maxpool+relu".into(),
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
        let Step::Unit { items: 48, window: Some(window), .. } = &plan.steps[1] else {
            panic!("{:?}", plan.steps[1]);
        };
        // The pool's gather reads each 2×2 window of every 8×8 plane.
        assert_eq!(window.len(), 48);
        assert_eq!(
            [window[0], window[5], window[47]],
            [[0, 1, 8, 9], [18, 19, 26, 27], [182, 183, 190, 191]]
        );
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
    fn the_demo_plans_pin_their_unit_bounds_and_widths() {
        // The benchmark's demo AlexNet over the input domain: at the
        // relu(3) split its two fused pools and its ReLU read values of
        // 15, 17 and 20 bits (exact widths 17, 19 and 21), all rounded
        // up to 24; the whole prefix needs 32 bits from its fifth unit
        // on. A weight change that eats headroom moves these.
        use c2pi_nn::model::{alexnet, ZooConfig};
        use c2pi_nn::BoundaryId;
        let demo =
            alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
                .unwrap();
        let widths = |seq: &Sequential| {
            let specs: Vec<LayerSpec> = seq.layers().iter().map(|l| l.spec()).collect();
            let plan = compile(&specs, (3, 16, 16), FixedPoint::default()).unwrap();
            let units = plan.steps.into_iter().filter_map(|s| match s {
                Step::Unit { bound, bits, .. } => Some((bound, bits)),
                _ => None,
            });
            units.collect::<Vec<_>>()
        };
        let split = demo.split_at(BoundaryId::relu(3)).unwrap().0;
        assert_eq!(widths(&split), [(15, 24), (17, 24), (20, 24)]);
        let whole = widths(demo.seq());
        let bounds = [15, 17, 20, 22, 24, 25, 26, 28];
        let bits = [24, 24, 24, 24, 32, 32, 32, 32];
        assert_eq!(whole, bounds.into_iter().zip(bits).collect::<Vec<_>>());
        // The rule itself: a ReLU needs one bit over its bound, a max
        // two; whole bytes, at most the ring.
        assert_eq!(
            [
                (MaskedOp::Relu, 0),
                (MaskedOp::Relu, 7),
                (MaskedOp::Relu, 8),
                (MaskedOp::Maxpool4, 6)
            ]
            .map(|(op, b)| unit_bits(op, b)),
            [8, 8, 16, 8]
        );
        assert_eq!([22, 23].map(|b| unit_bits(MaskedOp::MaxpoolRelu4, b)), [24, 32]);
        assert_eq!([62, 63, 100].map(|b| unit_bits(MaskedOp::Relu, b)), [64, 64, 64]);
        assert_eq!(
            [(0, 0), (-1, 0), (0, 1), (-2, 1), (-3, 2), (-4, 4), (0, 4)].map(magnitude_bits),
            [0, 0, 1, 1, 2, 3, 3]
        );
    }

    #[test]
    fn compile_rejects_channel_mismatch() {
        let err = compile(&specs(), (2, 8, 8), FixedPoint::default());
        assert!(matches!(err, Err(PiError::BadConfig(_))));
    }
}
