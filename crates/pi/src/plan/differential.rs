//! A differential net over whole plans. Random small prefixes, and the
//! demo deployment's at each of its ReLU splits and whole, are
//! compiled, run under [`eval_ring`] and run through both backends. Two
//! properties:
//!
//! * **the pool-before-ReLU rewrite and the pool–ReLU fusion are
//!   exact**: the compiled plan and the specs in their own order, batch
//!   norms folded and each layer lowered on its own (so no step spans
//!   two layers), agree bit for bit under `eval_ring`, and the plan
//!   counts the ReLU elements and pool windows of the rewritten specs;
//! * **the backends compute `eval_ring`**: every reconstructed output
//!   lies in the interval [`reachable`] gives it — `eval_ring` with each
//!   truncation free to add 0 or 1 LSB. Its width is 1 LSB after one
//!   conv, at most 42 LSB at the benchmark's relu(3) split (5 LSB
//!   measured), and 0 where a ReLU's whole input interval is negative.
//!   The whole demo model's logits sum every earlier truncation through
//!   their weights: the interval there is ~17 000 LSB wide (7 measured),
//!   looser than the 0.02 check against the clear model (82 LSB), which
//!   is the one that binds on that row.
//!
//! The inputs are seeded, so every run draws the same cases.

use super::{compile, eval_ring, fold_batch_norm, lower, pool_before_relu, Plan, Step, StepData};
use crate::engine::{PiBackend, PiConfig};
use crate::session::PiSession;
use c2pi_mpc::prg::Prg;
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::FixedPoint;
use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_nn::{BoundaryId, LayerSpec};
use c2pi_tensor::conv::Conv2dGeom;
use c2pi_tensor::Tensor;
use proptest::prelude::*;

/// Draws from a seeded stream.
struct Draw(Prg);

impl Draw {
    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn uniform(&mut self, dims: &[usize], bound: f32) -> Tensor {
        Tensor::rand_uniform(dims, -bound, bound, self.0.next_u64())
    }
}

/// A random prefix of two to seven layers over a `[c, h, w]` input of at
/// most 4 × 8 × 8: conv, fc, ReLU, max and average pools and flatten in
/// any order the shapes allow, and batch norms (`Affine`) right after a
/// convolution, where the plan folds them. A ReLU on a spatial
/// activation is followed by a pool half the time, so both the rewrite
/// (`Relu, MaxPool`) and its exclusion (`Relu, AvgPool`) are drawn often;
/// a pool by a ReLU or another pool half the time, so the fusion
/// (`MaxPool, Relu`) and the runs it must not reach across (`MaxPool,
/// MaxPool, Relu`, `MaxPool, AvgPool, Relu`) are drawn often too.
fn random_prefix(seed: u64) -> (Vec<LayerSpec>, [usize; 3]) {
    let mut d = Draw(Prg::from_u64(seed));
    let chw = [1 + d.below(4), 2 + 2 * d.below(4), 2 + 2 * d.below(4)];
    let [mut c, mut h, mut w] = chw;
    let mut flat = None;
    let mut specs: Vec<LayerSpec> = Vec::new();
    for _ in 0..2 + d.below(6) {
        let after_relu = matches!(specs.last(), Some(LayerSpec::Relu));
        let after_pool =
            matches!(specs.last(), Some(LayerSpec::MaxPool2d { .. } | LayerSpec::AvgPool2d { .. }));
        let after_conv = matches!(specs.last(), Some(LayerSpec::Conv2d { .. }));
        let spec = if let Some(k) = flat {
            if after_relu || d.below(2) == 0 {
                let out = 1 + d.below(12);
                flat = Some(out);
                LayerSpec::Linear {
                    weight: d.uniform(&[k, out], 1.0 / (k as f32).sqrt()),
                    bias: d.uniform(&[out], 0.1),
                }
            } else {
                LayerSpec::Relu
            }
        } else {
            let pick = if after_relu && h >= 2 && w >= 2 && d.below(2) == 0 {
                2 + d.below(2)
            } else if after_pool && d.below(2) == 0 {
                1 + d.below(3)
            } else {
                d.below(6)
            };
            match pick {
                2 if h % 2 == 0 && w % 2 == 0 => {
                    (h, w) = (h / 2, w / 2);
                    LayerSpec::MaxPool2d { window: 2, stride: 2 }
                }
                3 if h >= 2 && w >= 2 => {
                    let stride = 1 + d.below(2);
                    (h, w) = ((h - 2) / stride + 1, (w - 2) / stride + 1);
                    LayerSpec::AvgPool2d { window: 2, stride }
                }
                1 => LayerSpec::Relu,
                4 if after_conv => LayerSpec::Affine {
                    scale: d.uniform(&[c], 1.5).as_slice().to_vec(),
                    shift: d.uniform(&[c], 0.2).as_slice().to_vec(),
                },
                5 => {
                    flat = Some(c * h * w);
                    LayerSpec::Flatten
                }
                _ => {
                    let kernel = [1, 3][d.below(2)];
                    let geom = Conv2dGeom {
                        kernel,
                        stride: 1 + d.below(2),
                        padding: kernel / 2,
                        dilation: 1,
                    };
                    let oc = 1 + d.below(4);
                    let weight = d.uniform(
                        &[oc, c, kernel, kernel],
                        1.0 / ((c * kernel * kernel) as f32).sqrt(),
                    );
                    (h, w) = geom.output_hw(h, w).unwrap();
                    c = oc;
                    LayerSpec::Conv2d { weight, bias: d.uniform(&[oc], 0.1), geom }
                }
            }
        };
        specs.push(spec);
    }
    (specs, chw)
}

/// The interval each output of a protocol run of `plan` on `x` must lie
/// in, as signed `(lo, hi)`. It is [`eval_ring`] on intervals: every
/// local share truncation returns the floor of the shared value plus 0
/// or 1 (`beaver::truncate_share`), so a truncation maps `[lo, hi]` to
/// `[⌊lo / 2^f⌋, ⌊hi / 2^f⌋ + 1]`. Linear layers take each weight's
/// sign into account, and ReLU and max are monotone, so they map the
/// bounds through. Zero-width where no truncation reaches an output.
fn reachable(plan: &Plan, x: &[u64], fp: FixedPoint) -> Vec<(i128, i128)> {
    let f = fp.frac_bits();
    let trunc = |(lo, hi): (i128, i128)| (lo >> f, (hi >> f) + 1);
    // `w · [lo, hi]`: the low end takes `lo` where the weight is
    // positive and `hi` where it is negative.
    let dot = |w: &[u64], xs: &mut dyn Iterator<Item = (i128, i128)>| {
        w.iter().zip(xs).fold((0, 0), |(lo, hi), (&w, (l, h))| {
            let w = w as i64 as i128;
            (lo + (w * l).min(w * h), hi + (w * l).max(w * h))
        })
    };
    let mut cur: Vec<(i128, i128)> =
        x.iter().map(|&v| (v as i64 as i128, v as i64 as i128)).collect();
    for (step, data) in plan.steps.iter().zip(&plan.data) {
        cur = match (step, data) {
            (Step::Conv { .. } | Step::Fc { .. }, StepData::Lin { w, bias2f, .. }) => {
                // Unfolds the bounds as the layer unfolds its input
                // (padding is an exact zero).
                let unfold = |end: Vec<u64>| match step {
                    Step::Conv { c, h, w, geom } => {
                        c2pi_mpc::ring::im2col_ring(&end, *c, *h, *w, *geom).unwrap()
                    }
                    _ => RingMatrix::from_vec(end, w.cols(), 1).unwrap(),
                };
                let lo = unfold(cur.iter().map(|b| b.0 as i64 as u64).collect());
                let hi = unfold(cur.iter().map(|b| b.1 as i64 as u64).collect());
                let cols = lo.cols();
                let at = |m: &RingMatrix, k: usize, j: usize| m.as_slice()[k * cols + j] as i64;
                let mut out = Vec::with_capacity(w.rows() * cols);
                for (row, &b) in w.as_slice().chunks_exact(w.cols()).zip(bias2f) {
                    for j in 0..cols {
                        let mut column =
                            (0..w.cols()).map(|k| (at(&lo, k, j) as i128, at(&hi, k, j) as i128));
                        let (l, h) = dot(row, &mut column);
                        let b = b as i64 as i128;
                        out.push(trunc((l + b, h + b)));
                    }
                }
                out
            }
            (Step::Relu { .. }, StepData::None) => {
                cur.iter().map(|&(lo, hi)| (lo.max(0), hi.max(0))).collect()
            }
            (Step::MaxPool { c, h, w, relu }, StepData::None) => {
                let floor = if *relu { 0 } else { i128::MIN };
                let mut out = Vec::with_capacity(c * (h / 2) * (w / 2));
                for plane in cur.chunks_exact(h * w) {
                    for oy in 0..h / 2 {
                        for ox in 0..w / 2 {
                            let at = 2 * oy * w + 2 * ox;
                            let quad = [plane[at], plane[at + 1], plane[at + w], plane[at + w + 1]];
                            out.push(
                                quad.iter()
                                    .fold((floor, floor), |m, q| (m.0.max(q.0), m.1.max(q.1))),
                            );
                        }
                    }
                }
                out
            }
            (Step::AvgPool { h, w, window, stride, .. }, StepData::None) => {
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
            (Step::Flatten, StepData::None) => cur,
            (step, _) => unreachable!("{step:?} without its data"),
        };
    }
    cur
}

/// [`eval_ring`] of `specs` in their own order, one layer at a time: each
/// is lowered alone against the shape the one before it produced, so no
/// rewrite or fusion can reach across two layers. Also returns the ReLU
/// elements and pool windows the layers count, summed.
fn eval_layer_by_layer(
    specs: &[LayerSpec],
    mut chw: (usize, usize, usize),
    x: &[u64],
    fp: FixedPoint,
) -> (Vec<u64>, [usize; 2]) {
    let mut cur = x.to_vec();
    let mut counts = [0; 2];
    for spec in specs {
        let step = lower(std::slice::from_ref(spec), chw, fp).unwrap();
        cur = eval_ring(&step, &cur, fp);
        counts[0] += step.base_counts.relu_elems;
        counts[1] += step.base_counts.pool_windows;
        chw = match step.out_dims[..] {
            [_, c, h, w] => (c, h, w),
            [_, flat] => (flat, 1, 1),
            ref dims => unreachable!("output dims {dims:?}"),
        };
    }
    (cur, counts)
}

/// Checks both properties on one prefix and returns the compiled plan's
/// reference output.
fn check(specs: &[LayerSpec], [c, h, w]: [usize; 3], x: &Tensor) -> Vec<u64> {
    let fp = FixedPoint::default();
    let compiled = compile(specs, (c, h, w), fp).unwrap();
    let mut folded = specs.to_vec();
    fold_batch_norm(&mut folded);
    let input = fp.encode_tensor(x);
    let want = eval_ring(&compiled, &input, fp);
    let (spec_order, _) = eval_layer_by_layer(&folded, (c, h, w), &input, fp);
    assert_eq!(want, spec_order, "the rewrite or the fusion changed the ring result");
    // A fused step counts the window and the ReLU element it stands for:
    // the counts are those of the rewritten specs (`specs_of`'s order,
    // which the frozen benchmark re-derives), layer by layer.
    let mut rewritten = folded;
    pool_before_relu(&mut rewritten);
    let (_, [relu, pool]) = eval_layer_by_layer(&rewritten, (c, h, w), &input, fp);
    let counts = &compiled.base_counts;
    assert_eq!([counts.relu_elems, counts.pool_windows], [relu, pool], "the fusion moved a count");
    let bounds = reachable(&compiled, &input, fp);
    for (&v, &(lo, hi)) in want.iter().zip(&bounds) {
        assert!((lo..=hi).contains(&(v as i64 as i128)), "the ring value lies outside its bounds");
    }
    for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
        let cfg = PiConfig { backend, fixed: fp, ..Default::default() };
        let outcome = PiSession::new(specs, [c, h, w], cfg).unwrap().infer(x).unwrap();
        let got = c2pi_mpc::share::reconstruct(&outcome.client_share, &outcome.server_share);
        assert_eq!(got.len(), want.len(), "{backend:?}: output length");
        for (i, (&g, &(lo, hi))) in got.iter().zip(&bounds).enumerate() {
            let g = g as i64 as i128;
            assert!(
                (lo..=hi).contains(&g),
                "{backend:?}: output {i} is {g}, outside [{lo}, {hi}] (ring value {})",
                want[i] as i64
            );
        }
    }
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn random_prefixes_match_the_ring_reference_before_and_after_the_rewrite(seed in any::<u64>()) {
        let (specs, [c, h, w]) = random_prefix(seed);
        let x = Tensor::rand_uniform(&[1, c, h, w], -1.0, 1.0, seed ^ 0x5eed);
        check(&specs, [c, h, w], &x);
    }
}

#[test]
fn pool_relu_runs_match_the_ring_reference() {
    // The runs a fused step must and must not reach across, each after a
    // convolution, so windows hold values of both signs: a pool and its
    // ReLU fuse; of two pools only the second; across an average pool or
    // a convolution nothing fuses; `Relu, MaxPool, Relu` pools first and
    // fuses one ReLU.
    let mut d = Draw(Prg::from_u64(9));
    let mut conv = |ic: usize| LayerSpec::Conv2d {
        weight: d.uniform(&[3, ic, 3, 3], 0.5),
        bias: d.uniform(&[3], 0.1),
        geom: Conv2dGeom { kernel: 3, stride: 1, padding: 1, dilation: 1 },
    };
    let max = || LayerSpec::MaxPool2d { window: 2, stride: 2 };
    let avg = || LayerSpec::AvgPool2d { window: 2, stride: 2 };
    let runs = [
        vec![conv(2), max(), LayerSpec::Relu],
        vec![conv(2), max(), max(), LayerSpec::Relu],
        vec![conv(2), max(), avg(), LayerSpec::Relu],
        vec![conv(2), max(), conv(3), LayerSpec::Relu],
        vec![conv(2), LayerSpec::Relu, max(), LayerSpec::Relu],
    ];
    let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, 9);
    for specs in runs {
        check(&specs, [2, 8, 8], &x);
    }
}

#[test]
fn demo_prefixes_match_the_ring_reference_and_the_clear_prefix() {
    // The demo deployment split at each ReLU — relu(3), after its second
    // pool, is where the benchmark splits it; relu(1)'s max pool is the
    // suffix's first layer — and whole.
    let demo = alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
        .unwrap();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 5);
    let fp = FixedPoint::default();
    for split in (1..=5).map(|k| Some(BoundaryId::relu(k))).chain([None]) {
        let prefix = match split {
            Some(id) => demo.split_at(id).unwrap().0,
            None => demo.seq().clone(),
        };
        let specs: Vec<_> = prefix.layers().iter().map(|l| l.spec()).collect();
        let ring = check(&specs, [3, 16, 16], &x);
        let clear = prefix.forward_eval(&x).unwrap();
        for (&r, &v) in ring.iter().zip(clear.as_slice()) {
            assert!(
                (fp.decode(r) - v).abs() < 0.02,
                "{split:?}: ring {} vs clear {v}",
                fp.decode(r)
            );
        }
    }
}
