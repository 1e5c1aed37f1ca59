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
//!   lies in the interval [`bounds`] gives it over the input's point box
//!   — `eval_ring` with each truncation free to add 0 or 1 LSB — and every
//!   unit step's inputs lie inside the bound its width was compiled for
//!   over the whole input domain. The interval's width is 1 LSB after one
//!   conv, at most 42 LSB at the benchmark's relu(3) split (5 LSB
//!   measured), and 0 where a ReLU's whole input interval is negative.
//!   The whole demo model's logits sum every earlier truncation through
//!   their weights: the interval there is ~17 000 LSB wide (7 measured),
//!   looser than the 0.02 check against the clear model (82 LSB), which
//!   is the one that binds on that row.
//!
//! The inputs are seeded, so every run draws the same cases.

#![cfg(test)]

use super::{
    bounds, compile, eval_ring, fold_batch_norm, lower, magnitude_bits, pool_before_relu, Interval,
    Plan, Step, INPUT_BOUND,
};
use crate::engine::{PiBackend, PiConfig};
use crate::session::PiSession;
use c2pi_mpc::gcpre::MaskedOp;
use c2pi_mpc::prg::Prg;
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

/// The zero-width box of an encoded input: [`bounds`] of it is the
/// interval each output of a protocol run on exactly that input must lie
/// in.
fn point(x: &[u64]) -> Vec<Interval> {
    x.iter().map(|&v| (v as i64 as i128, v as i64 as i128)).collect()
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
    let (_, bounds) = bounds(&compiled, &point(&input), fp);
    for (&v, &(lo, hi)) in want.iter().zip(&bounds) {
        assert!((lo..=hi).contains(&(v as i64 as i128)), "the ring value lies outside its bounds");
    }
    assert_units_fit_their_widths(&compiled, &input, fp);
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

/// The ring values each unit step of `plan` reads on `x`, under
/// [`eval_ring`] of the steps before it, lie inside the bound the step
/// was sized for over the input domain — so they fit the step's width.
fn assert_units_fit_their_widths(plan: &Plan, x: &[u64], fp: FixedPoint) {
    let one = fp.encode(INPUT_BOUND) as i64 as i128;
    if x.iter().any(|&v| (v as i64 as i128).abs() > one) {
        return;
    }
    for (at, step) in plan.steps.iter().enumerate() {
        let Step::Unit { bound, bits, .. } = *step else { continue };
        let before = Plan { steps: plan.steps[..at].to_vec(), ..plan.clone() };
        let got = point(&eval_ring(&before, x, fp)).into_iter().map(magnitude_bits);
        assert!(got.max().unwrap_or(0) <= bound, "step {at}: an input past its {bound}-bit bound");
        assert!(bits > bound as usize, "step {at}: {bits} bits for a {bound}-bit bound");
    }
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
fn inputs_that_reach_a_units_bound_run_exact_on_both_backends() {
    // Random inputs stay far inside a unit's bound; these sit at the
    // corner of the input domain that drives a unit's input to the top
    // of it. A dense layer's output `o` peaks at `x_k = sign W[k, o]`,
    // which a ReLU then reads at half its bound or more — the values a
    // ReLU one bit narrower than `bound + 1` misreads as negative. A 1×1
    // convolution of a 2×2 window at `±1` gives the max unit inputs `w +
    // b` and `b − w`, a difference of `2^bound` or more — what a max one
    // bit narrower than `bound + 2` cannot compare.
    let fp = FixedPoint::default();
    let (n, m) = (24, 6);
    let weight = Draw(Prg::from_u64(21)).uniform(&[n, m], 1.0);
    let bias = Tensor::from_vec(vec![0.05; m], &[m]).unwrap();
    let widest = |o: &usize| (0..n).map(|k| weight.as_slice()[k * m + o].abs()).sum::<f32>();
    let o = (0..m).max_by(|a, b| widest(a).total_cmp(&widest(b))).unwrap();
    let corner: Vec<f32> = (0..n).map(|k| weight.as_slice()[k * m + o].signum()).collect();
    let dense = vec![LayerSpec::Flatten, LayerSpec::Linear { weight, bias }, LayerSpec::Relu];
    let conv = LayerSpec::Conv2d {
        weight: Tensor::from_vec(vec![0.9], &[1, 1, 1, 1]).unwrap(),
        bias: Tensor::from_vec(vec![0.01], &[1]).unwrap(),
        geom: Conv2dGeom { kernel: 1, stride: 1, padding: 0, dilation: 1 },
    };
    let max = LayerSpec::MaxPool2d { window: 2, stride: 2 };
    let window = vec![1.0, -1.0, -1.0, 1.0];
    let cases = [
        (dense, [n, 1, 1], corner),
        (vec![conv.clone(), max.clone(), LayerSpec::Relu], [1, 2, 2], window.clone()),
        (vec![conv, max], [1, 2, 2], window),
    ];
    for (specs, [c, h, w], x) in cases {
        let x = Tensor::from_vec(x, &[1, c, h, w]).unwrap();
        let plan = compile(&specs, (c, h, w), fp).unwrap();
        let at = plan.steps.iter().position(|s| matches!(s, Step::Unit { .. })).unwrap();
        let Step::Unit { op, bound, .. } = plan.steps[at] else { unreachable!() };
        let before = Plan { steps: plan.steps[..at].to_vec(), ..plan.clone() };
        let seen: Vec<i64> =
            eval_ring(&before, &fp.encode_tensor(&x), fp).iter().map(|&v| v as i64).collect();
        let (lo, hi) = (*seen.iter().min().unwrap(), *seen.iter().max().unwrap());
        if op == MaskedOp::Relu {
            assert!(hi >= 1 << (bound - 1), "{op:?}: {hi} is under half its {bound}-bit bound");
        } else {
            assert!(hi - lo >= 1 << bound, "{op:?}: a spread of {} under 2^{bound}", hi - lo);
        }
        check(&specs, [c, h, w], &x);
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
