//! Per-layer micro-timings: each layer (a module of the repo) measured
//! from outside, by timing calls into its public functions on the shapes
//! this workload's crypto prefix uses. A layer the workload bypasses is
//! not measured and reports 0.

use crate::metrics::{Report, PER_LAYER};
use crate::reactor;
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{self, span, Checker, Shape, Workload};
use c2pi_mpc::beaver::{linear_client, linear_server};
use c2pi_mpc::dealer::Dealer;
use c2pi_mpc::gc::{evaluate, garble_open, relu_unit_circuit, select_labels};
use c2pi_mpc::gcpre::{
    eval_pregarbled, pre_gc_evaluator, pre_gc_garbler, pregarble, MaskedOp, PreGarbledClient,
    PreGarbledServer,
};
use c2pi_mpc::gmw::drelu_batch;
use c2pi_mpc::prg::{hash128, Prg};
use c2pi_mpc::relu::drelu_bit_triples;
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::share::ShareVec;
use c2pi_mpc::FixedPoint;
use c2pi_nn::{LayerSpec, Sequential};
use c2pi_pi::engine::specs_of;
use c2pi_pi::{
    Calibrator, MaterialPool, OnlineCostModel, OpCounts, PiBackend, PoolTake, ShardedMaterialPool,
};
use c2pi_tensor::conv::conv2d_im2col;
use c2pi_transport::{channel_pair, tcp_loopback_pair, Channel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One step of the crypto prefix, as the protocols see it.
enum Op {
    /// `W·X` with the server's ring-encoded `w` and an input of `cols`
    /// columns (a conv's im2col matrix, or one column for a dense layer).
    Linear {
        w: RingMatrix,
        cols: usize,
    },
    Relu {
        n: usize,
    },
    MaxPool {
        windows: usize,
    },
}

/// Walks the prefix's layer specs as the session's plan compiler does,
/// yielding the shapes the kernels run on.
fn walk(specs: &[LayerSpec], fp: FixedPoint) -> Vec<Op> {
    let [mut c, mut h, mut w] = workload::INPUT_CHW;
    let mut flat = c * h * w;
    let mut ops = Vec::new();
    for spec in specs {
        match spec {
            LayerSpec::Conv2d { weight, geom, .. } => {
                let (oc, ic, k, _) = weight.shape().as_nchw().expect("conv weight is 4-d");
                let (oh, ow) = geom.output_hw(h, w).expect("the model's own geometry");
                let ring = RingMatrix::from_vec(fp.encode_tensor(weight), oc, ic * k * k);
                ops.push(Op::Linear { w: ring.expect("weight shape"), cols: oh * ow });
                (c, h, w) = (oc, oh, ow);
                flat = c * h * w;
            }
            LayerSpec::Linear { weight, .. } => {
                let (k_in, out) = weight.shape().as_matrix().expect("dense weight is 2-d");
                let wt = weight.transpose().expect("2-d transpose");
                let ring = RingMatrix::from_vec(fp.encode_tensor(&wt), out, k_in);
                ops.push(Op::Linear { w: ring.expect("weight shape"), cols: 1 });
                flat = out;
            }
            LayerSpec::Relu => ops.push(Op::Relu { n: flat }),
            LayerSpec::MaxPool2d { .. } => {
                (h, w) = (h / 2, w / 2);
                flat = c * h * w;
                ops.push(Op::MaxPool { windows: flat });
            }
            LayerSpec::AvgPool2d { window, stride } => {
                (h, w) = ((h - window) / stride + 1, (w - window) / stride + 1);
                flat = c * h * w;
            }
            LayerSpec::Flatten | LayerSpec::Affine { .. } | LayerSpec::Unsupported(_) => {}
        }
    }
    ops
}

/// Times `run` on fresh `prepare` output `iters` times; seconds each.
fn sample<P, T>(
    iters: usize,
    mut prepare: impl FnMut() -> P,
    mut run: impl FnMut(P) -> T,
) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            black_box(run(black_box(input)));
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Runs a two-party exchange — `server` on a spawned thread, `client`
/// on this one — over `(c, s)` and returns its wall seconds.
fn pair_seconds<C: Channel + Sync>(
    c: &C,
    s: &C,
    client: impl FnOnce(&C),
    server: impl FnOnce(&C) + Send,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server(s));
        client(c);
        serving.join().expect("the server side of a micro-timing panicked");
    });
    start.elapsed().as_secs_f64()
}

const PING: [u8; 64] = [0x5a; 64];

/// Microseconds per 64-byte ping-pong over a channel pair.
fn roundtrip_us<C: Channel + Sync>(c: &C, s: &C) -> f64 {
    const TRIPS: usize = 2000;
    let secs = pair_seconds(
        c,
        s,
        |c| {
            for _ in 0..TRIPS {
                c.send_bytes(&PING).expect("ping");
                black_box(c.recv_bytes().expect("pong"));
            }
        },
        |s| {
            for _ in 0..TRIPS {
                let got = s.recv_bytes().expect("ping");
                s.send_bytes(&got).expect("pong");
            }
        },
    );
    secs * 1e6 / TRIPS as f64
}

/// MB/s (10⁶ bytes) of 1 MiB frames one way over a channel pair.
fn large_mb_per_s<C: Channel + Sync>(c: &C, s: &C) -> f64 {
    const FRAMES: usize = 64;
    let frame = vec![0xa5u8; 1 << 20];
    let secs = pair_seconds(
        c,
        s,
        |c| {
            for _ in 0..FRAMES {
                c.send_bytes(&frame).expect("large frame");
            }
            // The receiver's one-byte answer ends the timed interval.
            black_box(c.recv_bytes().expect("ack"));
        },
        |s| {
            for _ in 0..FRAMES {
                black_box(s.recv_bytes().expect("large frame"));
            }
            s.send_bytes(&[1]).expect("ack");
        },
    );
    (FRAMES << 20) as f64 / 1e6 / secs
}

fn random_share(prg: &mut Prg, n: usize) -> ShareVec {
    ShareVec::from_raw(prg.next_u64s(n))
}

fn random_matrix(prg: &mut Prg, rows: usize, cols: usize) -> RingMatrix {
    RingMatrix::from_vec(prg.next_u64s(rows * cols), rows, cols).expect("rows × cols values")
}

/// Everything the micro-timings need to know about the run.
pub struct Context<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub rec: Option<&'a Arc<Recorder>>,
    pub checker: &'a Checker,
    /// Operation counts of one inference, from a `PiReport`.
    pub counts: &'a OpCounts,
    /// Mean measured `PiReport.online_seconds`, for the cost models.
    pub report_online_s: f64,
}

impl Context<'_> {
    fn set(&self, report: &mut Report, name: &str, value: f64, samples: usize) {
        report.set(PER_LAYER, name, value, samples);
    }

    fn prefix(&self) -> Sequential {
        let model = self.checker.model();
        if self.workload.is_split() {
            model.split_at(workload::SPLIT).expect("the demo model has the split").0
        } else {
            model.seq().clone()
        }
    }

    /// Measures every layer on this workload's path.
    pub fn measure(&self, report: &mut Report) {
        let fp = FixedPoint::default();
        let ops = walk(&specs_of(&self.prefix()), fp);
        self.check_walk(&ops, report);
        self.transport(report);
        self.prg(report);
        self.dealer(&ops, report);
        self.beaver(&ops, report);
        match self.workload.backend {
            PiBackend::Delphi => {
                self.gc(report);
                self.gcpre(&ops, report);
            }
            PiBackend::Cheetah => self.gmw(&ops, report),
        }
        self.clear_model(report);
        self.pool(report);
        self.calibrate(report);
        if let Shape::Reactor { batching, persist, .. } = self.workload.shape {
            self.shard(report);
            if batching {
                self.batch2(report);
            }
            if persist {
                self.store(report);
            }
        }
    }

    /// The walk above re-derives what the private plan compiler knows;
    /// the counts a real inference reported say whether it did so right.
    fn check_walk(&self, ops: &[Op], report: &mut Report) {
        let relu: usize = ops.iter().map(|o| if let Op::Relu { n } = o { *n } else { 0 }).sum();
        let pool: usize =
            ops.iter().map(|o| if let Op::MaxPool { windows } = o { *windows } else { 0 }).sum();
        let macs: usize = ops
            .iter()
            .map(|o| if let Op::Linear { w, cols } = o { w.rows() * w.cols() * cols } else { 0 })
            .sum();
        let c = self.counts;
        report.check(
            relu == c.relu_elems && pool == c.pool_windows && macs as u64 == c.macs,
            || {
                format!(
                    "layer shapes disagree with the plan: relu {relu}/{}, pool {pool}/{}, \
                     macs {macs}/{}",
                    c.relu_elems, c.pool_windows, c.macs
                )
            },
        );
        self.set(report, "mpc.beaver.macs_per_inf", c.macs as f64, 1);
    }

    fn transport(&self, report: &mut Report) {
        if self.workload.is_split() {
            let _span = span(self.rec, "layer transport.mem");
            let (c, s, _) = channel_pair();
            let us: Vec<f64> = (0..5).map(|_| roundtrip_us(&c, &s)).collect();
            self.set(report, "transport.mem.roundtrip_us", median(&us), us.len());
        } else {
            let _span = span(self.rec, "layer transport.tcp");
            let (c, s, _) = tcp_loopback_pair().expect("loopback connects");
            let us: Vec<f64> = (0..5).map(|_| roundtrip_us(&c, &s)).collect();
            self.set(report, "transport.tcp.roundtrip_us", median(&us), us.len());
            let rates: Vec<f64> = (0..5).map(|_| large_mb_per_s(&c, &s)).collect();
            self.set(report, "transport.tcp.large_mb_per_s", median(&rates), rates.len());
        }
    }

    fn prg(&self, report: &mut Report) {
        let _span = span(self.rec, "layer mpc.prg");
        if self.workload.backend == PiBackend::Delphi {
            const CALLS: u64 = 1 << 20;
            let secs = sample(
                3,
                || u128::from(self.seed) | 1,
                |mut label| {
                    for tweak in 0..CALLS {
                        label = hash128(label, tweak);
                    }
                    label
                },
            );
            self.set(report, "mpc.prg.hash128_ns", median(&secs) * 1e9 / CALLS as f64, secs.len());
        }
        let mut prg = Prg::from_u64(self.seed);
        let mut buf = vec![0u8; 1 << 20];
        let secs = sample(32, || (), |()| prg.fill_bytes(&mut buf));
        let rate = (1 << 20) as f64 / 1e6 / median(&secs);
        self.set(report, "mpc.prg.fill_mb_per_s", rate, secs.len());
    }

    fn dealer(&self, ops: &[Op], report: &mut Report) {
        let _span = span(self.rec, "layer mpc.dealer");
        if self.workload.backend == PiBackend::Cheetah {
            let need = self.counts.bit_triples as usize;
            let secs = sample(5, || Dealer::new(self.seed), |mut d| d.bit_triples(need));
            self.set(report, "mpc.dealer.bit_triples_ms", median(&secs) * 1e3, secs.len());
        }
        let secs = sample(
            5,
            || Dealer::new(self.seed),
            |mut d| {
                for op in ops {
                    if let Op::Linear { w, cols } = op {
                        black_box(d.linear_corr(w, *cols).expect("the plan's own shapes"));
                    }
                }
            },
        );
        self.set(report, "mpc.dealer.linear_corr_ms", median(&secs) * 1e3, secs.len());
    }

    fn beaver(&self, ops: &[Op], report: &mut Report) {
        let _span = span(self.rec, "layer mpc.beaver");
        let mut prg = Prg::from_u64(self.seed);
        let mut dealer = Dealer::new(self.seed);
        let layers: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Linear { w, cols } => {
                    let corr = dealer.linear_corr(w, *cols).expect("the plan's own shapes");
                    let x0 = random_matrix(&mut prg, w.cols(), *cols);
                    let x1 = random_matrix(&mut prg, w.cols(), *cols);
                    Some((w, corr, x0, x1))
                }
                _ => None,
            })
            .collect();
        let secs = sample(7, channel_pair, |(c, s, _)| {
            pair_seconds(
                &c,
                &s,
                |c| {
                    for (_, (cc, _), x0, _) in &layers {
                        black_box(linear_client(c, x0, cc).expect("linear client"));
                    }
                },
                |s| {
                    for (w, (_, cs), _, x1) in &layers {
                        black_box(linear_server(s, w, x1, cs).expect("linear server"));
                    }
                },
            )
        });
        self.set(report, "mpc.beaver.linear_ms", median(&secs) * 1e3, secs.len());
    }

    fn gc(&self, report: &mut Report) {
        let _span = span(self.rec, "layer mpc.gc");
        const CIRCUITS: usize = 256;
        let circuit = relu_unit_circuit();
        let ands = (CIRCUITS * circuit.and_count()) as f64;
        let secs = sample(
            5,
            || Prg::from_u64(self.seed),
            |mut prg| {
                for _ in 0..CIRCUITS {
                    black_box(garble_open(circuit, &mut prg));
                }
            },
        );
        self.set(report, "mpc.gc.garble_ns_per_and", median(&secs) * 1e9 / ands, secs.len());
        let open = garble_open(circuit, &mut Prg::from_u64(self.seed));
        let g =
            select_labels(&open.garbler_label_pairs, &vec![true; open.garbler_label_pairs.len()]);
        let e = select_labels(
            &open.evaluator_label_pairs,
            &vec![false; open.evaluator_label_pairs.len()],
        );
        let secs = sample(
            5,
            || (),
            |()| {
                for _ in 0..CIRCUITS {
                    let out = evaluate(circuit, &open.tables, &g, &e, &open.output_decode);
                    black_box(out.expect("labels match the circuit"));
                }
            },
        );
        self.set(report, "mpc.gc.eval_ns_per_and", median(&secs) * 1e9 / ands, secs.len());
    }

    fn gcpre(&self, ops: &[Op], report: &mut Report) {
        let _span = span(self.rec, "layer mpc.gcpre");
        let band = c2pi_pi::PiConfig::default().gc_chunk;
        let items: Vec<(MaskedOp, usize)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Relu { n } => Some((MaskedOp::Relu, *n)),
                Op::MaxPool { windows } => Some((MaskedOp::Maxpool4, *windows)),
                Op::Linear { .. } => None,
            })
            .collect();
        let garble_all = |prg: &mut Prg| -> Vec<(PreGarbledClient, PreGarbledServer)> {
            items.iter().map(|&(op, n)| pregarble(op, n, prg, band)).collect()
        };
        let secs = sample(3, || Prg::from_u64(self.seed), |mut prg| garble_all(&mut prg));
        self.set(report, "mpc.gcpre.pregarble_ms", median(&secs) * 1e3, secs.len());

        let mut prg = Prg::from_u64(self.seed);
        let mats = garble_all(&mut prg);
        let shares: Vec<(ShareVec, ShareVec)> = mats
            .iter()
            .map(|(c, _)| (random_share(&mut prg, c.inputs()), random_share(&mut prg, c.inputs())))
            .collect();
        let labels: Vec<Vec<u128>> = mats
            .iter()
            .zip(&shares)
            .map(|((_, s), (x0, _))| s.select_garbler_labels(x0.as_raw()).expect("one per input"))
            .collect();
        let secs = sample(
            5,
            || (),
            |()| {
                for ((c, _), l) in mats.iter().zip(&labels) {
                    black_box(eval_pregarbled(c, l, band).expect("labels match the material"));
                }
            },
        );
        self.set(report, "mpc.gcpre.eval_ms", median(&secs) * 1e3, secs.len());
        let secs = sample(5, channel_pair, |(c, s, _)| {
            pair_seconds(
                &c,
                &s,
                |c| {
                    for ((cm, _), (x0, _)) in mats.iter().zip(&shares) {
                        black_box(pre_gc_evaluator(c, cm, x0, band).expect("evaluator"));
                    }
                },
                |s| {
                    for ((_, sm), (_, x1)) in mats.iter().zip(&shares) {
                        black_box(pre_gc_garbler(s, sm, x1).expect("garbler"));
                    }
                },
            )
        });
        self.set(report, "mpc.gcpre.round_ms", median(&secs) * 1e3, secs.len());
        self.set(report, "mpc.gcpre.and_gates_per_inf", self.counts.and_gates as f64, 1);
    }

    fn gmw(&self, ops: &[Op], report: &mut Report) {
        let _span = span(self.rec, "layer mpc.gmw");
        let relus: Vec<usize> = ops
            .iter()
            .filter_map(|op| if let Op::Relu { n } = op { Some(*n) } else { None })
            .collect();
        let mut flights = 0;
        let secs = sample(
            5,
            || {
                let mut prg = Prg::from_u64(self.seed);
                let mut dealer = Dealer::new(self.seed);
                let layers: Vec<_> = relus
                    .iter()
                    .map(|&n| {
                        let (b0, b1) = dealer.bit_triples(n * drelu_bit_triples(63));
                        (prg.next_u64s(n), prg.next_u64s(n), b0, b1)
                    })
                    .collect();
                (layers, channel_pair())
            },
            |(layers, (c, s, counter))| {
                let (mut mine, mut theirs): (Vec<_>, Vec<_>) =
                    layers.into_iter().map(|(x0, x1, b0, b1)| ((x0, b0), (x1, b1))).unzip();
                let secs = pair_seconds(
                    &c,
                    &s,
                    |c| {
                        for (x0, b0) in &mut mine {
                            black_box(drelu_batch(c, true, x0, b0).expect("drelu party 0"));
                        }
                    },
                    |s| {
                        for (x1, b1) in &mut theirs {
                            black_box(drelu_batch(s, false, x1, b1).expect("drelu party 1"));
                        }
                    },
                );
                flights = counter.snapshot().flights;
                secs
            },
        );
        self.set(report, "mpc.gmw.drelu_ms", median(&secs) * 1e3, secs.len());
        self.set(report, "mpc.gmw.drelu_flights", flights as f64, 1);
        self.set(report, "mpc.gmw.bit_triples_per_inf", self.counts.bit_triples as f64, 1);
    }

    fn clear_model(&self, report: &mut Report) {
        let _span = span(self.rec, "layer nn+tensor");
        let x = workload::input(self.seed, 0);
        let model = self.checker.model();
        let secs = sample(50, || (), |()| model.seq().forward_eval(&x).expect("clear model"));
        self.set(report, "nn.clear_full_ms", median(&secs) * 1e3, secs.len());
        if !self.workload.is_split() {
            return;
        }
        let (prefix, suffix) = model.split_at(workload::SPLIT).expect("the demo model's split");
        let act = prefix.forward_eval(&x).expect("clear prefix");
        let secs = sample(50, || (), |()| suffix.forward_eval(&act).expect("clear suffix"));
        self.set(report, "nn.suffix_ms", median(&secs) * 1e3, secs.len());
        // The suffix's first convolution, on the activation that reaches it.
        let mut cur = act;
        for layer in suffix.layers() {
            if let LayerSpec::Conv2d { weight, bias, geom } = layer.spec() {
                let secs = sample(
                    50,
                    || (),
                    |()| conv2d_im2col(&cur, &weight, &bias, geom).expect("the layer's own shapes"),
                );
                self.set(report, "tensor.conv_ms", median(&secs) * 1e3, secs.len());
                break;
            }
            cur = layer.forward_eval(&cur).expect("clear suffix layer");
        }
    }

    fn session(&self) -> c2pi_pi::SharedPiSession {
        if self.workload.is_split() {
            let cfg = c2pi_pi::PiConfig { backend: self.workload.backend, ..Default::default() };
            c2pi_pi::PiSession::new(&specs_of(&self.prefix()), workload::INPUT_CHW, cfg)
                .expect("the split prefix compiles")
                .into_shared()
        } else {
            reactor::compile(self.workload)
        }
    }

    fn pool(&self, report: &mut Report) {
        let _span = span(self.rec, "layer pi.pool");
        const SETS: usize = 6;
        let pool = MaterialPool::new(Arc::clone(self.session().core()));
        let secs = sample(SETS, || (), |()| pool.preprocess(1).expect("dealer"));
        self.set(report, "pi.pool.deal_ms_per_set", median(&secs) * 1e3, secs.len());
        let secs = sample(SETS, || (), |()| pool.take().expect("a pooled set"));
        self.set(report, "pi.pool.take_us", median(&secs) * 1e6, secs.len());
        let inline = pool.ledger().generated_inline;
        report.check(inline == 0, || format!("pool probe dealt {inline} sets inline"));
    }

    fn shard(&self, report: &mut Report) {
        let _span = span(self.rec, "layer pi.shard");
        const SETS: usize = 6;
        let pool = ShardedMaterialPool::new(Arc::clone(self.session().core()), 2);
        pool.preprocess(SETS).expect("dealer");
        let mut got = 0;
        let secs = sample(
            SETS,
            || (),
            |()| {
                let take = pool.try_take(0).expect("no store attached");
                got += usize::from(matches!(take, PoolTake::Material(_)));
                take
            },
        );
        report.check(got == SETS, || format!("try_take found {got} of {SETS} pooled sets"));
        self.set(report, "pi.shard.try_take_us", median(&secs) * 1e6, secs.len());
    }

    fn batch2(&self, report: &mut Report) {
        let _span = span(self.rec, "layer pi.session.batch2");
        const REPS: usize = 3;
        let session = self.session();
        session.preprocess(4 * REPS).expect("dealer");
        let xs = [workload::input(self.seed, 0), workload::input(self.seed, 1)];
        let solo = sample(2 * REPS, || (), |()| session.infer(&xs[0]).expect("solo inference"));
        let fused = sample(REPS, || (), |()| session.infer_batch_dealt(&xs).expect("fused pair"));
        let ratio = median(&fused) / (2.0 * median(&solo));
        self.set(report, "pi.session.batch2_cost_ratio", ratio, REPS);
    }

    /// The store's cost per record is the difference between a `take`
    /// that appends a record under the pool lock and one that does not;
    /// a set costs two records (dealt, consumed).
    fn store(&self, report: &mut Report) {
        let _span = span(self.rec, "layer pi.store");
        const DEALT: usize = 8;
        const TAKEN: usize = 4;
        let dir = workload::scratch_dir().join(format!("store-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the build directory is writable");
        let path = dir.join("material");
        let len = || std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
        let core = Arc::clone(self.session().core());

        let plain = MaterialPool::new(Arc::clone(&core));
        plain.preprocess(TAKEN).expect("dealer");
        let bare = sample(TAKEN, || (), |()| plain.take().expect("a pooled set"));

        let stored = MaterialPool::new(Arc::clone(&core));
        stored.attach_store(&path).expect("a fresh store attaches");
        let header = len();
        stored.preprocess(DEALT).expect("dealer");
        let dealt = len();
        let logged = sample(TAKEN, || (), |()| stored.take().expect("a pooled set"));
        let consumed = len();
        let per_record_us = (median(&logged) - median(&bare)).max(0.0) * 1e6;
        self.set(report, "pi.store.append_us_per_set", 2.0 * per_record_us, TAKEN);
        let bytes = (dealt - header) / DEALT as f64 + (consumed - dealt) / TAKEN as f64;
        self.set(report, "pi.store.bytes_per_set", bytes, DEALT);
        let secs = sample(1, || (), |()| stored.flush_store().expect("flush"));
        self.set(report, "pi.store.flush_ms", secs[0] * 1e3, 1);
        drop(stored);

        let pending = DEALT - TAKEN;
        let reborn = MaterialPool::new(core);
        let secs = sample(1, || (), |()| reborn.attach_store(&path).expect("the log replays"));
        let restored = reborn.ledger().restored as usize;
        report.check(restored == pending, || format!("replay restored {restored} of {pending}"));
        self.set(report, "pi.store.replay_ms_per_set", secs[0] * 1e3 / pending as f64, pending);
        drop(reborn);
        let _ = std::fs::remove_dir_all(&dir);
        report.check(!dir.exists(), || format!("store probe {} not removed", dir.display()));
    }

    /// The planner's ranking error: predicted ÷ measured online seconds,
    /// with the default coefficients and with ones fitted on this box.
    fn calibrate(&self, report: &mut Report) {
        let _span = span(self.rec, "layer pi.calibrate");
        if self.report_online_s <= 0.0 {
            return;
        }
        let backend = self.workload.backend;
        let default = OnlineCostModel::for_backend(backend).online_seconds(self.counts);
        self.set(report, "pi.calibrate.default_residual", default / self.report_online_s, 1);
        match Calibrator::default().measure(backend) {
            Ok(fitted) => {
                let predicted = fitted.online_seconds(self.counts);
                let residual = predicted / self.report_online_s;
                self.set(report, "pi.calibrate.measured_residual", residual, 1);
            }
            Err(e) => report.check(false, || format!("calibrator failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_matches_the_demo_model() {
        let model = workload::model();
        let ops = walk(&specs_of(model.seq()), FixedPoint::default());
        let linear = ops.iter().filter(|o| matches!(o, Op::Linear { .. })).count();
        let relu = ops.iter().filter(|o| matches!(o, Op::Relu { .. })).count();
        assert!(linear >= 6 && relu >= 5, "{linear} linear, {relu} relu");
        // The last dense layer maps to the ten logits, one column.
        let Some(Op::Linear { w, cols }) =
            ops.iter().rev().find(|o| matches!(o, Op::Linear { .. }))
        else {
            panic!("no linear layer");
        };
        assert_eq!((w.rows(), *cols), (10, 1));
    }

    #[test]
    fn transports_time_to_positive_numbers() {
        let (c, s, _) = channel_pair();
        assert!(roundtrip_us(&c, &s) > 0.0);
        assert!(large_mb_per_s(&c, &s) > 0.0);
    }
}
