//! Integration tests of the MPC substrate against plaintext execution:
//! random small networks must produce the same activations under both
//! engines, and the traffic profile must reflect the architecture.

use c2pi_suite::core::session::C2pi;
use c2pi_suite::core::{Defense, Split};
use c2pi_suite::nn::layers::{AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
use c2pi_suite::nn::model::{alexnet, ZooConfig};
use c2pi_suite::nn::{BoundaryId, Sequential};
use c2pi_suite::pi::engine::{run_prefix, specs_of, PiBackend, PiConfig};
use c2pi_suite::pi::PiSession;
use c2pi_tensor::Tensor;

fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(a.dims(), b.dims());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() < tol, "{x} vs {y}");
    }
}

fn check_both_backends(seq: &mut Sequential, x: &Tensor, tol: f32) {
    let plain = seq.forward(x, false).unwrap();
    seq.clear_cache();
    for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
        let cfg = PiConfig { backend, ..Default::default() };
        let outcome = run_prefix(&specs_of(seq), x, &cfg).unwrap();
        let secure = outcome.reconstruct(cfg.fixed).unwrap();
        assert_close(&plain, &secure, tol);
    }
}

#[test]
fn random_conv_stacks_agree_with_plaintext() {
    for seed in 0..3u64 {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(2, 3, 3, 1, 1, 1, seed));
        seq.push(Relu::new());
        seq.push(Conv2d::new(3, 2, 3, 1, 1, 1, seed + 10));
        seq.push(Relu::new());
        let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, seed + 20);
        check_both_backends(&mut seq, &x, 0.02);
    }
}

#[test]
fn pooling_and_head_agree_with_plaintext() {
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 4, 3, 1, 1, 1, 1));
    seq.push(Relu::new());
    seq.push(MaxPool2d::new(2, 2));
    seq.push(Conv2d::new(4, 4, 3, 1, 1, 1, 2));
    seq.push(Relu::new());
    seq.push(AvgPool2d::new(2, 2));
    seq.push(Flatten::new());
    seq.push(Linear::new(4 * 2 * 2, 6, 3));
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 4);
    check_both_backends(&mut seq, &x, 0.05);
}

#[test]
fn strided_convolutions_agree_with_plaintext() {
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(2, 4, 3, 2, 1, 1, 5));
    seq.push(Relu::new());
    let x = Tensor::rand_uniform(&[1, 2, 9, 9], -1.0, 1.0, 6);
    check_both_backends(&mut seq, &x, 0.02);
}

#[test]
fn traffic_scales_with_relu_count_not_just_layers() {
    // Two nets with the same conv cost but different ReLU surface: the
    // non-linear protocol should dominate the difference.
    let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, 7);
    let cfg = PiConfig { backend: PiBackend::Delphi, ..Default::default() };
    let mut with_relu = Sequential::new();
    with_relu.push(Conv2d::new(2, 4, 3, 1, 1, 1, 8));
    with_relu.push(Relu::new());
    let mut without_relu = Sequential::new();
    without_relu.push(Conv2d::new(2, 4, 3, 1, 1, 1, 8));
    let a = run_prefix(&specs_of(&with_relu), &x, &cfg).unwrap();
    let b = run_prefix(&specs_of(&without_relu), &x, &cfg).unwrap();
    // The whole difference is the ReLU layer's δ/label round, ⌈w/8⌉ B
    // and w labels of 16 B per element at the layer's width w, and it
    // outweighs the linear-only prefix.
    let relus = 4 * 8 * 8;
    let w = PiSession::new(&specs_of(&with_relu), [2, 8, 8], cfg).unwrap().unit_widths()[0] as u64;
    let relu_bytes = relus * (w.div_ceil(8) + w * 16);
    assert_eq!(a.report.online.bytes_total(), b.report.online.bytes_total() + relu_bytes);
    assert!(
        relu_bytes > b.report.online.bytes_total(),
        "relu {relu_bytes} vs linear-only {}",
        b.report.online.bytes_total()
    );
}

#[test]
fn dealer_seed_changes_transcript_not_result() {
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 9));
    seq.push(Relu::new());
    let x = Tensor::rand_uniform(&[1, 1, 6, 6], -1.0, 1.0, 10);
    let plain = seq.forward(&x, false).unwrap();
    seq.clear_cache();
    let mut shares_seen = Vec::new();
    for seed in [1u64, 2] {
        let cfg = PiConfig { dealer_seed: seed, ..Default::default() };
        let outcome = run_prefix(&specs_of(&seq), &x, &cfg).unwrap();
        let secure = outcome.reconstruct(cfg.fixed).unwrap();
        assert_close(&plain, &secure, 0.02);
        shares_seen.push(outcome.client_share.as_raw().to_vec());
    }
    // Different masks => different transcripts/shares, same plaintext.
    assert_ne!(shares_seen[0], shares_seen[1]);
}

#[test]
fn delphi_and_cheetah_sessions_agree_on_the_same_batch() {
    // Backend parity: the two protocol suites are different crypto for
    // the same function, so on the same batch they must produce
    // identical predictions and logits within fixed-point tolerance —
    // with the boundary in the middle and at the very end.
    let model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, num_classes: 10 }).unwrap();
    let batch: Vec<Tensor> =
        (0..3).map(|s| Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 40 + s)).collect();
    for split in [Split::At(BoundaryId::relu(3)), Split::Full] {
        let run = |backend: PiBackend| {
            let mut session = C2pi::builder(model.clone())
                .split(split)
                .defense(Defense::Uniform { magnitude: 0.0 })
                .backend(backend)
                .build()
                .unwrap();
            session.preprocess(batch.len()).unwrap();
            session.infer_batch(&batch).unwrap()
        };
        let delphi = run(PiBackend::Delphi);
        let cheetah = run(PiBackend::Cheetah);
        for (i, (d, c)) in delphi.iter().zip(cheetah.iter()).enumerate() {
            assert_eq!(
                d.prediction, c.prediction,
                "split {split:?}, image {i}: predictions diverge"
            );
            for (a, b) in d.logits.as_slice().iter().zip(c.logits.as_slice()) {
                assert!((a - b).abs() < 0.05, "split {split:?}, image {i}: logits {a} vs {b}");
            }
        }
    }
}

/// Runs one pre-garbled `op` layer on shares of `secret` (one δ/label
/// round trip online) and returns the reconstructed outputs and the
/// layer's flight count.
fn pre_garbled_layer(
    op: c2pi_suite::mpc::gcpre::MaskedOp,
    secret: &[u64],
    seed: u64,
    par_band: usize,
) -> (Vec<u64>, u64) {
    use c2pi_suite::mpc::gcpre::{pre_gc_evaluator, pre_gc_garbler, pregarble};
    use c2pi_suite::mpc::prg::Prg;
    use c2pi_suite::mpc::share::{reconstruct, share_secret};
    use c2pi_suite::transport::channel_pair;

    let mut prg = Prg::from_u64(seed);
    let (x0, x1) = share_secret(secret, &mut prg);
    let (cmat, smat) = pregarble(op, secret.len() / op.in_elems(), &mut prg, par_band);
    let (client, server, counter) = channel_pair();
    let t = std::thread::spawn(move || pre_gc_garbler(&server, &smat, &x1).unwrap());
    let y0 = pre_gc_evaluator(&client, &cmat, &x0, par_band).unwrap();
    let y1 = t.join().unwrap();
    (reconstruct(&y0, &y1), counter.snapshot().flights)
}

#[test]
fn offline_garbled_relu_reconstructs_the_ring_relu_of_the_secret() {
    // Delphi garbles its ReLU offline; online, the two shares must
    // reconstruct exactly the ring ReLU of the secret (negative in
    // two's complement → 0, else unchanged) on every input, including
    // the negative/zero boundary and the ring's extremes.
    use c2pi_suite::mpc::gcpre::MaskedOp;

    let fp = c2pi_suite::mpc::FixedPoint::default();
    let values = [-7.5f32, -1.0, -0.001, 0.0, 0.001, 0.25, 3.0, 100.0];
    let mut secret: Vec<u64> = values.iter().map(|&v| fp.encode(v)).collect();
    secret.extend([u64::MAX, 1, i64::MIN as u64, i64::MAX as u64]);
    let (y, flights) = pre_garbled_layer(MaskedOp::Relu, &secret, 901, 4);
    let ring_relu: Vec<u64> = secret.iter().map(|&x| if (x as i64) < 0 { 0 } else { x }).collect();
    assert_eq!(y, ring_relu, "offline-garbled ReLU diverges from the ring ReLU");
    // And the online phase is exactly one round trip.
    assert_eq!(flights, 2);
}

#[test]
fn offline_garbled_maxpool_reconstructs_the_signed_max_of_each_window() {
    use c2pi_suite::mpc::gcpre::MaskedOp;

    let fp = c2pi_suite::mpc::FixedPoint::default();
    // Three windows of four values each: a positive max, an all-negative
    // window, and a tie.
    let values = [1.0f32, -2.0, 0.5, 0.75, -1.0, -2.0, -3.0, -0.25, 4.0, 4.0, -4.0, 0.0];
    let secret: Vec<u64> = values.iter().map(|&v| fp.encode(v)).collect();
    let (y, flights) = pre_garbled_layer(MaskedOp::Maxpool4, &secret, 911, 2);
    let signed_max: Vec<u64> = secret
        .chunks_exact(4)
        .map(|w| w.iter().map(|&x| x as i64).max().expect("four values") as u64)
        .collect();
    assert_eq!(y, signed_max, "offline-garbled maxpool diverges from the 4-way signed max");
    assert_eq!(flights, 2);
}

#[test]
fn delphi_online_flights_are_layer_batched() {
    // One δ/label round trip per non-linear layer — and since the δ
    // frame travels in the same direction as the client's preceding
    // linear-layer messages, it merges into that flight: a conv+relu
    // prefix costs exactly ONE extra online flight (the label
    // response) over the linear-only prefix, no matter how many
    // elements the layer holds (before the refactor a single ReLU
    // layer cost five frames per gc_chunk).
    let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, 77);
    let cfg = PiConfig { backend: PiBackend::Delphi, ..Default::default() };
    let mut with_relu = Sequential::new();
    with_relu.push(Conv2d::new(2, 4, 3, 1, 1, 1, 78));
    with_relu.push(Relu::new());
    let mut without_relu = Sequential::new();
    without_relu.push(Conv2d::new(2, 4, 3, 1, 1, 1, 78));
    let a = run_prefix(&specs_of(&with_relu), &x, &cfg).unwrap();
    let b = run_prefix(&specs_of(&without_relu), &x, &cfg).unwrap();
    assert_eq!(
        a.report.online.flights,
        b.report.online.flights + 1,
        "relu layer should cost exactly one extra online flight"
    );
    // A max pool and the ReLU after it are one garbled unit: the
    // conv→relu→maxpool prefix (run as conv, then the fused pool) also
    // costs exactly one label flight over the bare conv, and its online
    // bytes are the window's at the unit's width w: four δ values of
    // ⌈w/8⌉ B and 4 · w labels of 16 B, none for the ReLU.
    with_relu.push(MaxPool2d::new(2, 2));
    let c = run_prefix(&specs_of(&with_relu), &x, &cfg).unwrap();
    assert_eq!(
        c.report.online.flights,
        b.report.online.flights + 1,
        "a pooled relu layer should cost exactly one extra online flight"
    );
    let windows = 4 * 4 * 4;
    let w = PiSession::new(&specs_of(&with_relu), [2, 8, 8], cfg).unwrap().unit_widths()[0] as u64;
    assert_eq!(
        c.report.online.bytes_total(),
        b.report.online.bytes_total() + windows * 4 * (w.div_ceil(8) + w * 16)
    );
}

#[test]
fn client_share_alone_reveals_nothing_obvious() {
    // Sanity privacy check: the client share of a constant activation is
    // not constant (it is uniformly masked).
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 11));
    let x = Tensor::full(&[1, 1, 6, 6], 0.5);
    let cfg = PiConfig::default();
    let outcome = run_prefix(&specs_of(&seq), &x, &cfg).unwrap();
    let raw = outcome.server_share.as_raw();
    let distinct: std::collections::HashSet<&u64> = raw.iter().collect();
    assert!(distinct.len() > raw.len() / 2, "shares look non-uniform");
}

/// One party-pair transcript, reduced to what must never move: an
/// FNV-1a fold of `client_share ‖ server_share` raw words, the
/// per-direction online bytes, and the flight count.
type Transcript = (u64, u64, u64, u64);

fn transcript(
    client: &c2pi_suite::mpc::share::ShareVec,
    server: &c2pi_suite::mpc::share::ShareVec,
    online: &c2pi_suite::transport::TrafficSnapshot,
) -> Transcript {
    let fold =
        client.as_raw().iter().chain(server.as_raw()).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
    (fold, online.bytes_client_to_server, online.bytes_server_to_client, online.flights)
}

#[test]
fn serving_transcripts_match_their_goldens_at_every_entry_point() {
    // Every other determinism net compares one serving path with
    // another; this one pins absolute output, so a change that moves
    // *all* paths together still fails. Tiny conv→ReLU→maxpool prefix,
    // run as conv→maxpool→ReLU (the plan pools first); default dealer
    // seed, fixed inputs, fresh session per entry point (each consumes
    // the first sets of the same seed stream). The
    // dealt entry points count the 20-byte `DealtSeed` frame; `infer`
    // has none. The share folds also pin the dealt function `seed →
    // material` (`DealtSeed` v7: a multiplication's output shares are a
    // function of its Beaver triple, and where that triple sits in the
    // stream depends on every draw before it); bytes and flights are
    // protocol facts and survive any re-draw. The fused unit runs at the
    // 16 bits its compiled bound needs: Delphi as one garbled unit, one
    // δ/label round trip of 2 B and 16 labels per input; Cheetah as two
    // protocols in one step, with the two layers' draws and flights, each
    // DReLU five AND layers deep.
    use c2pi_suite::pi::PiSession;
    use c2pi_suite::transport::channel_pair;

    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
    seq.push(Relu::new());
    seq.push(MaxPool2d::new(2, 2));
    let specs = specs_of(&seq);
    let input = |salt: usize| {
        let v = (0..64).map(|i| ((i * 37 + salt * 11) % 64) as f32 / 32.0 - 1.0).collect();
        Tensor::from_vec(v, &[1, 1, 8, 8]).unwrap()
    };
    let (x0, x1) = (input(0), input(1));

    // (infer, serve_one/request_one, batch member 0, batch member 1)
    let goldens: [(PiBackend, [Transcript; 4]); 2] = [
        (
            PiBackend::Cheetah,
            [
                (0x8769_7da0_2d08_6969, 13_328, 8_208, 56),
                (0x8769_7da0_2d08_6969, 13_328, 8_228, 57),
                (0x8769_7da0_2d08_6969, 13_328, 8_228, 57),
                (0x8740_5939_a67d_78c7, 13_328, 8_228, 57),
            ],
        ),
        (
            PiBackend::Delphi,
            [
                (0x585b_5f7a_0d4a_ec4e, 5_504, 49_152, 2),
                (0x585b_5f7a_0d4a_ec4e, 5_504, 49_172, 3),
                (0x585b_5f7a_0d4a_ec4e, 5_504, 49_172, 3),
                (0x2d9c_da5d_5cfa_b1a6, 5_504, 49_172, 3),
            ],
        ),
    ];
    for (backend, want) in goldens {
        let cfg = PiConfig { backend, ..Default::default() };
        let session = || PiSession::new(&specs, [1, 8, 8], cfg).unwrap();

        let solo = session().infer(&x0).unwrap();
        let infer = transcript(&solo.client_share, &solo.server_share, &solo.report.online);

        let (cch, sch, counter) = channel_pair();
        let server = session();
        let t = std::thread::spawn(move || server.serve_one(&sch).unwrap());
        let c = session().request_one(&cch, &x0).unwrap();
        let s = t.join().unwrap();
        let dealt = transcript(&c.share, &s.share, &counter.snapshot());

        let fused = session().infer_batch_dealt(&[x0.clone(), x1.clone()]).unwrap();
        let members: Vec<Transcript> = fused
            .iter()
            .map(|m| transcript(&m.client_share, &m.server_share, &m.report.online))
            .collect();

        let got = [infer, dealt, members[0], members[1]];
        assert_eq!(got, want, "{backend:?}: got {got:#x?}");
    }
}
