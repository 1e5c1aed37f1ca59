//! Each party expands only its own half of a dealt seed. Two properties
//! of that split are pinned here through the public entry points:
//!
//! * **a client never needs the weights** — the client half of every
//!   correlation is raw draws plus the client's own garbling at the
//!   plan's unit widths, so a session compiled from the public
//!   architecture with every weight, bias, scale and shift zeroed, and
//!   given the widths the server publishes (`PiSession::unit_widths`),
//!   requests bit-identically to one that holds the true model (the
//!   paper's client: it knows the architecture, never the parameters;
//!   DESIGN.md §6);
//! * **wrong-half material is a typed error** — a client-sided set
//!   handed to the server entry point is refused by name before a single
//!   frame is sent.

use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_nn::{BoundaryId, LayerSpec};
use c2pi_pi::engine::specs_of;
use c2pi_pi::{PartyOutcome, PiBackend, PiConfig, PiError, PiSession};
use c2pi_tensor::Tensor;
use c2pi_transport::channel_pair;

/// The architecture of `specs` with every server-held value zeroed —
/// what a client that was told only the layer shapes compiles from.
fn architecture_only(specs: &[LayerSpec]) -> Vec<LayerSpec> {
    let zeros = |t: &Tensor| Tensor::zeros(t.dims());
    specs
        .iter()
        .map(|spec| match spec {
            LayerSpec::Conv2d { weight, bias, geom } => {
                LayerSpec::Conv2d { weight: zeros(weight), bias: zeros(bias), geom: *geom }
            }
            LayerSpec::Linear { weight, bias } => {
                LayerSpec::Linear { weight: zeros(weight), bias: zeros(bias) }
            }
            LayerSpec::Affine { scale, shift } => {
                LayerSpec::Affine { scale: vec![0.0; scale.len()], shift: vec![0.0; shift.len()] }
            }
            other => other.clone(),
        })
        .collect()
}

type Deployment = (&'static str, Vec<LayerSpec>, [usize; 3]);

/// The repository's demo deployment (a narrow AlexNet on 16×16 inputs)
/// up to its usual split.
fn demo_prefix() -> Deployment {
    let demo = alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
        .expect("the demo model builds");
    let split = BoundaryId { conv_id: 3, after_relu: true };
    let (prefix, _suffix) = demo.split_at(split).expect("the demo model's split");
    ("demo prefix", specs_of(&prefix), [3, 16, 16])
}

/// A small stack with the folded batch-norm, average pool and dense
/// layer the demo prefix lacks.
fn affine_stack() -> Deployment {
    let specs = vec![
        LayerSpec::Conv2d {
            weight: Tensor::rand_uniform(&[2, 1, 3, 3], -0.5, 0.5, 10),
            bias: Tensor::rand_uniform(&[2], -0.1, 0.1, 11),
            geom: c2pi_tensor::conv::Conv2dGeom { kernel: 3, stride: 1, padding: 1, dilation: 1 },
        },
        LayerSpec::Affine { scale: vec![0.75, 1.25], shift: vec![0.1, -0.2] },
        LayerSpec::Relu,
        LayerSpec::AvgPool2d { window: 2, stride: 2 },
        LayerSpec::Flatten,
        LayerSpec::Linear {
            weight: Tensor::rand_uniform(&[2 * 4 * 4, 5], -0.5, 0.5, 20),
            bias: Tensor::rand_uniform(&[5], -0.1, 0.1, 21),
        },
    ];
    ("affine stack", specs, [1, 8, 8])
}

/// One dealt inference: a fresh true-weights server (so every call is
/// dealt the first seed of the same stream) against `client`.
fn request(
    server_specs: &[LayerSpec],
    chw: [usize; 3],
    cfg: PiConfig,
    client: &PiSession,
    x: &Tensor,
) -> (Result<PartyOutcome, PiError>, PartyOutcome, c2pi_transport::TrafficSnapshot) {
    let server = PiSession::new(server_specs, chw, cfg).unwrap();
    let (cch, sch, counter) = channel_pair();
    let t = std::thread::spawn(move || server.serve_one(&sch));
    let c = client.request_one(&cch, x);
    drop(cch);
    let s = t.join().unwrap();
    (c, s.unwrap_or_else(|e| panic!("server: {e}")), counter.snapshot())
}

#[test]
fn a_client_compiled_from_the_architecture_and_published_widths_requests_bit_identically() {
    for (name, specs, chw) in [demo_prefix(), affine_stack()] {
        let blind_specs = architecture_only(&specs);
        let x = Tensor::rand_uniform(&[1, chw[0], chw[1], chw[2]], 0.0, 1.0, 91);
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let cfg = PiConfig { backend, ..Default::default() };
            let at = format!("{name} on {backend:?}");
            let knowing = PiSession::new(&specs, chw, cfg).unwrap();
            let published = knowing.unit_widths();
            let blind = PiSession::with_unit_widths(&blind_specs, chw, cfg, &published).unwrap();
            assert_eq!(blind.unit_widths(), published, "{at}: widths");
            let (want_c, want_s, want_traffic) = request(&specs, chw, cfg, &knowing, &x);
            let (got_c, got_s, got_traffic) = request(&specs, chw, cfg, &blind, &x);
            let (want_c, got_c) = (want_c.unwrap(), got_c.unwrap());
            assert_eq!(got_c.share.as_raw(), want_c.share.as_raw(), "{at}: client share");
            assert_eq!(got_s.share.as_raw(), want_s.share.as_raw(), "{at}: server share");
            assert_eq!(got_c.dims, want_c.dims, "{at}: dims");
            assert_eq!(got_traffic, want_traffic, "{at}: traffic");
            assert_eq!(got_c.report.counts, want_c.report.counts, "{at}: counts");
        }
    }
}

#[test]
fn a_client_without_the_published_widths_is_refused_by_fingerprint() {
    // The widths enter the session fingerprint: a blind client that
    // sizes its units from zeroed weights runs narrower steps than the
    // server, and refuses the dealt seed instead of misreading it.
    let (name, specs, chw) = demo_prefix();
    let x = Tensor::rand_uniform(&[1, chw[0], chw[1], chw[2]], 0.0, 1.0, 91);
    for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
        let cfg = PiConfig { backend, ..Default::default() };
        let blind = PiSession::new(&architecture_only(&specs), chw, cfg).unwrap();
        let knowing = PiSession::new(&specs, chw, cfg).unwrap();
        assert_ne!(blind.unit_widths(), knowing.unit_widths(), "{name}: zeroed weights");
        let server = knowing.clone();
        let (cch, sch, _) = channel_pair();
        let t = std::thread::spawn(move || server.serve_one(&sch));
        let refused = blind.request_one(&cch, &x);
        drop(cch);
        let _ = t.join().unwrap();
        assert!(
            matches!(&refused, Err(PiError::BadConfig(why)) if why.contains("not produced for this deployment")),
            "{name} on {backend:?}: {:?}",
            refused.map(|o| o.dims)
        );
    }
}

#[test]
fn published_widths_must_fit_the_plan() {
    let (_, specs, chw) = demo_prefix();
    let cfg = PiConfig::default();
    let widths = PiSession::new(&specs, chw, cfg).unwrap().unit_widths();
    let refused = |w: &[usize]| {
        matches!(PiSession::with_unit_widths(&specs, chw, cfg, w), Err(PiError::BadConfig(_)))
    };
    assert!(refused(&widths[1..]), "one width short");
    let narrow: Vec<usize> = widths.iter().map(|w| w - 1).collect();
    assert!(refused(&narrow), "below what the weights need");
    assert!(refused(&[72, widths[1], widths[2]]), "past the ring");
    // Any width from what the weights need up to the ring runs, whole
    // bytes or not.
    let odd = [widths[0] + 1, widths[1], widths[2]];
    assert_eq!(PiSession::with_unit_widths(&specs, chw, cfg, &odd).unwrap().unit_widths(), odd);
    let wider = PiSession::with_unit_widths(&specs, chw, cfg, &[64, 64, 64]).unwrap();
    assert_eq!(wider.unit_widths(), [64, 64, 64]);
}

#[test]
fn a_client_sided_set_is_refused_by_serve_prepared_before_any_frame() {
    let (_, specs, chw) = affine_stack();
    for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
        let cfg = PiConfig { backend, ..Default::default() };
        let session = PiSession::new(&specs, chw, cfg).unwrap();
        let core = session.core();
        // What a client holds after being dealt a seed: its own half.
        let (cch, sch, _) = channel_pair();
        let server = session.clone();
        let t = std::thread::spawn(move || server.serve_one(&sch));
        let frame = c2pi_transport::Channel::recv_bytes(&cch).unwrap();
        drop(cch);
        assert!(t.join().unwrap().is_err(), "the peer hung up after the dealt frame");
        let client_set = core.expand_dealt(&frame).unwrap();
        assert!(format!("{client_set:?}").contains("halves: \"client\""), "{client_set:?}");

        let (_cch, sch, counter) = channel_pair();
        let err = core.serve_prepared(&[&sch], vec![client_set]).unwrap_err();
        assert!(
            matches!(&err, PiError::BadConfig(why) if why.contains("no server half")),
            "{backend:?}: {err:?}"
        );
        assert_eq!(counter.snapshot().bytes_total(), 0, "{backend:?}: refused before any frame");
    }
}
