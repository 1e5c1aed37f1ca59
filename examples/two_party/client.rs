//! Two-process demo, client side: holds the input, connects to the
//! server over framed TCP, runs its party of the dealt contract
//! (`request_one`: expand the dealt seed, run the client party),
//! reconstructs the prediction from the revealed share — and verifies
//! the result is **bit-identical** to the single-process in-memory path
//! (exits non-zero otherwise, so CI can use this as a smoke test).
//!
//! ```text
//! cargo run --release --example two_party_client -- --backend cheetah --addr 127.0.0.1:7878
//! ```

#[path = "common.rs"]
mod common;

use c2pi_suite::mpc::share::{reconstruct, ShareVec};
use c2pi_suite::tensor::Tensor;
use c2pi_suite::transport::{Channel, Side, TcpChannel};
use std::time::Duration;

fn main() {
    let args = common::parse_args();
    let session = common::build_session(args.backend);
    let fp = session.config().fixed;
    let [c, h, w] = common::INPUT_CHW;
    let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, 1);

    println!("[client] backend {} — connecting to {}", session.backend_name(), args.addr);
    let ch = TcpChannel::connect_retry(&args.addr[..], Side::Client, Duration::from_secs(10))
        .expect("connect to server");
    let outcome = session.request_one(&ch, &x).expect("client party run");
    let server_share = ShareVec::from_raw(ch.recv_u64s().expect("revealed share"));
    let raw = reconstruct(&outcome.share, &server_share);
    let logits = fp.decode_tensor(&raw, &outcome.dims).expect("decode logits");
    let prediction = logits.argmax().unwrap_or(0);
    let traffic = ch.counter().snapshot();
    println!(
        "[client] prediction {prediction} — {:.3} MB online traffic, {} round trips, {:.1} ms",
        traffic.megabytes(),
        traffic.round_trips(),
        outcome.report.online_seconds * 1e3,
    );

    // Reference: the same deployment with both parties in this process
    // over the in-memory transport. The server's fresh pool dealt the
    // first seed of the stream this fresh session draws from: same
    // dealer, same transcript — the logits must match bit for bit.
    let reference = common::build_session(args.backend);
    let ref_outcome = reference.infer(&x).expect("in-memory reference run");
    let ref_logits = ref_outcome.reconstruct(fp).expect("reference logits");
    let ref_prediction = ref_logits.argmax().unwrap_or(0);
    let identical = logits
        .as_slice()
        .iter()
        .zip(ref_logits.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if identical && prediction == ref_prediction {
        println!("[client] OK — TCP path is bit-identical to the in-memory path");
    } else {
        eprintln!(
            "[client] MISMATCH — tcp prediction {prediction} vs mem {ref_prediction}; \
             logits identical: {identical}"
        );
        std::process::exit(1);
    }
}
