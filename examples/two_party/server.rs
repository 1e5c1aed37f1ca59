//! Two-process demo, server side: holds the model, serves one private
//! inference over a framed TCP connection through the dealt contract
//! (`serve_one`: deal the seed, run the server party), then reveals its
//! share of the result to the client.
//!
//! ```text
//! cargo run --release --example two_party_server -- --backend cheetah --addr 127.0.0.1:7878
//! ```
//!
//! Run the matching `two_party_client` in a second terminal (or see the
//! CI smoke step in `.github/workflows/ci.yml`).

#[path = "common.rs"]
mod common;

use c2pi_suite::transport::{Channel, Side, TcpListenerTransport};

fn main() {
    let args = common::parse_args();
    let session = common::build_session(args.backend);
    // Bind first (port 0 gets an ephemeral port), *then* announce the
    // real address — supervisors wait for the line instead of sleeping
    // and hoping.
    let listener = TcpListenerTransport::bind(&args.addr[..]).expect("bind");
    println!(
        "[server] backend {} — listening on {} for one inference",
        session.backend_name(),
        listener.local_addr()
    );
    common::announce_listening(listener.local_addr());
    let ch = listener.accept(Side::Server).expect("accept");
    let outcome = session.serve_one(&ch).expect("server party run");
    // Full-PI reveal: the server sends its share; only the client learns
    // the prediction.
    ch.send_u64s(outcome.share.as_raw()).expect("reveal share");
    let traffic = ch.counter().snapshot();
    println!(
        "[server] done — {:.3} MB online traffic, {} round trips, {:.1} ms",
        traffic.megabytes(),
        traffic.round_trips(),
        outcome.report.online_seconds * 1e3,
    );
}
