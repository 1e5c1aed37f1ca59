//! The event-driven reactor's scale and fairness net, run on the
//! readiness backend the build compiled in (epoll on Linux, peek
//! elsewhere; `shims/polling`'s own suite covers both side by side).
//!
//! * **scale** — ≥512 truly concurrent connections against one reactor
//!   still produce the *exact* serve/shed split (stock serves, the rest
//!   shed with typed `BUSY`), the active gauge returns to zero, and the
//!   poll metrics show which backend carried the wave;
//! * **accept-storm fairness** — a client whose request is already
//!   parked gets served promptly even while a burst of fresh
//!   connections hammers the listener: accepts are bounded per wakeup
//!   and parked clients' events are dispatched before each accept
//!   batch.

use c2pi_core::reactor::{ReactorClient, ReactorConfig, ReactorReply, ReactorServer};
use c2pi_core::C2piError;
use c2pi_nn::layers::{Conv2d, Relu};
use c2pi_nn::Sequential;
use c2pi_pi::engine::{specs_of, PiConfig};
use c2pi_pi::{PiSession, SessionCore, SharedPiSession};
use c2pi_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_prefix() -> Sequential {
    let mut s = Sequential::new();
    s.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
    s.push(Relu::new());
    s
}

fn shared_session() -> SharedPiSession {
    PiSession::new(&specs_of(&tiny_prefix()), [1, 8, 8], PiConfig::default()).unwrap().into_shared()
}

fn server_core() -> Arc<SessionCore> {
    Arc::clone(shared_session().core())
}

/// The headline scale claim at 2× the in-module 256-client test: 512
/// concurrent connections split exactly into `STOCK` serves and
/// `512 - STOCK` typed sheds.
#[test]
fn reactor_sustains_512_concurrent_clients() {
    const CLIENTS: usize = 512;
    const STOCK: usize = 16;
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig {
            workers: 4,
            shards: 4,
            max_clients: 2 * CLIENTS,
            queue_depth: CLIENTS,
            pool_low: 0,
            pool_high: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let backend = server.metrics_snapshot().poll_backend;
    let addr = server.local_addr();
    server.preprocess(STOCK).unwrap();
    let session = shared_session();
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 11);
    let served = AtomicUsize::new(0);
    let busy = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let session = session.clone();
            let (served, busy, x) = (&served, &busy, &x);
            scope.spawn(move || {
                let client =
                    ReactorClient::new(session).with_connect_timeout(Duration::from_secs(120));
                match client.request(addr, x).unwrap() {
                    ReactorReply::Served(_) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    ReactorReply::Busy { draining, .. } => {
                        assert!(!draining, "[{backend}] live server claimed to drain");
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), STOCK, "[{backend}] exact serve count");
    assert_eq!(busy.load(Ordering::Relaxed), CLIENTS - STOCK, "[{backend}] exact shed count");

    // Server-side bookkeeping trails the last client reply by a
    // beat; settle before asserting counters and the gauge.
    let deadline = Instant::now() + Duration::from_secs(10);
    let expect_shed = (CLIENTS - STOCK) as u64;
    let mut snap = server.metrics_snapshot();
    while (snap.served < STOCK as u64 || snap.shed < expect_shed || snap.active > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
        snap = server.metrics_snapshot();
    }
    assert_eq!(snap.served, STOCK as u64, "[{backend}]");
    assert_eq!(snap.shed, expect_shed, "[{backend}]");
    assert_eq!(snap.errors, 0, "[{backend}] a full-capacity wave is not an error");
    assert_eq!(snap.active, 0, "[{backend}] no connection leaks after the wave");
    assert_eq!(snap.accepted, CLIENTS as u64, "[{backend}] every connection accepted");
    assert!(snap.poll_wakeups > 0, "[{backend}] the reactor woke at least once");
    assert!(
        snap.poll_events >= CLIENTS as u64,
        "[{backend}] every request frame arrived as a readiness event \
         (wakeups={} events={})",
        snap.poll_wakeups,
        snap.poll_events,
    );
    server.drain().unwrap();
}

/// Accept-storm fairness: a client already parked
/// when a 128-connection burst hits the listener is served within a
/// tight latency bound — the burst cannot starve it, because parked
/// clients' events are dispatched before each bounded accept batch.
#[test]
fn connect_burst_cannot_starve_a_parked_client() {
    const BURST: usize = 128;
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig {
            workers: 2,
            max_clients: 4 * BURST,
            queue_depth: BURST,
            pool_low: 0,
            pool_high: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let backend = server.metrics_snapshot().poll_backend;
    let addr = server.local_addr();
    server.preprocess(1).unwrap();
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 5);

    // Phase 1: connect the victim and let the reactor park it
    // (accepted counter moves) *before* its request is written.
    let victim = std::net::TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics_snapshot().accepted < 1 {
        assert!(Instant::now() < deadline, "[{backend}] victim never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Phase 2: the storm — BURST connections that never speak, so
    // they occupy the listener backlog and then the parked set.
    // Meanwhile the victim sends its request and must be served.
    let storm: Vec<std::net::TcpStream> =
        (0..BURST).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
    let start = Instant::now();
    let session = shared_session();
    let client = ReactorClient::new(session);
    let result = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                // Drive the dealt protocol over the already-parked
                // victim socket by hand: REQ, then the session run.
                use c2pi_transport::{Channel, Side, TcpChannel};
                let ch = TcpChannel::from_stream(victim, Side::Client).unwrap();
                ch.send_bytes(b"C2PQ\x02\x01").unwrap();
                let reply = ch.recv_bytes().unwrap();
                assert_eq!(reply, vec![1], "[{backend}] victim admitted solo");
                let outcome = client.session().request_one(&ch, &x).unwrap();
                let server_share = c2pi_mpc::share::ShareVec::from_raw(ch.recv_u64s().unwrap());
                let _ = c2pi_mpc::share::reconstruct(&outcome.share, &server_share);
                start.elapsed()
            })
            .join()
            .unwrap()
    });
    // Generous wall-clock bound (protocol included), but far below
    // what a starved victim would need: an unbounded accept loop
    // over 128 sockets plus their parking would push the victim's
    // dispatch behind the whole storm.
    assert!(
        result < Duration::from_secs(10),
        "[{backend}] parked victim served in {result:?} despite the burst"
    );
    drop(storm);
    server.drain().unwrap();
}

/// The reactor serves correct logits end to end through the
/// `ReactorClient` path and names its backend in the STATS exposition.
#[test]
fn served_results_are_correct_and_the_exposition_names_the_backend() {
    use c2pi_core::reactor::metrics::metric_value;
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 21);
    let plain = tiny_prefix().forward_eval(&x).unwrap();
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig { workers: 2, pool_low: 0, pool_high: 0, ..Default::default() },
    )
    .unwrap();
    server.preprocess(1).unwrap();
    let client = ReactorClient::new(shared_session());
    let got = client.infer(server.local_addr(), &x).unwrap();
    for (a, b) in got.logits.as_slice().iter().zip(plain.as_slice()) {
        assert!((a - b).abs() < 0.02, "{a} vs {b}");
    }
    let backend = server.metrics_snapshot().poll_backend;
    #[cfg(target_os = "linux")]
    assert_eq!(backend, "epoll", "a Linux build serves on the kernel multiplexer");
    let text = client.stats(server.local_addr()).unwrap();
    assert_eq!(
        metric_value(&text, &format!("c2pi_poll_backend{{backend=\"{backend}\"}}")),
        Some(1.0),
        "[{backend}] exposition names the active backend"
    );
    assert!(metric_value(&text, "c2pi_poll_wakeups_total").unwrap() >= 1.0);
    assert!(metric_value(&text, "c2pi_poll_events_total").unwrap() >= 1.0);
    // A served + a stats connection: at least two readiness events.
    server.drain().unwrap();
}

/// Draining with clients still parked sheds them with a typed
/// `draining` BUSY (the drain path walks the poller's parked set).
#[test]
fn drain_sheds_parked_clients_with_typed_busy() {
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig { workers: 1, pool_low: 0, pool_high: 0, ..Default::default() },
    )
    .unwrap();
    let backend = server.metrics_snapshot().poll_backend;
    let addr = server.local_addr();
    // Park a silent connection, then drain under it.
    let parked = std::net::TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics_snapshot().accepted < 1 {
        assert!(Instant::now() < deadline, "[{backend}] connection never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            use c2pi_transport::{Channel, Side, TcpChannel};
            let ch = TcpChannel::from_stream(parked, Side::Client).unwrap();
            ch.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            ch.recv_bytes().unwrap()
        });
        server.drain().unwrap();
        let frame = reader.join().unwrap();
        assert_eq!(frame[0], 2, "[{backend}] BUSY tag");
        assert_eq!(frame[5], 1, "[{backend}] draining flag set");
    });
    // And a retrying client maps that to Overloaded{draining}.
    let client = ReactorClient::new(shared_session());
    let x = Tensor::zeros(&[1, 1, 8, 8]);
    match client.infer(addr, &x) {
        Err(C2piError::Overloaded { .. }) | Err(_) => {}
        Ok(_) => panic!("[{backend}] drained server must not serve"),
    }
}
