//! Poller wake latency vs parked-connection count, measured on the
//! readiness backend the build compiled in — on Linux, the O(ready)
//! claim behind epoll.
//!
//! Every row parks `C ∈ {64, 512, 4096}` established loopback
//! connections on one [`Poller`], then times [`WAKES_PER_RUN`]
//! write-one-byte → wait-returns-the-event round trips (draining the
//! byte after each wake so level-triggered readiness clears). All the
//! parked sockets stay silent: exactly one source is ready per wake,
//! so the row isolates what a wakeup costs as a function of *registered*
//! sources, not ready ones.
//!
//! Expected shape: `epoll_wait` returns only the ready descriptor, so
//! its wake latency is flat in C (O(ready)); the peek backend of a
//! non-Linux build re-scans every registered socket per tick, so its
//! wake latency grows linearly with C (~60× from 64 to 4096). The
//! printed summary states the curve and the measured 4096-vs-64 ratio,
//! and the bench is its own guard: on an event-driven backend it
//! asserts the ratio stays within [`MAX_EVENT_DRIVEN_RATIO`] (flat
//! modulo noise), so a regression back to O(registered) wakeups fails
//! the run. A scanning backend's ratio is printed, not asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polling::{Backend, Event, Poller};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Parked-connection counts per row. 4096 pairs ≈ 8k fds — well under
/// the CI runner's descriptor budget.
const PARKED: [usize; 3] = [64, 512, 4096];
/// Wakes timed per measured run; the mean smooths per-wake jitter at
/// the microsecond scale epoll operates on.
const WAKES_PER_RUN: usize = 64;
/// Ceiling on an event-driven backend's 4096-vs-64 wake-latency ratio:
/// `epoll_wait` returns only the ready descriptor, so the curve is flat
/// (measured ~0.95) however many sockets are parked.
const MAX_EVENT_DRIVEN_RATIO: f64 = 2.0;

/// Mean of the recorded runs, skipping the shim's warm-up run, so the
/// printed ratios agree with the rows the harness prints.
fn warm_mean(runs: &[f64]) -> Option<f64> {
    let measured = if runs.len() > 1 { &runs[1..] } else { runs };
    if measured.is_empty() {
        return None;
    }
    Some(measured.iter().sum::<f64>() / measured.len() as f64)
}

/// `count` established loopback connections parked on one poller: the
/// accepted side is registered (keys `0..count`), the connecting side
/// is the bench's write handle for triggering a wake.
struct ParkRig {
    poller: Poller,
    /// Registered (server-side) streams, indexed by key — read here to
    /// clear level-triggered readiness after a wake.
    parked: Vec<TcpStream>,
    /// Peer (client-side) streams, indexed by key — write here to make
    /// exactly one source ready.
    peers: Vec<TcpStream>,
}

impl ParkRig {
    fn new(count: usize) -> ParkRig {
        let poller = Poller::new().expect("construct poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind rig listener");
        let addr = listener.local_addr().unwrap();
        let mut parked = Vec::with_capacity(count);
        let mut peers = Vec::with_capacity(count);
        for key in 0..count {
            // Connect/accept in lockstep so the listener backlog never
            // overflows, whatever its depth.
            let peer = TcpStream::connect(addr).expect("connect rig peer");
            let (stream, _) = listener.accept().expect("accept rig peer");
            poller.add(&stream, key).expect("register parked stream");
            parked.push(stream);
            peers.push(peer);
        }
        ParkRig { poller, parked, peers }
    }

    /// Times `wakes` single-ready-source round trips: write one byte
    /// on a rotating peer, wait until the poller reports that key,
    /// drain the byte. Returns the summed wait-side latency.
    fn measure(&self, wakes: usize) -> Duration {
        let mut events: Vec<Event> = Vec::new();
        let mut total = Duration::ZERO;
        let count = self.peers.len();
        for wake in 0..wakes {
            // A fixed stride coprime to every PARKED count, so the
            // ready key moves around the registration table.
            let key = (wake * 61 + 7) % count;
            let start = Instant::now();
            (&self.peers[key]).write_all(&[0x5a]).expect("peer write");
            loop {
                events.clear();
                let result = self
                    .poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .expect("poller wait");
                if events.iter().any(|e| e.key == key && e.readable) {
                    break;
                }
                assert!(!result.timed_out(), "wake for key {key} never surfaced");
            }
            total += start.elapsed();
            let mut byte = [0u8; 1];
            (&self.parked[key]).read_exact(&mut byte).expect("drain wake byte");
        }
        total
    }
}

fn bench_poller_scale(c: &mut Criterion) {
    let name = Backend::NAME;
    let mut group = c.benchmark_group("poller_scale");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    // (parked count, mean run duration in seconds) per row.
    let mut means: Vec<(usize, f64)> = Vec::new();
    for &parked in &PARKED {
        let rig = ParkRig::new(parked);
        let mut local = Vec::new();
        group.bench_with_input(
            BenchmarkId::new(format!("wake/{name}"), parked),
            &parked,
            |b, _| {
                b.iter_custom(|_| {
                    let d = rig.measure(WAKES_PER_RUN);
                    local.push(d.as_secs_f64());
                    d
                })
            },
        );
        assert_eq!(rig.poller.len(), parked, "no registrations may drop mid-row");
        if let Some(mean) = warm_mean(&local) {
            means.push((parked, mean));
        }
    }
    group.finish();
    let at = |count: usize| means.iter().find(|(c, _)| *c == count).map(|&(_, mean)| mean);
    // 4096-parked vs 64-parked wake-latency ratio, when both rows ran.
    let ratio = at(4096).zip(at(64)).map(|(t4096, t64)| t4096 / t64);

    println!("\n  wake latency vs parked connections (mean per wake):");
    let cols: Vec<String> = means
        .iter()
        .map(|(parked, mean)| format!("{parked}: {:.1}us", mean / WAKES_PER_RUN as f64 * 1e6))
        .collect();
    let shape = match ratio {
        Some(r) => format!("4096v64 ratio {r:.2}x"),
        None => "ratio unavailable".to_string(),
    };
    println!("    {name:<6} {} — {shape}", cols.join("  "));
    println!(
        "    (epoll is O(ready): flat in parked count; peek re-scans every \
         registered socket, so it degrades linearly)"
    );
    if let Some(ratio) = ratio.filter(|_| Backend::EVENT_DRIVEN) {
        assert!(
            ratio <= MAX_EVENT_DRIVEN_RATIO,
            "{name} wake latency grew {ratio:.2}x from 64 to 4096 parked connections \
             (ceiling {MAX_EVENT_DRIVEN_RATIO}x): per-wake work scales with registrations"
        );
    }
}

criterion_group!(benches, bench_poller_scale);
criterion_main!(benches);
