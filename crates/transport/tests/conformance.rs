//! Transport conformance suite: every [`Channel`] implementation must
//! satisfy the same contract — intact in-order framed delivery, exact
//! traffic accounting, and clean peer-drop errors — so the MPC
//! protocols can stay transport-generic. Each scenario below runs
//! against all three shipped implementations ([`MemChannel`],
//! [`SimChannel`], [`TcpChannel`]).
//!
//! Also here: the consistency check between [`NetModel`]'s analytic
//! latency estimate and [`SimChannel`]'s measured in-line delays, and
//! the property tests of the TCP read path: [`encode_frame`] sequences
//! written to a raw loopback stream in random chunks and read back with
//! [`TcpChannel`].

use c2pi_transport::{
    channel_pair, encode_frame, tcp_loopback_pair, Channel, NetModel, Side, SimChannel, TcpChannel,
    TrafficCounter, TransportError, MAX_FRAME_BYTES,
};
use proptest::prelude::*;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Pair = (Box<dyn Channel>, Box<dyn Channel>, TrafficCounter);
type Implementations = Vec<(&'static str, fn() -> Pair)>;

/// A fast simulated model so the suite stays quick: 2 ms RTT, near
/// infinite bandwidth.
fn sim_model() -> NetModel {
    NetModel::custom("fast", 1e12, 2e-3)
}

/// The three shipped implementations under one factory signature.
fn implementations() -> Implementations {
    vec![
        ("mem", || {
            let (c, s, counter) = channel_pair();
            (Box::new(c) as Box<dyn Channel>, Box::new(s), counter)
        }),
        ("sim", || {
            let (c, s, counter) = channel_pair();
            (
                Box::new(SimChannel::new(c, sim_model())) as Box<dyn Channel>,
                Box::new(SimChannel::new(s, sim_model())),
                counter,
            )
        }),
        ("tcp", || {
            let (c, s, counter) = tcp_loopback_pair().expect("loopback pair");
            (Box::new(c) as Box<dyn Channel>, Box::new(s), counter)
        }),
    ]
}

#[test]
fn round_trip_typed_frames_both_directions() {
    for (name, make) in implementations() {
        let (c, s, _) = make();
        c.send_bytes(b"hello").unwrap();
        assert_eq!(s.recv_bytes().unwrap(), b"hello", "{name}");
        s.send_u64s(&[0, 1, u64::MAX]).unwrap();
        assert_eq!(c.recv_u64s().unwrap(), vec![0, 1, u64::MAX], "{name}");
        s.send_bytes(&[]).unwrap();
        assert_eq!(c.recv_bytes().unwrap(), Vec::<u8>::new(), "{name}: empty frame");
    }
}

#[test]
fn capped_reads_refuse_one_byte_over_the_cap_and_admit_the_cap() {
    // TCP refuses the length prefix and leaves the payload unread, so
    // the stream is mid-frame afterwards: every check runs on a fresh
    // pair.
    for (name, make) in implementations() {
        let (c, s, _) = make();
        c.send_bytes(&[7; 7]).unwrap();
        let over = s.recv_bytes_capped(6);
        assert!(matches!(over, Err(TransportError::Decode(_))), "{name}: {over:?}");
        let (c, s, _) = make();
        s.send_u64s(&[1, 2, 3]).unwrap();
        let over = c.recv_u64s_capped(2);
        assert!(matches!(over, Err(TransportError::Decode(_))), "{name}: {over:?}");
        let (c, s, _) = make();
        c.send_bytes(b"sixby!").unwrap();
        assert_eq!(s.recv_bytes_capped(6).unwrap(), b"sixby!", "{name}");
        s.send_u64s(&[4, 5]).unwrap();
        assert_eq!(c.recv_u64s_capped(2).unwrap(), [4, 5], "{name}");
    }
}

#[test]
fn frames_arrive_in_send_order() {
    for (name, make) in implementations() {
        let (c, s, _) = make();
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(s.recv_u64s().unwrap()[0]);
            }
            got
        });
        for i in 0..100u64 {
            c.send_u64s(&[i]).unwrap();
        }
        let got = t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u64>>(), "{name}");
    }
}

#[test]
fn large_frames_survive_intact() {
    for (name, make) in implementations() {
        let (c, s, counter) = make();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let big_clone = big.clone();
        let t = std::thread::spawn(move || s.recv_bytes().unwrap());
        c.send_bytes(&big_clone).unwrap();
        assert_eq!(t.join().unwrap(), big, "{name}");
        assert_eq!(counter.snapshot().bytes_client_to_server, 1_000_000, "{name}");
    }
}

#[test]
fn traffic_accounting_is_exact_and_shared() {
    for (name, make) in implementations() {
        let (c, s, counter) = make();
        c.send_bytes(&[0u8; 64]).unwrap();
        s.recv_bytes().unwrap();
        s.send_bytes(&[0u8; 32]).unwrap();
        c.recv_bytes().unwrap();
        let snap = counter.snapshot();
        assert_eq!(snap.bytes_client_to_server, 64, "{name}");
        assert_eq!(snap.bytes_server_to_client, 32, "{name}");
        assert_eq!(snap.messages, 2, "{name}");
        assert_eq!(snap.flights, 2, "{name}");
        // The channel's own handle reads the same counters.
        assert_eq!(c.counter().snapshot(), snap, "{name}");
    }
}

#[test]
fn dropped_peer_errors_on_recv() {
    for (name, make) in implementations() {
        let (c, s, _) = make();
        drop(s);
        assert_eq!(c.recv_bytes().unwrap_err(), TransportError::Disconnected, "{name}");
    }
}

#[test]
fn a_protocol_round_runs_on_every_transport() {
    for (name, make) in implementations() {
        let (c, s, counter) = make();
        let t = std::thread::spawn(move || {
            let v = s.recv_u64s().unwrap();
            let doubled: Vec<u64> = v.iter().map(|x| x.wrapping_mul(2)).collect();
            s.send_u64s(&doubled).unwrap();
        });
        c.send_u64s(&[3, 5]).unwrap();
        assert_eq!(c.recv_u64s().unwrap(), vec![6, 10], "{name}");
        t.join().unwrap();
        assert_eq!(counter.snapshot().round_trips(), 1, "{name}");
    }
}

#[test]
fn sim_channel_wall_clock_matches_netmodel_estimate() {
    // Run a ping-pong protocol over SimChannel and check the measured
    // wall clock against NetModel::latency_seconds for the same traffic
    // profile — the in-line simulation and the analytic estimate are two
    // views of one cost model.
    let model = NetModel::custom("consistency", 1e8, 20e-3);
    let (c, s, counter) = channel_pair();
    let c = SimChannel::new(c, model.clone());
    let s = SimChannel::new(s, model.clone());
    let payload = vec![0u8; 100_000];
    let rounds = 4;
    let t = std::thread::spawn(move || {
        for _ in 0..rounds {
            let v = s.recv_bytes().unwrap();
            s.send_bytes(&v).unwrap();
        }
    });
    let start = Instant::now();
    for _ in 0..rounds {
        c.send_bytes(&payload).unwrap();
        c.recv_bytes().unwrap();
    }
    let measured = start.elapsed().as_secs_f64();
    t.join().unwrap();
    let estimate = model.latency_seconds(&counter.snapshot(), 0.0);
    // 8 flights × 10 ms + 800 KB / 100 MBps = 88 ms estimated. Sleeps
    // only overshoot, so the measurement brackets the estimate from
    // above; the ceiling is generous because scheduler pressure on
    // shared CI runners stretches every sleep.
    assert!(
        measured >= 0.9 * estimate,
        "measured {measured:.4}s under the {estimate:.4}s estimate"
    );
    assert!(
        measured <= 5.0 * estimate,
        "measured {measured:.4}s far above the {estimate:.4}s estimate"
    );
}

/// A raw loopback stream to write bytes on, and the [`TcpChannel`]
/// that reads them — the read path every TCP deployment runs.
fn raw_writer_and_reader() -> (TcpStream, TcpChannel) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    writer.set_nodelay(true).unwrap();
    let (stream, _) = listener.accept().unwrap();
    let reader = TcpChannel::from_stream(stream, Side::Server).unwrap();
    // A read path that waits for bytes that never come fails, not hangs.
    reader.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (writer, reader)
}

/// Writes `bytes` from a thread in pieces of the `sizes` (cycled), each
/// flushed on its own, then closes the stream.
fn write_in_chunks(mut writer: TcpStream, bytes: Vec<u8>, sizes: Vec<usize>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut rest = &bytes[..];
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(size.min(rest.len()));
            writer.write_all(piece).unwrap();
            writer.flush().unwrap();
            rest = tail;
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frames_written_in_random_chunks_arrive_intact_and_in_order(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 1..8),
        sizes in proptest::collection::vec(1usize..97, 1..16),
    ) {
        let (writer, reader) = raw_writer_and_reader();
        let mut bytes = Vec::new();
        for frame in &frames {
            let encoded = encode_frame(frame).unwrap();
            prop_assert_eq!(encoded.len(), frame.len() + 4);
            bytes.extend_from_slice(&encoded);
        }
        let t = write_in_chunks(writer, bytes, sizes);
        for frame in &frames {
            prop_assert_eq!(&reader.recv_bytes().unwrap(), frame);
        }
        t.join().unwrap();
        // Every byte was one of the frames: the close is all that is left.
        prop_assert_eq!(reader.recv_bytes(), Err(TransportError::Disconnected));
    }

    #[test]
    fn a_truncated_tail_then_close_is_disconnected_never_a_short_frame(
        first in proptest::collection::vec(any::<u8>(), 0..256),
        tail in proptest::collection::vec(any::<u8>(), 1..512),
        cut in 0usize..515,
        sizes in proptest::collection::vec(1usize..97, 1..16),
    ) {
        let (writer, reader) = raw_writer_and_reader();
        let mut bytes = encode_frame(&first).unwrap();
        let truncated = encode_frame(&tail).unwrap();
        // Any strict prefix of the second frame, its length prefix too.
        bytes.extend_from_slice(&truncated[..cut.min(truncated.len() - 1)]);
        let t = write_in_chunks(writer, bytes, sizes);
        prop_assert_eq!(reader.recv_bytes().unwrap(), first);
        prop_assert_eq!(reader.recv_bytes(), Err(TransportError::Disconnected));
        t.join().unwrap();
    }

    #[test]
    fn an_oversized_prefix_is_a_decode_error(
        excess in 1u64..(u32::MAX as u64 - MAX_FRAME_BYTES as u64 + 1),
    ) {
        let (mut writer, reader) = raw_writer_and_reader();
        let len = (MAX_FRAME_BYTES as u64 + excess) as u32;
        writer.write_all(&len.to_le_bytes()).unwrap();
        // No payload follows: the prefix alone is refused.
        prop_assert!(matches!(reader.recv_bytes(), Err(TransportError::Decode(_))));
    }
}
