//! In-memory channel pair: the zero-copy-ish transport used when both
//! parties run as threads of one process (sessions, tests, benches).

use crate::channel::{Channel, Side, TrafficCounter};
use crate::{Result, TransportError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// One end of a byte-counted in-memory duplex channel.
///
/// Created in connected pairs by [`channel_pair`]; both ends share one
/// [`TrafficCounter`]. Frames move through unbounded crossbeam queues,
/// so sends never block and receives block until the peer's next frame
/// (or [`TransportError::Disconnected`] once the peer is dropped).
#[derive(Debug)]
pub struct MemChannel {
    side: Side,
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    counter: TrafficCounter,
}

/// Creates a connected (client, server) [`MemChannel`] pair plus the
/// shared traffic counter.
pub fn channel_pair() -> (MemChannel, MemChannel, TrafficCounter) {
    let (tx_c2s, rx_c2s) = unbounded();
    let (tx_s2c, rx_s2c) = unbounded();
    let counter = TrafficCounter::new();
    let client =
        MemChannel { side: Side::Client, tx: tx_c2s, rx: rx_s2c, counter: counter.clone() };
    let server =
        MemChannel { side: Side::Server, tx: tx_s2c, rx: rx_c2s, counter: counter.clone() };
    (client, server, counter)
}

impl Channel for MemChannel {
    fn side(&self) -> Side {
        self.side
    }

    fn send_bytes(&self, data: &[u8]) -> Result<()> {
        self.counter.record_send(self.side, data.len() as u64);
        self.tx.send(Bytes::copy_from_slice(data)).map_err(|_| TransportError::Disconnected)
    }

    fn recv_bytes(&self) -> Result<Vec<u8>> {
        self.rx.recv().map(|b| b.to_vec()).map_err(|_| TransportError::Disconnected)
    }

    fn counter(&self) -> TrafficCounter {
        self.counter.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let (c, s, _) = channel_pair();
        c.send_bytes(b"hello").unwrap();
        assert_eq!(s.recv_bytes().unwrap(), b"hello");
        s.send_bytes(b"world").unwrap();
        assert_eq!(c.recv_bytes().unwrap(), b"world");
    }

    #[test]
    fn u64_frames_round_trip() {
        let (c, s, _) = channel_pair();
        c.send_u64s(&[1, u64::MAX, 42]).unwrap();
        assert_eq!(s.recv_u64s().unwrap(), vec![1, u64::MAX, 42]);
    }

    #[test]
    fn byte_counters_are_exact() {
        let (c, s, counter) = channel_pair();
        c.send_bytes(&[0u8; 100]).unwrap();
        s.recv_bytes().unwrap();
        s.send_bytes(&[0u8; 40]).unwrap();
        c.recv_bytes().unwrap();
        let snap = counter.snapshot();
        assert_eq!(snap.bytes_client_to_server, 100);
        assert_eq!(snap.bytes_server_to_client, 40);
        assert_eq!(snap.bytes_total(), 140);
        assert_eq!(snap.messages, 2);
    }

    #[test]
    fn flights_count_direction_changes() {
        let (c, s, counter) = channel_pair();
        // Client sends twice in a row: one flight.
        c.send_bytes(b"a").unwrap();
        c.send_bytes(b"b").unwrap();
        s.recv_bytes().unwrap();
        s.recv_bytes().unwrap();
        assert_eq!(counter.snapshot().flights, 1);
        // Server replies: second flight = one round trip.
        s.send_bytes(b"c").unwrap();
        c.recv_bytes().unwrap();
        let snap = counter.snapshot();
        assert_eq!(snap.flights, 2);
        assert_eq!(snap.round_trips(), 1);
    }

    #[test]
    fn snapshot_difference_isolates_a_phase() {
        let (c, s, counter) = channel_pair();
        c.send_bytes(&[0u8; 10]).unwrap();
        s.recv_bytes().unwrap();
        let mark = counter.snapshot();
        s.send_bytes(&[0u8; 30]).unwrap();
        c.recv_bytes().unwrap();
        let phase = counter.snapshot().since(&mark);
        assert_eq!(phase.bytes_total(), 30);
        assert_eq!(phase.flights, 1);
    }

    #[test]
    fn disconnected_peer_errors() {
        let (c, s, _) = channel_pair();
        drop(s);
        assert_eq!(c.send_bytes(b"x").unwrap_err(), TransportError::Disconnected);
        assert_eq!(c.recv_bytes().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn decode_rejects_ragged_frames() {
        let (c, s, _) = channel_pair();
        c.send_bytes(&[1, 2, 3]).unwrap();
        assert!(matches!(s.recv_u64s(), Err(TransportError::Decode(_))));
    }

    #[test]
    fn threads_can_run_a_protocol() {
        let (c, s, counter) = channel_pair();
        let t = std::thread::spawn(move || {
            // Server echoes incremented values.
            let v = s.recv_u64s().unwrap();
            let inc: Vec<u64> = v.iter().map(|x| x + 1).collect();
            s.send_u64s(&inc).unwrap();
        });
        c.send_u64s(&[10, 20]).unwrap();
        assert_eq!(c.recv_u64s().unwrap(), vec![11, 21]);
        t.join().unwrap();
        assert_eq!(counter.snapshot().round_trips(), 1);
    }

    #[test]
    fn boxed_channel_is_a_channel() {
        let (c, s, _) = channel_pair();
        let c: Box<dyn Channel> = Box::new(c);
        c.send_u64s(&[7]).unwrap();
        assert_eq!(s.recv_u64s().unwrap(), vec![7]);
        assert_eq!(c.side(), Side::Client);
    }
}
