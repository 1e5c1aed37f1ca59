//! The transport contract: the [`Channel`] trait plus the byte, message
//! and flight accounting every implementation shares.
//!
//! A [`Channel`] is one party's end of a blocking, framed, duplex
//! connection to its peer. The MPC protocols in `c2pi-mpc` and the PI
//! engine in `c2pi-pi` are generic over this trait — they never name a
//! concrete transport — so the same protocol code runs over an
//! in-memory pair ([`crate::MemChannel`]), an in-line simulated network
//! ([`crate::SimChannel`]) or a real TCP socket between two OS
//! processes ([`crate::TcpChannel`]).

use crate::{Result, TransportError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which end of a channel a party is — the MPC code names the parties
/// after the paper's roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The client (holds the inference input `x`).
    Client,
    /// The server (holds the model `M`).
    Server,
}

impl Side {
    /// The opposite side.
    pub fn peer(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }

    /// Sender tag packed into the flight-state word (see [`StatsInner`]).
    fn tag(self) -> u64 {
        match self {
            Side::Client => 1,
            Side::Server => 2,
        }
    }
}

/// Shared traffic counters. The flight accounting (direction changes)
/// lives in one packed atomic word — bits 0–1 hold the last sender
/// (0 = none yet, 1 = client, 2 = server) and the remaining bits the
/// flight count — so concurrent sends from both sides transition the
/// state atomically and can never miscount a direction change.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    bytes_client_to_server: AtomicU64,
    bytes_server_to_client: AtomicU64,
    messages: AtomicU64,
    /// `flights << 2 | last_sender_tag`.
    flight_state: AtomicU64,
}

impl StatsInner {
    /// Records one sent frame: byte and message counts plus one flight
    /// when the direction changed, in a single atomic state transition.
    pub(crate) fn record_send(&self, from: Side, bytes: u64) {
        let me = from.tag();
        let mut cur = self.flight_state.load(Ordering::SeqCst);
        loop {
            let last = cur & 0b11;
            let flights = cur >> 2;
            let next_flights = if last == me { flights } else { flights + 1 };
            let next = (next_flights << 2) | me;
            match self.flight_state.compare_exchange_weak(
                cur,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        match from {
            Side::Client => self.bytes_client_to_server.fetch_add(bytes, Ordering::SeqCst),
            Side::Server => self.bytes_server_to_client.fetch_add(bytes, Ordering::SeqCst),
        };
        self.messages.fetch_add(1, Ordering::SeqCst);
    }
}

/// Shared handle for reading the traffic profile of a channel (pair).
///
/// For the in-memory and loopback transports both ends share one
/// counter, so it reflects the whole conversation; a [`crate::TcpChannel`]
/// talking to a remote process counts sent frames in its own direction
/// and received frames in the peer's, which yields the same totals.
#[derive(Debug, Clone, Default)]
pub struct TrafficCounter {
    inner: Arc<StatsInner>,
}

/// A point-in-time copy of the traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    /// Bytes sent from client to server.
    pub bytes_client_to_server: u64,
    /// Bytes sent from server to client.
    pub bytes_server_to_client: u64,
    /// Total messages.
    pub messages: u64,
    /// Sequential message flights (two flights = one round trip).
    pub flights: u64,
}

impl TrafficSnapshot {
    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_client_to_server + self.bytes_server_to_client
    }

    /// Total traffic in megabytes (10⁶ bytes, as in the paper's tables).
    pub fn megabytes(&self) -> f64 {
        self.bytes_total() as f64 / 1e6
    }

    /// Full round trips implied by the flight count (rounded up).
    pub fn round_trips(&self) -> u64 {
        self.flights.div_ceil(2)
    }

    /// Component-wise difference (`self - earlier`), for measuring a
    /// protocol phase.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            bytes_client_to_server: self.bytes_client_to_server - earlier.bytes_client_to_server,
            bytes_server_to_client: self.bytes_server_to_client - earlier.bytes_server_to_client,
            messages: self.messages - earlier.messages,
            flights: self.flights - earlier.flights,
        }
    }

    /// Component-wise sum, for aggregating phases.
    pub fn plus(&self, other: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            bytes_client_to_server: self.bytes_client_to_server + other.bytes_client_to_server,
            bytes_server_to_client: self.bytes_server_to_client + other.bytes_server_to_client,
            messages: self.messages + other.messages,
            flights: self.flights + other.flights,
        }
    }
}

impl TrafficCounter {
    /// A fresh zeroed counter (channel constructors take or create one).
    pub fn new() -> Self {
        TrafficCounter::default()
    }

    pub(crate) fn record_send(&self, from: Side, bytes: u64) {
        self.inner.record_send(from, bytes);
    }

    /// Reads the current counters. The flight count and the last-sender
    /// state are read from one atomic word, so the snapshot can never
    /// observe a half-applied direction change.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let state = self.inner.flight_state.load(Ordering::SeqCst);
        TrafficSnapshot {
            bytes_client_to_server: self.inner.bytes_client_to_server.load(Ordering::SeqCst),
            bytes_server_to_client: self.inner.bytes_server_to_client.load(Ordering::SeqCst),
            messages: self.inner.messages.load(Ordering::SeqCst),
            flights: state >> 2,
        }
    }
}

/// One party's end of a blocking, framed, duplex transport.
///
/// Implementations provide the raw byte-frame operations plus identity
/// and accounting; the typed frame helpers (`u64`/`f32` sequences, the
/// wire format of every MPC message in the workspace) are provided
/// methods so all transports share one codec.
///
/// The contract every implementation upholds (exercised by the
/// conformance suite in `crates/transport/tests/conformance.rs`):
///
/// * frames arrive intact, in send order, with their exact length;
/// * `recv_bytes` blocks until a frame arrives or the peer is gone;
/// * a dropped/closed peer surfaces as [`TransportError::Disconnected`]
///   on receive (and on send where the transport can detect it);
/// * every delivered frame is charged to the shared [`TrafficCounter`].
pub trait Channel: Send + std::fmt::Debug {
    /// Which side this end belongs to.
    fn side(&self) -> Side;

    /// Sends a raw byte frame to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] when the peer is gone,
    /// or [`TransportError::Io`] for transport-level failures.
    fn send_bytes(&self, data: &[u8]) -> Result<()>;

    /// Receives the next byte frame from the peer (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] when the peer is gone,
    /// or [`TransportError::Io`] for transport-level failures.
    fn recv_bytes(&self) -> Result<Vec<u8>>;

    /// Handle to the traffic counters this channel charges.
    fn counter(&self) -> TrafficCounter;

    /// Sends a slice of `u64` ring elements as one little-endian frame.
    ///
    /// # Errors
    ///
    /// Same as [`Channel::send_bytes`].
    fn send_u64s(&self, values: &[u64]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(values.len() * 8);
        for &v in values {
            buf.put_u64_le(v);
        }
        self.send_bytes(&buf)
    }

    /// Receives a frame of `u64` ring elements.
    ///
    /// # Errors
    ///
    /// Returns a decode error when the frame length is not a multiple of
    /// 8, or the errors of [`Channel::recv_bytes`].
    fn recv_u64s(&self) -> Result<Vec<u64>> {
        let raw = self.recv_bytes()?;
        if raw.len() % 8 != 0 {
            return Err(TransportError::Decode(format!(
                "frame of {} bytes is not a u64 sequence",
                raw.len()
            )));
        }
        let mut buf = Bytes::from(raw);
        let mut out = Vec::with_capacity(buf.len() / 8);
        while buf.has_remaining() {
            out.push(buf.get_u64_le());
        }
        Ok(out)
    }

    /// Sends a slice of `f32` values as one little-endian frame.
    ///
    /// # Errors
    ///
    /// Same as [`Channel::send_bytes`].
    fn send_f32s(&self, values: &[f32]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(values.len() * 4);
        for &v in values {
            buf.put_f32_le(v);
        }
        self.send_bytes(&buf)
    }

    /// Receives a frame of `f32` values.
    ///
    /// # Errors
    ///
    /// Returns a decode error when the frame length is not a multiple of
    /// 4, or the errors of [`Channel::recv_bytes`].
    fn recv_f32s(&self) -> Result<Vec<f32>> {
        let raw = self.recv_bytes()?;
        if raw.len() % 4 != 0 {
            return Err(TransportError::Decode(format!(
                "frame of {} bytes is not an f32 sequence",
                raw.len()
            )));
        }
        let mut buf = Bytes::from(raw);
        let mut out = Vec::with_capacity(buf.len() / 4);
        while buf.has_remaining() {
            out.push(buf.get_f32_le());
        }
        Ok(out)
    }
}

impl<C: Channel + ?Sized> Channel for Box<C> {
    fn side(&self) -> Side {
        (**self).side()
    }

    fn send_bytes(&self, data: &[u8]) -> Result<()> {
        (**self).send_bytes(data)
    }

    fn recv_bytes(&self) -> Result<Vec<u8>> {
        (**self).recv_bytes()
    }

    fn counter(&self) -> TrafficCounter {
        (**self).counter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_peer_flips() {
        assert_eq!(Side::Client.peer(), Side::Server);
        assert_eq!(Side::Server.peer(), Side::Client);
    }

    #[test]
    fn concurrent_sends_never_miscount_flights() {
        // Both sides hammer the counter from separate threads. With the
        // packed state, every observed transition is a real direction
        // change, so the total flight count is at most the number of
        // sends and at least 1, and the final snapshot is consistent.
        let counter = TrafficCounter::new();
        let c1 = counter.clone();
        let c2 = counter.clone();
        let n = 1000;
        let t1 = std::thread::spawn(move || {
            for _ in 0..n {
                c1.record_send(Side::Client, 1);
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..n {
                c2.record_send(Side::Server, 1);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let snap = counter.snapshot();
        assert_eq!(snap.messages, 2 * n);
        assert_eq!(snap.bytes_total(), 2 * n);
        assert!(snap.flights >= 1 && snap.flights <= 2 * n, "flights {}", snap.flights);
    }

    #[test]
    fn snapshot_arithmetic() {
        let a = TrafficSnapshot {
            bytes_client_to_server: 10,
            bytes_server_to_client: 20,
            messages: 2,
            flights: 2,
        };
        let b = TrafficSnapshot {
            bytes_client_to_server: 1,
            bytes_server_to_client: 2,
            messages: 1,
            flights: 1,
        };
        assert_eq!(a.plus(&b).bytes_total(), 33);
        assert_eq!(a.since(&b).flights, 1);
        assert_eq!(a.round_trips(), 1);
    }
}
