//! In-line network simulation: a [`SimChannel`] wraps any [`Channel`]
//! and injects the bandwidth and propagation delays of a [`NetModel`]
//! *while the protocol runs*, instead of pricing the traffic
//! analytically after the fact.
//!
//! The delay schedule mirrors the first-order cost model of
//! [`NetModel::latency_seconds`]: every sent byte costs
//! `1 / bandwidth` seconds of serialization, and every *flight* (a send
//! that follows a receive — i.e. a direction change from this end's
//! perspective) costs one half round-trip of propagation. Because each
//! party sleeps before its own sends and a blocking protocol's critical
//! path alternates between the parties, the measured wall-clock of a
//! protocol run converges on the analytic estimate — which is exactly
//! what the consistency test in `tests/conformance.rs` asserts.

use crate::channel::{Channel, Side, TrafficCounter};
use crate::netmodel::NetModel;
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A [`Channel`] decorator that sleeps out the latency a [`NetModel`]
/// assigns to each frame before forwarding it to the wrapped channel.
///
/// Traffic accounting passes straight through to the inner channel's
/// counter, so snapshots are identical to an unwrapped run — only the
/// wall clock changes.
#[derive(Debug)]
pub struct SimChannel<C: Channel> {
    inner: C,
    model: NetModel,
    /// Whether this end's previous operation was a send. A send after a
    /// receive (or the very first send) opens a new flight and pays the
    /// propagation delay.
    mid_flight: AtomicBool,
}

impl<C: Channel> SimChannel<C> {
    /// Wraps `inner`, delaying traffic according to `model`.
    pub fn new(inner: C, model: NetModel) -> Self {
        SimChannel { inner, model, mid_flight: AtomicBool::new(false) }
    }

    /// The network model being simulated.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    fn sleep_secs(seconds: f64) {
        if seconds > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(seconds));
        }
    }
}

impl<C: Channel> Channel for SimChannel<C> {
    fn side(&self) -> Side {
        self.inner.side()
    }

    fn send_bytes(&self, data: &[u8]) -> Result<()> {
        if !self.mid_flight.swap(true, Ordering::SeqCst) {
            Self::sleep_secs(self.model.rtt_seconds / 2.0);
        }
        Self::sleep_secs(data.len() as f64 / self.model.bandwidth_bytes_per_sec);
        self.inner.send_bytes(data)
    }

    fn recv_bytes(&self) -> Result<Vec<u8>> {
        self.recv_bytes_capped(usize::MAX)
    }

    fn recv_bytes_capped(&self, cap: usize) -> Result<Vec<u8>> {
        let frame = self.inner.recv_bytes_capped(cap)?;
        self.mid_flight.store(false, Ordering::SeqCst);
        Ok(frame)
    }

    fn counter(&self) -> TrafficCounter {
        self.inner.counter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::channel_pair;
    use std::time::Instant;

    /// A fast model for tests: 10 ms RTT, effectively infinite bandwidth.
    fn fast_model() -> NetModel {
        NetModel::custom("test", 1e12, 10e-3)
    }

    #[test]
    fn frames_pass_through_unchanged() {
        let (c, s, counter) = channel_pair();
        let c = SimChannel::new(c, fast_model());
        let s = SimChannel::new(s, fast_model());
        c.send_u64s(&[1, 2, 3]).unwrap();
        assert_eq!(s.recv_u64s().unwrap(), vec![1, 2, 3]);
        s.send_bytes(b"ack").unwrap();
        assert_eq!(c.recv_bytes().unwrap(), b"ack");
        let snap = counter.snapshot();
        assert_eq!(snap.bytes_client_to_server, 24);
        assert_eq!(snap.bytes_server_to_client, 3);
        assert_eq!(snap.flights, 2);
    }

    #[test]
    fn each_flight_pays_half_rtt() {
        let (c, s, _) = channel_pair();
        let c = SimChannel::new(c, fast_model());
        let s = SimChannel::new(s, fast_model());
        let t = std::thread::spawn(move || {
            for _ in 0..3 {
                let v = s.recv_u64s().unwrap();
                s.send_u64s(&v).unwrap();
            }
        });
        let start = Instant::now();
        for _ in 0..3 {
            c.send_u64s(&[9]).unwrap();
            c.recv_u64s().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        t.join().unwrap();
        // 3 round trips = 6 flights × 5 ms = 30 ms minimum.
        assert!(elapsed >= 0.030, "elapsed {elapsed}");
    }

    #[test]
    fn back_to_back_sends_share_one_flight_delay() {
        let (c, s, _) = channel_pair();
        let c = SimChannel::new(c, fast_model());
        let start = Instant::now();
        for _ in 0..10 {
            c.send_bytes(b"x").unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        // One flight opened: ~5 ms, not 50 ms.
        assert!(elapsed < 0.040, "elapsed {elapsed}");
        drop(s);
    }
}
