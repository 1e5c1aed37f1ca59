//! The reactor's request/reply envelope: the one exchange it puts in
//! front of the dealt contract, and the only place its bytes are
//! produced or parsed.
//!
//! Framing is the transport's usual 4-byte little-endian length prefix;
//! these are the frame bodies. The client speaks first:
//!
//! ```text
//! client → server   REQ   = "C2PQ" ‖ version(u8) ‖ kind(u8: 1=infer, 2=stats)
//! server → client   OK    = [1]            a run of one: the dealt contract
//!                                          follows (DealtSeed frame, protocol,
//!                                          revealed server share)
//!                   OK    = [1] ‖ batch(u16 LE ≥ 2)
//!                                          same contract; `batch` members
//!                                          share the fused run
//!                   BUSY  = [2] ‖ retry_ms(u32 LE) ‖ draining(u8: 0/1)
//!                   STATS = [3] ‖ Prometheus-style UTF-8 text
//! ```
//!
//! Every value has exactly one encoding and `decode` accepts nothing
//! else, so `decode(bytes)` either fails with a typed error or returns
//! a value that re-encodes to `bytes` — the property the proptest below
//! drives over arbitrary input.

use crate::{C2piError, Result};

/// Request-frame magic: "C2PI request", version-gated.
const REQ_MAGIC: [u8; 4] = *b"C2PQ";
/// Wire-protocol version of the envelope. Version 2 added the
/// batch-capable `OK` form.
const PROTO_VERSION: u8 = 2;
const KIND_INFER: u8 = 1;
const KIND_STATS: u8 = 2;
const TAG_OK: u8 = 1;
const TAG_BUSY: u8 = 2;
const TAG_STATS: u8 = 3;

fn malformed(what: &str, frame: &[u8]) -> C2piError {
    C2piError::BadConfig(format!(
        "malformed reactor {what} ({} bytes, first {:?})",
        frame.len(),
        frame.first()
    ))
}

/// What a client asks of a [`super::ReactorServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Run one online inference.
    Infer,
    /// Return the metrics exposition.
    Stats,
}

impl Request {
    /// Length of every `REQ` frame body — what the server caps its
    /// first read of an unauthenticated connection at.
    pub const ENCODED_LEN: usize = 6;

    /// The `REQ` frame body.
    pub fn encode(self) -> [u8; Self::ENCODED_LEN] {
        let kind = match self {
            Request::Infer => KIND_INFER,
            Request::Stats => KIND_STATS,
        };
        [REQ_MAGIC[0], REQ_MAGIC[1], REQ_MAGIC[2], REQ_MAGIC[3], PROTO_VERSION, kind]
    }

    /// Parses a `REQ` frame body.
    ///
    /// # Errors
    ///
    /// [`C2piError::BadConfig`] for a wrong length, magic, version or
    /// kind.
    pub fn decode(frame: &[u8]) -> Result<Request> {
        match frame {
            [m0, m1, m2, m3, PROTO_VERSION, kind] if [*m0, *m1, *m2, *m3] == REQ_MAGIC => {
                match *kind {
                    KIND_INFER => Ok(Request::Infer),
                    KIND_STATS => Ok(Request::Stats),
                    _ => Err(malformed("request", frame)),
                }
            }
            _ => Err(malformed("request", frame)),
        }
    }
}

/// What a [`super::ReactorServer`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Admitted: the dealt contract follows on this connection.
    Ok {
        /// How many members share the protocol run (≥ 1).
        batch: u16,
    },
    /// Shed with typed backpressure.
    Busy {
        /// Suggested backoff before retrying, in milliseconds.
        retry_ms: u32,
        /// Whether the server is draining (retrying it is pointless).
        draining: bool,
    },
    /// The metrics exposition.
    Stats(String),
}

impl Reply {
    /// The reply frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Ok { batch: 1 } => vec![TAG_OK],
            Reply::Ok { batch } => {
                let size = batch.to_le_bytes();
                vec![TAG_OK, size[0], size[1]]
            }
            Reply::Busy { retry_ms, draining } => {
                let ms = retry_ms.to_le_bytes();
                vec![TAG_BUSY, ms[0], ms[1], ms[2], ms[3], u8::from(*draining)]
            }
            Reply::Stats(text) => {
                let mut frame = Vec::with_capacity(1 + text.len());
                frame.push(TAG_STATS);
                frame.extend_from_slice(text.as_bytes());
                frame
            }
        }
    }

    /// Parses a reply frame body.
    ///
    /// # Errors
    ///
    /// [`C2piError::BadConfig`] for an unknown tag, a wrong length, a
    /// run of zero, a run of one in the long form, a draining flag
    /// other than 0/1, or stats text that is not UTF-8.
    pub fn decode(frame: &[u8]) -> Result<Reply> {
        match frame {
            [TAG_OK] => Ok(Reply::Ok { batch: 1 }),
            [TAG_OK, lo, hi] => match u16::from_le_bytes([*lo, *hi]) {
                0 | 1 => Err(malformed("OK reply", frame)),
                batch => Ok(Reply::Ok { batch }),
            },
            [TAG_BUSY, a, b, c, d, draining @ (0 | 1)] => Ok(Reply::Busy {
                retry_ms: u32::from_le_bytes([*a, *b, *c, *d]),
                draining: *draining == 1,
            }),
            [TAG_STATS, text @ ..] => match std::str::from_utf8(text) {
                Ok(text) => Ok(Reply::Stats(text.to_owned())),
                Err(_) => Err(malformed("STATS reply", frame)),
            },
            _ => Err(malformed("reply", frame)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_variant_round_trips_and_keeps_its_wire_bytes() {
        for req in [Request::Infer, Request::Stats] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        assert_eq!(Request::Infer.encode(), *b"C2PQ\x02\x01");
        assert_eq!(Request::Stats.encode(), *b"C2PQ\x02\x02");
        for reply in [
            Reply::Ok { batch: 1 },
            Reply::Ok { batch: 2 },
            Reply::Ok { batch: u16::MAX },
            Reply::Busy { retry_ms: 0, draining: false },
            Reply::Busy { retry_ms: 50, draining: true },
            Reply::Busy { retry_ms: u32::MAX, draining: false },
            Reply::Stats(String::new()),
            Reply::Stats("c2pi_served_total 1\n".into()),
        ] {
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
        }
        // A run of one announces itself with the 1-byte OK, a fused run
        // with OK ‖ u16; BUSY is 6 bytes.
        assert_eq!(Reply::Ok { batch: 1 }.encode(), [1]);
        assert_eq!(Reply::Ok { batch: 4 }.encode(), [1, 4, 0]);
        assert_eq!(Reply::Busy { retry_ms: 50, draining: true }.encode(), [2, 50, 0, 0, 0, 1]);
        assert_eq!(Reply::Stats("x".into()).encode(), [3, b'x']);
    }

    #[test]
    fn decode_rejects_what_encode_never_produces() {
        for frame in [
            &[][..],
            &[0],
            &[4],
            &[1, 0, 0],    // a run of zero
            &[1, 1, 0],    // a run of one in the long form
            &[1, 2],       // truncated batch field
            &[1, 2, 0, 0], // overlong
            &[2, 50, 0, 0, 0],
            &[2, 50, 0, 0, 0, 2], // draining flag must be 0/1
            &[2, 50, 0, 0, 0, 1, 0],
            &[3, 0xff, 0xfe], // not UTF-8
        ] {
            assert!(
                matches!(Reply::decode(frame), Err(C2piError::BadConfig(_))),
                "{frame:?} must not decode"
            );
        }
        for frame in [
            &b""[..],
            b"not a request",
            b"C2PQ\x02",
            b"C2PQ\x01\x01", // old version
            b"C2PX\x02\x01", // wrong magic
            b"C2PQ\x02\x03", // unknown kind
            b"C2PQ\x02\x01\x00",
        ] {
            assert!(
                matches!(Request::decode(frame), Err(C2piError::BadConfig(_))),
                "{frame:?} must not decode"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// Arbitrary bytes never panic either decoder, and whatever
        /// decodes re-encodes to exactly the bytes that came in. The
        /// first byte is drawn from a narrow range so the tagged arms
        /// are actually reached.
        #[test]
        fn decode_never_panics_and_only_yields_canonical_values(
            tag in 0u8..5,
            rest in proptest::collection::vec(any::<u8>(), 0..16),
            req_tail in proptest::collection::vec(0u8..4, 0..4),
        ) {
            let frame: Vec<u8> = std::iter::once(tag).chain(rest).take(16).collect();
            for frame in [&frame[..], &frame[1..]] {
                if let Ok(reply) = Reply::decode(frame) {
                    prop_assert_eq!(reply.encode(), frame);
                }
                if let Ok(req) = Request::decode(frame) {
                    prop_assert_eq!(&req.encode()[..], frame);
                }
            }
            // Near-miss requests: the right magic, arbitrary small tail.
            let near: Vec<u8> = REQ_MAGIC.iter().copied().chain(req_tail).collect();
            if let Ok(req) = Request::decode(&near) {
                prop_assert_eq!(&req.encode()[..], &near[..]);
            }
        }
    }
}
