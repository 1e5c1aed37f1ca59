//! The client end: speaks the [`super::envelope`] exchange, then the
//! dealt contract, and rides out typed backpressure.

use super::envelope::{Reply, Request};
use super::pi_err;
#[cfg(doc)]
use super::ReactorServer;
use crate::{C2piError, Result};
use c2pi_pi::{PartyOutcome, PiSession};
use c2pi_tensor::Tensor;
use c2pi_transport::{Channel, Side, TcpChannel};
use std::net::ToSocketAddrs;
use std::time::Duration;

/// Result of one served [`ReactorClient`] request: the reconstructed
/// logits of the crypto prefix, the argmax prediction, and the client
/// party's cost report.
#[derive(Debug, Clone)]
pub struct ClientInference {
    /// Reconstructed boundary activation (the logits under full PI).
    pub logits: Tensor,
    /// `argmax` of the logits.
    pub prediction: usize,
    /// How many clients shared the fused protocol run that served this
    /// inference, as reported by the server's `OK` frame: `1` unless
    /// the [`ReactorServer`] coalesced it with concurrent requests.
    pub batch: usize,
    /// The client party's outcome (share, dims, report).
    pub outcome: PartyOutcome,
}

/// One reply from a [`ReactorServer`] to an inference request.
#[derive(Debug)]
pub enum ReactorReply {
    /// The inference ran; the reconstructed result.
    Served(Box<ClientInference>),
    /// The server shed the request with a typed backpressure frame.
    Busy {
        /// The server's suggested backoff before retrying.
        retry_after: Duration,
        /// Whether the server is draining (retries against it are
        /// pointless; target another replica).
        draining: bool,
    },
}

/// Client for a [`ReactorServer`]: speaks the REQ/OK/BUSY/STATS
/// envelope, then the dealt contract. Must wrap a session compiled from
/// **identical** specs and config as the server's (only the
/// per-inference seed travels on the wire). Cloneable and `&self`
/// throughout — one client can drive many threads of concurrent
/// requests.
#[derive(Debug, Clone)]
pub struct ReactorClient {
    session: PiSession,
    connect_timeout: Duration,
    retries: usize,
}

impl ReactorClient {
    /// Wraps a session compiled identically to the server's.
    pub fn new(session: PiSession) -> Self {
        ReactorClient { session, connect_timeout: Duration::from_secs(10), retries: 8 }
    }

    /// How long [`ReactorClient::request`] keeps retrying the TCP
    /// connect (covers server processes still racing to bind).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// How many `BUSY` replies [`ReactorClient::infer`] absorbs
    /// (sleeping the server-suggested backoff between attempts) before
    /// giving up with [`C2piError::Overloaded`]. Zero disables retries.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// The wrapped session.
    pub fn session(&self) -> &PiSession {
        &self.session
    }

    /// One request, no retries: connect, send REQ, and either run the
    /// dealt contract to a reconstructed result or report the server's
    /// backpressure verbatim.
    ///
    /// # Errors
    ///
    /// Transport errors, protocol-envelope violations, and the engine
    /// errors of the client party. A `BUSY` reply is **not** an error
    /// here — it returns [`ReactorReply::Busy`].
    pub fn request(&self, addr: impl ToSocketAddrs + Clone, x: &Tensor) -> Result<ReactorReply> {
        let ch =
            TcpChannel::connect_retry(addr, Side::Client, self.connect_timeout).map_err(pi_err)?;
        ch.send_bytes(&Request::Infer.encode()).map_err(pi_err)?;
        match Reply::decode(&ch.recv_bytes_capped(Reply::MAX_INFER_LEN).map_err(pi_err)?)? {
            // The dealt contract after the frame is the same whatever
            // the run's size — sharing a run never changes any member's
            // wire content.
            Reply::Ok { batch } => {
                let outcome = self.session.request_one(&ch, x).map_err(C2piError::Pi)?;
                let server_share =
                    c2pi_mpc::share::ShareVec::from_raw(ch.recv_u64s().map_err(pi_err)?);
                let raw = c2pi_mpc::share::reconstruct(&outcome.share, &server_share);
                let fp = self.session.config().fixed;
                let logits = fp.decode_tensor(&raw, &outcome.dims).map_err(C2piError::Tensor)?;
                let prediction = logits.argmax().unwrap_or(0);
                Ok(ReactorReply::Served(Box::new(ClientInference {
                    logits,
                    prediction,
                    batch: usize::from(batch),
                    outcome,
                })))
            }
            Reply::Busy { retry_ms, draining } => Ok(ReactorReply::Busy {
                retry_after: Duration::from_millis(u64::from(retry_ms)),
                draining,
            }),
            Reply::Stats(_) => {
                Err(C2piError::BadConfig("STATS reply to an inference request".into()))
            }
        }
    }

    /// One private inference with backpressure handling: on `BUSY`,
    /// sleeps the server-suggested backoff and retries up to the
    /// configured budget; a draining server short-circuits the loop.
    ///
    /// # Errors
    ///
    /// [`C2piError::Overloaded`] when every attempt was shed; otherwise
    /// as [`ReactorClient::request`].
    pub fn infer(&self, addr: impl ToSocketAddrs + Clone, x: &Tensor) -> Result<ClientInference> {
        let mut last_busy = None;
        for attempt in 0..=self.retries {
            match self.request(addr.clone(), x)? {
                ReactorReply::Served(result) => return Ok(*result),
                ReactorReply::Busy { retry_after, draining } => {
                    last_busy = Some((retry_after, draining));
                    if draining {
                        break;
                    }
                    if attempt < self.retries {
                        std::thread::sleep(retry_after);
                    }
                }
            }
        }
        let (retry_after, draining) =
            last_busy.expect("loop ran at least once and every arm either returned or set it");
        Err(C2piError::Overloaded { retry_after, draining })
    }

    /// Fetches the server's Prometheus-style metrics exposition.
    ///
    /// # Errors
    ///
    /// Transport errors, or a malformed reply.
    pub fn stats(&self, addr: impl ToSocketAddrs + Clone) -> Result<String> {
        let ch =
            TcpChannel::connect_retry(addr, Side::Client, self.connect_timeout).map_err(pi_err)?;
        ch.send_bytes(&Request::Stats.encode()).map_err(pi_err)?;
        match Reply::decode(&ch.recv_bytes_capped(Reply::MAX_STATS_LEN).map_err(pi_err)?)? {
            Reply::Stats(text) => Ok(text),
            _ => Err(C2piError::BadConfig("unexpected reply to a STATS request".into())),
        }
    }
}
