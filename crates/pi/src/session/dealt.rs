//! The dealt two-party contract: the server's pool decides which
//! material a connection gets and *deals* its compact seed to the client
//! as the first frame, so genuinely separate processes need share only
//! specs and configuration. [`PiSession::serve_one`] /
//! [`PiSession::request_one`] are the two ends;
//! [`SessionCore::serve_prepared`] is the server end over material the
//! caller took itself, for one member or many.

use super::walk::{client_walk, server_walk};
use super::PiSession;
use crate::pool::{InferenceMaterial, SessionCore};
use crate::report::PiReport;
use crate::{PiError, Result};
use c2pi_mpc::dealer::DealtSeed;
use c2pi_mpc::share::ShareVec;
use c2pi_tensor::Tensor;
use c2pi_transport::{Channel, Side};
use std::time::Instant;

/// One party's result of a dealt-contract inference
/// ([`PiSession::serve_one`] / [`PiSession::request_one`]): this side's
/// additive share of the boundary activation plus the run's cost report
/// (traffic as seen by this side's channel counter).
#[derive(Debug, Clone)]
pub struct PartyOutcome {
    /// This party's additive share of the boundary activation.
    pub share: ShareVec,
    /// Public shape of the boundary activation.
    pub dims: Vec<usize>,
    /// Cost profile of the run.
    pub report: PiReport,
}

impl PiSession {
    /// **Dealt contract, server side**: serves one inference to the
    /// client on `ch`. Takes one material set from the shared pool and
    /// hands it to [`SessionCore::serve_prepared`], which *deals* its
    /// compact seed to the client as the first frame (the deterministic
    /// dealer standing in for the trusted third party delivering the
    /// client's correlated-randomness half — seed-compressed, so the
    /// frame is tens of bytes regardless of how large the expanded
    /// material is), then runs the server party of the online protocol.
    ///
    /// Material is assigned per connection in pool order, so concurrent
    /// clients need no coordination.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::BadConfig`] when `ch` is not the server end
    /// (before any material is taken), plus engine and protocol errors.
    pub fn serve_one(&self, ch: &dyn Channel) -> Result<PartyOutcome> {
        if ch.side() != Side::Server {
            return Err(PiError::BadConfig("serve_one needs the server channel end".into()));
        }
        let material = self.pool.take()?;
        let before = ch.counter().snapshot();
        let start = Instant::now();
        let share = self
            .core
            .serve_prepared(&[ch], vec![material])?
            .pop()
            .expect("one member in, one share out");
        Ok(self.party_outcome(share, ch, before, start.elapsed().as_secs_f64()))
    }

    /// **Dealt contract, client side**: requests one inference from a
    /// server running [`PiSession::serve_one`] (or
    /// [`SessionCore::serve_prepared`]) on the other end of `ch`.
    /// Receives the compact dealt seed, validates and expands this
    /// party's correlated-randomness half from it
    /// ([`SessionCore::expand_dealt`] — dealer time on the client's
    /// critical path, recorded as inline in this session's ledger), and
    /// runs the client party of the online protocol.
    ///
    /// Both processes must compile their sessions from identical
    /// architecture and configuration — only the seed-compressed dealt
    /// artifact travels on the wire. The client's *weights* never enter:
    /// its half of every correlation is raw draws plus its own garbling,
    /// so a session compiled from the architecture alone (every weight
    /// zero) requests bit-identically (DESIGN.md §6).
    ///
    /// # Errors
    ///
    /// Returns [`PiError::BadConfig`] when `ch` is not the client end or
    /// the peer's handshake is malformed, [`PiError::InputOutOfRange`]
    /// for an input element outside `[−INPUT_BOUND, INPUT_BOUND]` or not
    /// a number (before the dealt frame is read), plus engine, shape and
    /// protocol errors. The dealt frame is read capped at its 20 bytes,
    /// so a longer one is the transport's decode error before its payload
    /// is allocated.
    pub fn request_one(&self, ch: &dyn Channel, x: &Tensor) -> Result<PartyOutcome> {
        if ch.side() != Side::Client {
            return Err(PiError::BadConfig("request_one needs the client channel end".into()));
        }
        self.check_input(x)?;
        let before = ch.counter().snapshot();
        let frame = ch.recv_bytes_capped(DealtSeed::WIRE_BYTES as usize)?;
        let deal_start = Instant::now();
        let mut material = self.core.expand_dealt(&frame)?;
        let cmats = material.take_client()?;
        self.pool.note_dealt_inline(deal_start.elapsed().as_secs_f64());
        let seed = material.seed;
        let start = Instant::now();
        let share = client_walk(ch, &self.core.plan, cmats, x, &self.core.cfg, seed)?;
        Ok(self.party_outcome(share, ch, before, start.elapsed().as_secs_f64()))
    }

    fn party_outcome(
        &self,
        share: ShareVec,
        ch: &dyn Channel,
        before: c2pi_transport::TrafficSnapshot,
        online_seconds: f64,
    ) -> PartyOutcome {
        let online = ch.counter().snapshot().since(&before);
        PartyOutcome {
            share,
            dims: self.core.plan.out_dims.clone(),
            report: self.report(online, online_seconds),
        }
    }
}

impl SessionCore {
    /// **Dealt contract, server side, caller-supplied material**: like
    /// [`PiSession::serve_one`] but over material the caller already
    /// took from a pool, and over `k ≥ 1` members at once — the entry
    /// point for serving layers that separate pool policy (sharding,
    /// work stealing, backpressure, coalescing) from protocol
    /// execution, such as the `c2pi-core` reactor. Deals each member
    /// its compact [`c2pi_mpc::dealer::DealtSeed`] as the first frame,
    /// then runs the server party over all members in lock step;
    /// returns this side's share of each member's boundary activation,
    /// in member order (the caller sends it to the client to
    /// reconstruct).
    ///
    /// A member's wire transcript, masks and output share do not depend
    /// on who else is in the run: serving `k` members in one call is
    /// bit-for-bit `k` calls of one over the same materials.
    ///
    /// Only the **server half** of each set is read; the client half of
    /// the same seed is what the peer expands from the dealt frame
    /// ([`SessionCore::expand_dealt`]). Sets from a
    /// [`crate::ShardedMaterialPool`] hold nothing else, sets from a
    /// session's own pool hold both and have the other dropped here.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::BadConfig`] on an empty or mismatched member
    /// set, a non-server channel end, or a set that holds no server half
    /// (one from [`SessionCore::expand_dealt`]) — all before any frame
    /// is sent — plus engine and protocol errors; one member's failure
    /// fails the whole run. The material is consumed either way.
    pub fn serve_prepared(
        &self,
        chs: &[&dyn Channel],
        mut materials: Vec<InferenceMaterial>,
    ) -> Result<Vec<ShareVec>> {
        let k = chs.len();
        if k == 0 || materials.len() != k {
            return Err(PiError::BadConfig(format!(
                "serve_prepared over {k} channels, {} material sets",
                materials.len()
            )));
        }
        if chs.iter().any(|ch| ch.side() != Side::Server) {
            return Err(PiError::BadConfig("serve_prepared needs server channel ends".into()));
        }
        // Every member's server half first: a set that cannot be served
        // is refused before any member has been dealt a seed.
        let smats =
            materials.iter_mut().map(InferenceMaterial::take_server).collect::<Result<Vec<_>>>()?;
        for (ch, material) in chs.iter().zip(&materials) {
            ch.send_bytes(&self.dealt_seed(material.seed).encode())?;
        }
        server_walk(chs, &self.plan, smats, &self.cfg)
    }
}
