//! Long-lived private-inference sessions with an explicit offline/online
//! phase split.
//!
//! A [`PiSession`] is the per-deployment object a serving system keeps
//! alive: it compiles the crypto prefix once (shape inference, ring
//! encoding of the server's weights), then separates the two protocol
//! phases the paper's systems are built around:
//!
//! * **offline** — [`PiSession::preprocess`] runs the trusted dealer to
//!   generate correlated randomness (masked-linear correlations, Beaver
//!   and bit triples, base OTs for garbling) for `n` *future* inferences,
//!   input-independently;
//! * **online** — [`PiSession::infer`] / [`PiSession::infer_batch`]
//!   consume one pooled material set per input and only pay the cheap
//!   interactive protocol.
//!
//! Internally a session is two shareable parts (see [`crate::pool`]):
//! an immutable [`crate::pool::SessionCore`] and a thread-safe
//! [`MaterialPool`]. [`PiSession`] is the one handle onto them: clones
//! are cheap `Arc` bumps and every entry point takes `&self`, so any
//! number of threads serve concurrent online inferences against one
//! pool while a [`crate::pool::Replenisher`] keeps it topped up in the
//! background.
//!
//! Every [`crate::report::PiReport`] carries a
//! [`crate::report::PreprocessLedger`] stating whether its run consumed
//! pooled material or had to generate some inline, so benchmarks can
//! report true online latency.
//!
//! Per-inference randomness is forked from the session master seed with
//! a domain-separated PRG stream ([`c2pi_mpc::prg::SeedSequence`]), so
//! batched and sequential execution consume identical seed streams and
//! every inference gets fresh, reproducible masks.
//!
//! The parties talk over whatever [`c2pi_transport::Channel`] the
//! session's [`c2pi_transport::Transport`] produces
//! ([`PiSession::with_transport`]): the in-memory default, an in-line
//! simulated LAN/WAN, or TCP framing. Genuinely separate processes speak
//! the one two-party contract, the **dealt** contract
//! ([`PiSession::serve_one`] / [`PiSession::request_one`]): the server's
//! pool decides which material each connection gets and *deals* the
//! compact seed to the client as the first frame, so many concurrent
//! clients can draw from one pool in any order (the `two_party` example
//! binaries, and the reactor in `c2pi-core` via
//! [`SessionCore::serve_prepared`]).

use crate::backend::PiBackendImpl;
use crate::engine::{PiConfig, PiOutcome};
use crate::plan::{compile, Plan, Step, StepData};
use crate::pool::{
    ClientMat, InferenceMaterial, MaterialPool, Replenisher, ServerMat, SessionCore,
};
use crate::report::{OpCounts, PiReport};
use crate::{PiError, Result};
use c2pi_mpc::beaver::truncate_share;
use c2pi_mpc::dealer::LinearCorrServer;
use c2pi_mpc::prg::Prg;
use c2pi_mpc::ring::{im2col_ring, RingMatrix};
use c2pi_mpc::share::{share_secret, ShareVec};
use c2pi_nn::LayerSpec;
use c2pi_tensor::Tensor;
use c2pi_transport::{Channel, MemTransport, Side, Transport};
use std::sync::Arc;
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

/// A long-lived private-inference session over one compiled crypto
/// prefix: an `Arc`-shared immutable [`SessionCore`] plus an
/// `Arc`-shared [`MaterialPool`]. See the [module docs](crate::session)
/// for the phase model.
///
/// Clones are cheap and every entry point takes `&self`, so a serving
/// system hands one clone to each worker thread; they draw material
/// from the one pool with exact ledger accounting while a
/// [`Replenisher`] (spawned via [`PiSession::spawn_replenisher`]) keeps
/// the pool above its low watermark.
#[derive(Clone)]
pub struct PiSession {
    core: Arc<SessionCore>,
    pool: Arc<MaterialPool>,
    transport: Arc<dyn Transport>,
}

/// The name [`PiSession`] went by when the concurrent-serving handle was
/// a separate type; kept because callers spell it.
pub type SharedPiSession = PiSession;

impl std::fmt::Debug for PiSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiSession")
            .field("backend", &self.backend_name())
            .field("transport", &self.transport_label())
            .field("steps", &self.step_count())
            .field("pooled", &self.pooled())
            .field("ledger", &self.ledger())
            .finish()
    }
}

impl PiSession {
    /// Compiles a session for `specs` on `[c, h, w]` inputs, resolving
    /// the backend from `cfg.backend`.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::UnsupportedLayer`] / [`PiError::BadConfig`]
    /// for prefixes the engine cannot execute.
    pub fn new(specs: &[LayerSpec], input_chw: [usize; 3], cfg: PiConfig) -> Result<Self> {
        let backend = cfg.backend.engine();
        Self::with_backend(specs, input_chw, cfg, backend)
    }

    /// Compiles a session with an explicit backend implementation
    /// (custom backends; `cfg.backend` is ignored for dispatch but still
    /// seeds defaults).
    ///
    /// # Errors
    ///
    /// Same as [`PiSession::new`].
    pub fn with_backend(
        specs: &[LayerSpec],
        input_chw: [usize; 3],
        cfg: PiConfig,
        backend: Arc<dyn PiBackendImpl>,
    ) -> Result<Self> {
        let [c, h, w] = input_chw;
        let plan = compile(specs, (c, h, w), cfg.fixed)?;
        let core = Arc::new(SessionCore { plan, cfg, backend });
        let pool = Arc::new(MaterialPool::new(Arc::clone(&core)));
        Ok(PiSession { core, pool, transport: Arc::new(MemTransport) })
    }

    /// Replaces the transport the in-process party threads of
    /// [`PiSession::infer`] talk over (the default is the in-memory
    /// pair). Accepts any [`Transport`] — e.g.
    /// `SimTransport::new(NetModel::wan())` to put WAN latency on the
    /// online wall clock, or an `Arc<dyn Transport>`.
    pub fn with_transport<T: Transport + 'static>(mut self, transport: T) -> Self {
        self.transport = Arc::new(transport);
        self
    }

    /// Identity, kept with [`SharedPiSession`] from when sharing was a
    /// conversion: a session is already the cloneable `&self` handle.
    pub fn into_shared(self) -> Self {
        self
    }

    /// The shared immutable session core.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// The shared material pool.
    pub fn pool(&self) -> &Arc<MaterialPool> {
        &self.pool
    }

    /// Label of the active transport (`mem`, `sim-wan`, …).
    pub fn transport_label(&self) -> String {
        self.transport.label()
    }

    /// The backend's engine name.
    pub fn backend_name(&self) -> &'static str {
        self.core.backend.name()
    }

    /// Engine configuration the session was built with.
    pub fn config(&self) -> &PiConfig {
        &self.core.cfg
    }

    /// Number of crypto-prefix steps.
    pub fn step_count(&self) -> usize {
        self.core.plan.steps.len()
    }

    /// Public shape of the boundary activation.
    pub fn out_dims(&self) -> &[usize] {
        &self.core.plan.out_dims
    }

    /// Material sets currently pooled for future inferences.
    pub fn pooled(&self) -> usize {
        self.pool.pooled()
    }

    /// Current preprocessing ledger.
    pub fn ledger(&self) -> crate::report::PreprocessLedger {
        self.pool.ledger()
    }

    /// Offline phase: generates correlated randomness for `n` future
    /// inferences and pools it. Input-independent and thread-safe (see
    /// [`MaterialPool::preprocess`]); run it ahead of traffic so
    /// [`PiSession::infer`] stays on the cheap path.
    ///
    /// # Errors
    ///
    /// Propagates dealer errors (caller shape bugs).
    pub fn preprocess(&self, n: usize) -> Result<()> {
        self.pool.preprocess(n)
    }

    /// Spawns the background offline-phase thread keeping this
    /// session's pool between `low` and `high` material sets (see
    /// [`Replenisher`]). Hold the returned handle for the lifetime of
    /// the serving loop; dropping it stops the thread.
    pub fn spawn_replenisher(&self, low: usize, high: usize) -> Replenisher {
        Replenisher::spawn(Arc::clone(&self.pool), low, high)
    }

    fn check_input(&self, x: &Tensor) -> Result<()> {
        let (_, c, h, w) = x.shape().as_nchw()?;
        if (c, h, w) != self.core.plan.in_chw {
            return Err(PiError::BadConfig(format!(
                "session compiled for {:?} inputs, got [{c}, {h}, {w}]",
                self.core.plan.in_chw
            )));
        }
        Ok(())
    }

    /// Online phase: one private inference on a `[1, c, h, w]` input,
    /// with both parties running as threads of this process, consuming
    /// one pooled material set (generating inline if the pool is dry).
    /// Safe to call from many threads at once — concurrent calls draw
    /// from the one shared pool.
    ///
    /// # Errors
    ///
    /// Returns engine, shape or protocol errors.
    pub fn infer(&self, x: &Tensor) -> Result<PiOutcome> {
        self.check_input(x)?;
        let material = self.pool.take()?;
        let InferenceMaterial { seed, cmats, smats, counts } = material;
        let (cep, sep, counter) = self.transport.pair()?;
        let plan = &self.core.plan;
        let cfg = self.core.cfg;
        let backend = &*self.core.backend;
        let start = Instant::now();
        let (client_res, server_res) = std::thread::scope(|scope| {
            let server = scope
                .spawn(move || server_walk(&[&*sep], plan, vec![smats], &cfg, backend, &[seed]));
            let client = client_walk(&*cep, plan, cmats, x, &cfg, backend, seed);
            let server = server.join().map_err(|_| PiError::PartyPanic("server"));
            (client, server)
        });
        let online_seconds = start.elapsed().as_secs_f64();
        let client_share = client_res?;
        let server_share = server_res??.pop().expect("one member in, one share out");
        let online = counter.snapshot();
        let model = self.core.backend.cost_model();
        let offline = model.offline_traffic(&counts);
        let offline_seconds = model.offline_seconds(&counts);
        Ok(PiOutcome {
            client_share,
            server_share,
            dims: self.core.plan.out_dims.clone(),
            report: PiReport {
                backend: self.core.backend.name(),
                online,
                offline,
                online_seconds,
                offline_seconds,
                counts,
                preprocessing: self.ledger(),
            },
        })
    }

    /// Online phase over a batch: one outcome per input, consuming one
    /// pooled material set each. Preprocess at least `xs.len()` sets
    /// first to keep the whole batch on the online path.
    ///
    /// # Errors
    ///
    /// Fails on the first erroring inference.
    pub fn infer_batch(&self, xs: &[Tensor]) -> Result<Vec<PiOutcome>> {
        xs.iter().map(|x| self.infer(x)).collect()
    }

    /// Online phase over a **fused** batch through the dealt contract:
    /// one protocol run serves all of `xs` — the server party walks
    /// every member's layers together ([`SessionCore::serve_prepared`]
    /// over `xs.len()` members), amortizing its per-layer compute
    /// across the batch, while each member keeps its own channel, pool
    /// item, seed and masks. One in-process client thread per member
    /// plays the dealt-contract client (receive the dealt seed, expand,
    /// run the online protocol).
    ///
    /// Per-member results are bit-for-bit what `xs.len()` separate
    /// [`PiSession::infer`] calls would produce — pinned by the
    /// session tests — because a run of `k` is `k` runs of one, member
    /// by member: sharing a run changes only *when* the server
    /// computes, never *what* any member's transcript contains.
    ///
    /// # Errors
    ///
    /// Returns engine, shape or protocol errors; one member's failure
    /// fails the whole fused run.
    pub fn infer_batch_dealt(&self, xs: &[Tensor]) -> Result<Vec<PiOutcome>> {
        if xs.is_empty() {
            return Err(PiError::BadConfig("infer_batch_dealt over an empty batch".into()));
        }
        for x in xs {
            self.check_input(x)?;
        }
        let k = xs.len();
        let mut materials = Vec::with_capacity(k);
        for _ in 0..k {
            materials.push(self.pool.take()?);
        }
        let counts_per: Vec<OpCounts> = materials.iter().map(|m| m.counts.clone()).collect();
        let mut ceps = Vec::with_capacity(k);
        let mut seps = Vec::with_capacity(k);
        let mut counters = Vec::with_capacity(k);
        for _ in 0..k {
            let (cep, sep, counter) = self.transport.pair()?;
            ceps.push(cep);
            seps.push(sep);
            counters.push(counter);
        }
        let core = &self.core;
        let start = Instant::now();
        let (client_res, server_res) = std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let eps: Vec<&dyn Channel> = seps.iter().map(|s| &**s).collect();
                core.serve_prepared(&eps, materials)
            });
            let clients: Vec<_> = ceps
                .into_iter()
                .zip(xs)
                .map(|(cep, x)| {
                    scope.spawn(move || -> Result<ShareVec> {
                        let InferenceMaterial { seed, cmats, .. } =
                            core.expand_dealt(&cep.recv_bytes()?)?;
                        client_walk(&*cep, &core.plan, cmats, x, &core.cfg, &*core.backend, seed)
                    })
                })
                .collect();
            let client_res: Vec<Result<ShareVec>> = clients
                .into_iter()
                .map(|h| h.join().map_err(|_| PiError::PartyPanic("client"))?)
                .collect();
            let server_res = server.join().map_err(|_| PiError::PartyPanic("server"));
            (client_res, server_res)
        });
        let online_seconds = start.elapsed().as_secs_f64();
        let server_shares = server_res??;
        let model = self.core.backend.cost_model();
        let ledger = self.ledger();
        client_res
            .into_iter()
            .zip(server_shares)
            .zip(counts_per)
            .zip(counters)
            .map(|(((client_share, server_share), counts), counter)| {
                Ok(PiOutcome {
                    client_share: client_share?,
                    server_share,
                    dims: self.core.plan.out_dims.clone(),
                    report: PiReport {
                        backend: self.core.backend.name(),
                        online: counter.snapshot(),
                        offline: model.offline_traffic(&counts),
                        online_seconds,
                        offline_seconds: model.offline_seconds(&counts),
                        counts,
                        preprocessing: ledger,
                    },
                })
            })
            .collect()
    }

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
        let counts = material.counts.clone();
        let before = ch.counter().snapshot();
        let start = Instant::now();
        let share = self
            .core
            .serve_prepared(&[ch], vec![material])?
            .pop()
            .expect("one member in, one share out");
        Ok(self.party_outcome(share, counts, ch, before, start.elapsed().as_secs_f64()))
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
    /// Both processes must compile their sessions from identical specs
    /// and configuration — only the seed-compressed dealt artifact
    /// travels on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::BadConfig`] when `ch` is not the client end or
    /// the peer's handshake is malformed, plus engine, shape and
    /// protocol errors.
    pub fn request_one(&self, ch: &dyn Channel, x: &Tensor) -> Result<PartyOutcome> {
        if ch.side() != Side::Client {
            return Err(PiError::BadConfig("request_one needs the client channel end".into()));
        }
        self.check_input(x)?;
        let before = ch.counter().snapshot();
        let frame = ch.recv_bytes()?;
        let deal_start = Instant::now();
        let InferenceMaterial { seed, cmats, smats: _, counts } = self.core.expand_dealt(&frame)?;
        self.pool.note_dealt_inline(deal_start.elapsed().as_secs_f64(), &counts);
        let start = Instant::now();
        let share =
            client_walk(ch, &self.core.plan, cmats, x, &self.core.cfg, &*self.core.backend, seed)?;
        Ok(self.party_outcome(share, counts, ch, before, start.elapsed().as_secs_f64()))
    }

    fn party_outcome(
        &self,
        share: ShareVec,
        counts: OpCounts,
        ch: &dyn Channel,
        before: c2pi_transport::TrafficSnapshot,
        online_seconds: f64,
    ) -> PartyOutcome {
        let model = self.core.backend.cost_model();
        let offline = model.offline_traffic(&counts);
        let offline_seconds = model.offline_seconds(&counts);
        PartyOutcome {
            share,
            dims: self.core.plan.out_dims.clone(),
            report: PiReport {
                backend: self.core.backend.name(),
                online: ch.counter().snapshot().since(&before),
                offline,
                online_seconds,
                offline_seconds,
                counts,
                preprocessing: self.ledger(),
            },
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
    /// # Errors
    ///
    /// Returns [`PiError::BadConfig`] on an empty or mismatched member
    /// set or a non-server channel end, plus engine and protocol errors
    /// — one member's failure fails the whole run. The material is
    /// consumed either way.
    pub fn serve_prepared(
        &self,
        chs: &[&dyn Channel],
        materials: Vec<InferenceMaterial>,
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
        let mut seeds = Vec::with_capacity(k);
        let mut smats_all = Vec::with_capacity(k);
        for (ch, material) in chs.iter().zip(materials) {
            ch.send_bytes(&self.dealt_seed(material.seed).encode())?;
            let InferenceMaterial { seed, cmats: _, smats, counts: _ } = material;
            seeds.push(seed);
            smats_all.push(smats);
        }
        server_walk(chs, &self.plan, smats_all, &self.cfg, &*self.backend, &seeds)
    }
}

/// Gathers 2×2 window elements of a `[c, h, w]` share into four parallel
/// index lists (public permutation, applied by both parties).
fn pool_windows(c: usize, h: usize, w: usize) -> Vec<[usize; 4]> {
    let mut idx = Vec::with_capacity(c * (h / 2) * (w / 2));
    for ch in 0..c {
        let plane = ch * h * w;
        for oy in 0..h / 2 {
            for ox in 0..w / 2 {
                let base = plane + 2 * oy * w + 2 * ox;
                idx.push([base, base + 1, base + w, base + w + 1]);
            }
        }
    }
    idx
}

fn gather(share: &ShareVec, idx: &[[usize; 4]]) -> ShareVec {
    let mut out = Vec::with_capacity(idx.len() * 4);
    for quad in idx {
        for &i in quad {
            out.push(share.as_raw()[i]);
        }
    }
    ShareVec::from_raw(out)
}

fn avg_pool_share(
    share: &ShareVec,
    (c, h, w): (usize, usize, usize),
    (window, stride): (usize, usize),
    is_client: bool,
    fp: c2pi_mpc::FixedPoint,
) -> ShareVec {
    let oh = (h - window) / stride + 1;
    let ow = (w - window) / stride + 1;
    let coeff = fp.encode(1.0 / (window * window) as f32);
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        let plane = ch * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0u64;
                for ky in 0..window {
                    for kx in 0..window {
                        acc = acc.wrapping_add(
                            share.as_raw()[plane + (oy * stride + ky) * w + ox * stride + kx],
                        );
                    }
                }
                out.push(acc.wrapping_mul(coeff));
            }
        }
    }
    truncate_share(&ShareVec::from_raw(out), is_client, fp)
}

/// A linear step's input share as the matrix its weights multiply:
/// im2col columns for a convolution, one column for a fully connected
/// layer.
fn linear_input(step: &Step, cur: &ShareVec) -> Result<RingMatrix> {
    match step {
        Step::Conv { c, h, w, geom } => Ok(im2col_ring(cur.as_raw(), *c, *h, *w, *geom)?),
        Step::Fc { k } => Ok(RingMatrix::from_vec(cur.as_raw().to_vec(), *k, 1)?),
        _ => Err(PiError::BadConfig("not a linear step".into())),
    }
}

/// The client party of one online inference: shares the input, then
/// walks the plan over its half of one material set.
pub(crate) fn client_walk(
    ep: &dyn Channel,
    plan: &Plan,
    mats: Vec<ClientMat>,
    x: &Tensor,
    cfg: &PiConfig,
    backend: &dyn PiBackendImpl,
    seed: u64,
) -> Result<ShareVec> {
    let fp = cfg.fixed;
    // Share the input: keep x0, send x1.
    let secret = fp.encode_tensor(x);
    let mut prg = Prg::from_u64(seed ^ 0xC11E_57A9);
    let (x0, x1) = share_secret(&secret, &mut prg);
    ep.send_u64s(x1.as_raw())?;
    let mut cur = x0;
    for (step, mat) in plan.steps.iter().zip(mats) {
        match (step, mat) {
            (Step::Conv { .. } | Step::Fc { .. }, ClientMat::Lin(corr)) => {
                let y = backend.linear_online_client(ep, &linear_input(step, &cur)?, &corr)?;
                cur = truncate_share(&ShareVec::from_raw(y.into_vec()), true, fp);
            }
            (Step::Relu { n: _ }, ClientMat::Nl(material)) => {
                cur = backend.relu_online_client(ep, &cur, material, cfg, &mut prg)?;
            }
            (Step::MaxPool { c, h, w }, ClientMat::Nl(material)) => {
                let quads = gather(&cur, &pool_windows(*c, *h, *w));
                cur = backend.maxpool_online_client(ep, &quads, material, cfg, &mut prg)?;
            }
            (Step::AvgPool { c, h, w, window, stride }, ClientMat::None) => {
                cur = avg_pool_share(&cur, (*c, *h, *w), (*window, *stride), true, fp);
            }
            (Step::Flatten, ClientMat::None) => {}
            (Step::Affine, ClientMat::Affine(corr)) => {
                let y = c2pi_mpc::beaver::affine_client(ep, &cur, &corr)?;
                cur = truncate_share(&y, true, fp);
            }
            _ => return Err(PiError::BadConfig("plan/material mismatch (client)".into())),
        }
    }
    Ok(cur)
}

fn server_mismatch() -> PiError {
    PiError::BadConfig("plan/material mismatch (server)".into())
}

/// Unwraps one step's per-member materials as the variant the step
/// consumes.
fn step_mats<T>(mats: Vec<ServerMat>, pick: fn(ServerMat) -> Option<T>) -> Result<Vec<T>> {
    mats.into_iter().map(|m| pick(m).ok_or_else(server_mismatch)).collect()
}

/// The server party: walks the plan **once** for `k ≥ 1` members in
/// lock step, calling the backend's server hooks so each layer's
/// compute spans all members (column-stacked matmuls, one parallel GC
/// label-selection region), while every member keeps its own channel,
/// material, masks and PRG stream. In-process inference and
/// [`PiSession::serve_one`] run it with one member; a coalescing serving
/// layer with as many as it fused.
///
/// Member order is served deterministically (slice order) at every
/// flight; per-member sequential sub-loops are deadlock-free because
/// clients progress independently and flights buffer in the transport.
pub(crate) fn server_walk(
    eps: &[&dyn Channel],
    plan: &Plan,
    mats: Vec<Vec<ServerMat>>,
    cfg: &PiConfig,
    backend: &dyn PiBackendImpl,
    seeds: &[u64],
) -> Result<Vec<ShareVec>> {
    let k = eps.len();
    if k == 0 || mats.len() != k || seeds.len() != k {
        return Err(PiError::BadConfig(format!(
            "server walk over {k} channels, {} material sets, {} seeds",
            mats.len(),
            seeds.len()
        )));
    }
    let fp = cfg.fixed;
    let mut prgs: Vec<Prg> = seeds.iter().map(|&s| Prg::from_u64(s ^ 0x5E2F_E27A)).collect();
    let mut curs = Vec::with_capacity(k);
    for ep in eps {
        curs.push(ShareVec::from_raw(ep.recv_u64s()?));
    }
    let mut iters: Vec<std::vec::IntoIter<ServerMat>> =
        mats.into_iter().map(Vec::into_iter).collect();
    for (step, data) in plan.steps.iter().zip(plan.data.iter()) {
        let mats: Vec<ServerMat> = iters
            .iter_mut()
            .map(|it| it.next().ok_or_else(server_mismatch))
            .collect::<Result<_>>()?;
        match (step, data) {
            (Step::Conv { .. } | Step::Fc { .. }, StepData::Lin { w: w_ring, bias2f, .. }) => {
                let corrs =
                    step_mats(mats, |m| if let ServerMat::Lin(c) = m { Some(c) } else { None })?;
                let corr_refs: Vec<&LinearCorrServer> = corrs.iter().collect();
                let xs: Vec<RingMatrix> =
                    curs.iter().map(|cur| linear_input(step, cur)).collect::<Result<_>>()?;
                let ys = backend.linear_online_server(eps, w_ring, &xs, &corr_refs)?;
                // One bias per output row (a fully connected layer's
                // rows are one element wide).
                curs = ys
                    .into_iter()
                    .map(|mut y| {
                        let cols = y.cols();
                        for (row, &b) in y.as_mut_slice().chunks_exact_mut(cols).zip(bias2f) {
                            for v in row {
                                *v = v.wrapping_add(b);
                            }
                        }
                        truncate_share(&ShareVec::from_raw(y.into_vec()), false, fp)
                    })
                    .collect();
            }
            (Step::Relu { n: _ }, StepData::None) => {
                let materials =
                    step_mats(mats, |m| if let ServerMat::Nl(c) = m { Some(c) } else { None })?;
                curs = backend.relu_online_server(eps, &curs, materials, cfg, &mut prgs)?;
            }
            (Step::MaxPool { c, h, w }, StepData::None) => {
                let materials =
                    step_mats(mats, |m| if let ServerMat::Nl(c) = m { Some(c) } else { None })?;
                let idx = pool_windows(*c, *h, *w);
                let quads: Vec<ShareVec> = curs.iter().map(|cur| gather(cur, &idx)).collect();
                curs = backend.maxpool_online_server(eps, &quads, materials, cfg, &mut prgs)?;
            }
            (Step::AvgPool { c, h, w, window, stride }, StepData::None) => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
                curs = curs
                    .iter()
                    .map(|cur| avg_pool_share(cur, (*c, *h, *w), (*window, *stride), false, fp))
                    .collect();
            }
            (Step::Flatten, StepData::None) => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
            }
            (Step::Affine, StepData::Affine { scale, shift2f }) => {
                let corrs =
                    step_mats(mats, |m| if let ServerMat::Affine(c) = m { Some(c) } else { None })?;
                curs = curs
                    .iter()
                    .zip(eps)
                    .zip(&corrs)
                    .map(|((cur, ep), corr)| {
                        let y = c2pi_mpc::beaver::affine_server(*ep, scale, cur, corr)?;
                        let shifted: Vec<u64> = y
                            .as_raw()
                            .iter()
                            .zip(shift2f.iter())
                            .map(|(&v, &s)| v.wrapping_add(s))
                            .collect();
                        Ok(truncate_share(&ShareVec::from_raw(shifted), false, fp))
                    })
                    .collect::<Result<_>>()?;
            }
            _ => return Err(server_mismatch()),
        }
    }
    Ok(curs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{specs_of, PiBackend};
    use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
    use c2pi_nn::Sequential;

    fn tiny_prefix() -> Sequential {
        let mut s = Sequential::new();
        s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
        s.push(Relu::new());
        s.push(MaxPool2d::new(2, 2));
        s
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn preprocessed_and_inline_inferences_agree_with_plaintext() {
        let seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 3);
        let plain = seq.forward_eval(&x).unwrap();
        let cfg = PiConfig::default();
        let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        session.preprocess(1).unwrap();
        let pooled = session.infer(&x).unwrap();
        assert_close(&plain, &pooled.reconstruct(cfg.fixed).unwrap(), 0.02);
        assert_eq!(pooled.report.preprocessing.generated_offline, 1);
        assert_eq!(pooled.report.preprocessing.generated_inline, 0);
        // Pool now dry: the next inference generates inline and says so.
        let inline = session.infer(&x).unwrap();
        assert_close(&plain, &inline.reconstruct(cfg.fixed).unwrap(), 0.02);
        assert_eq!(inline.report.preprocessing.generated_inline, 1);
        assert_eq!(inline.report.preprocessing.consumed, 2);
    }

    #[test]
    fn batch_consumes_pool_and_masks_differ_per_inference() {
        let seq = tiny_prefix();
        let xs: Vec<Tensor> =
            (0..3).map(|s| Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, s)).collect();
        let cfg = PiConfig::default();
        let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        session.preprocess(3).unwrap();
        assert_eq!(session.pooled(), 3);
        let outs = session.infer_batch(&xs).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(session.pooled(), 0);
        for (x, out) in xs.iter().zip(&outs) {
            let plain = seq.forward_eval(x).unwrap();
            assert_close(&plain, &out.reconstruct(cfg.fixed).unwrap(), 0.02);
        }
        // The same input twice gets different masks (fresh correlations).
        let session2 = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        session2.preprocess(2).unwrap();
        let a = session2.infer(&xs[0]).unwrap();
        let b = session2.infer(&xs[0]).unwrap();
        assert_ne!(a.client_share.as_raw(), b.client_share.as_raw());
    }

    #[test]
    fn batched_and_sequential_runs_share_the_seed_stream() {
        let seq = tiny_prefix();
        let xs: Vec<Tensor> =
            (0..2).map(|s| Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 10 + s)).collect();
        let cfg = PiConfig::default();
        let batched = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        let from_batch = batched.infer_batch(&xs).unwrap();
        let sequential = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        let first = sequential.infer(&xs[0]).unwrap();
        let second = sequential.infer(&xs[1]).unwrap();
        assert_eq!(from_batch[0].client_share.as_raw(), first.client_share.as_raw());
        assert_eq!(from_batch[1].client_share.as_raw(), second.client_share.as_raw());
    }

    #[test]
    fn a_run_of_k_is_bit_identical_to_k_dealt_runs_of_one() {
        // The property that lets solo serving be a batch of one: k
        // inputs through one serve_prepared walk yield, for every
        // member, exactly the shares a run of one over the same pool
        // item produces — for both backends, k = 1 included.
        for (backend, k) in [
            (PiBackend::Cheetah, 1),
            (PiBackend::Cheetah, 3),
            (PiBackend::Delphi, 1),
            (PiBackend::Delphi, 3),
        ] {
            let seq = tiny_prefix();
            let xs: Vec<Tensor> = (0..k as u64)
                .map(|s| Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 50 + s))
                .collect();
            let cfg = PiConfig { backend, ..Default::default() };
            // Reference: sequential dealt serving (serve_one/request_one
            // over per-member pool items, in pool order).
            let server = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
            server.preprocess(k).unwrap();
            let client = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
            let mut want = Vec::new();
            for x in &xs {
                let (cch, sch, _) = c2pi_transport::channel_pair();
                let srv = server.clone();
                let t = std::thread::spawn(move || srv.serve_one(&sch).unwrap());
                let c = client.request_one(&cch, x).unwrap();
                let s = t.join().unwrap();
                want.push((c.share, s.share));
            }
            // Same specs, fresh session (same master seed stream), one
            // run over all k inputs.
            let fused = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
            fused.preprocess(k).unwrap();
            let outs = fused.infer_batch_dealt(&xs).unwrap();
            assert_eq!(outs.len(), k);
            for (i, (out, (wc, ws))) in outs.iter().zip(&want).enumerate() {
                assert_eq!(
                    out.client_share.as_raw(),
                    wc.as_raw(),
                    "{backend:?} k={k} member {i} client share diverged"
                );
                assert_eq!(
                    out.server_share.as_raw(),
                    ws.as_raw(),
                    "{backend:?} k={k} member {i} server share diverged"
                );
            }
            // Each member consumed exactly one pool item.
            assert_eq!(fused.ledger().consumed, k as u64);
            assert_eq!(fused.ledger().generated_inline, 0);
            assert_eq!(fused.pooled(), 0);
            // Plaintext sanity on the reconstructed logits.
            for (x, out) in xs.iter().zip(&outs) {
                let plain = seq.forward_eval(x).unwrap();
                assert_close(&plain, &out.reconstruct(cfg.fixed).unwrap(), 0.02);
            }
            assert!(fused.infer_batch_dealt(&[]).is_err());
        }
    }

    #[test]
    fn delphi_runs_through_the_trait_too() {
        let seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 5);
        let plain = seq.forward_eval(&x).unwrap();
        let cfg = PiConfig { backend: PiBackend::Delphi, ..Default::default() };
        let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        session.preprocess(1).unwrap();
        let out = session.infer(&x).unwrap();
        assert_close(&plain, &out.reconstruct(cfg.fixed).unwrap(), 0.02);
        assert!(out.report.counts.and_gates > 0);
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let seq = tiny_prefix();
        let cfg = PiConfig::default();
        let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        let bad = Tensor::zeros(&[1, 1, 6, 6]);
        assert!(matches!(session.infer(&bad), Err(PiError::BadConfig(_))));
    }

    #[test]
    fn sim_and_tcp_transports_reproduce_the_mem_path_bit_for_bit() {
        use c2pi_transport::{NetModel, SimTransport, TcpLoopbackTransport};
        let seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 21);
        let cfg = PiConfig::default();
        let mem = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        let want = mem.infer(&x).unwrap();
        // A fast simulated network: the protocol transcript (and thus
        // the shares) must be identical, only the wall clock differs.
        let sim = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg)
            .unwrap()
            .with_transport(SimTransport::new(NetModel::custom("fast", 1e12, 1e-5)));
        assert_eq!(sim.transport_label(), "sim-fast");
        let got = sim.infer(&x).unwrap();
        assert_eq!(got.client_share.as_raw(), want.client_share.as_raw());
        assert_eq!(got.server_share.as_raw(), want.server_share.as_raw());
        // Real TCP framing over loopback: same story.
        let tcp = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg)
            .unwrap()
            .with_transport(TcpLoopbackTransport);
        let got = tcp.infer(&x).unwrap();
        assert_eq!(got.client_share.as_raw(), want.client_share.as_raw());
        assert_eq!(got.server_share.as_raw(), want.server_share.as_raw());
        assert_eq!(got.report.online.bytes_total(), want.report.online.bytes_total());
    }

    #[test]
    fn party_split_inference_matches_the_in_process_path() {
        use c2pi_transport::tcp_loopback_pair;
        let seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 22);
        let cfg = PiConfig::default();
        let specs = specs_of(&seq);
        // Reference: both parties in one session.
        let want = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().infer(&x).unwrap();
        // One session per party, talking TCP: a fresh server pool deals
        // the first seed of the same stream the reference consumed.
        let (cch, sch, _) = tcp_loopback_pair().unwrap();
        let server = PiSession::new(&specs, [1, 8, 8], cfg).unwrap();
        let t = std::thread::spawn(move || server.serve_one(&sch).unwrap());
        let client = PiSession::new(&specs, [1, 8, 8], cfg).unwrap();
        let client_out = client.request_one(&cch, &x).unwrap();
        let server_out = t.join().unwrap();
        assert_eq!(client_out.share.as_raw(), want.client_share.as_raw());
        assert_eq!(server_out.share.as_raw(), want.server_share.as_raw());
        assert_eq!(client_out.dims, want.dims);
    }

    #[test]
    fn party_split_rejects_the_wrong_channel_end() {
        use c2pi_transport::tcp_loopback_pair;
        let seq = tiny_prefix();
        let cfg = PiConfig::default();
        let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        session.preprocess(1).unwrap();
        let (cch, sch, _) = tcp_loopback_pair().unwrap();
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert!(matches!(session.request_one(&sch, &x), Err(PiError::BadConfig(_))));
        assert!(matches!(session.serve_one(&cch), Err(PiError::BadConfig(_))));
        assert_eq!(session.pooled(), 1, "a rejected call takes no material");
    }

    #[test]
    fn dealt_contract_matches_plaintext_and_counts_both_ledgers() {
        use c2pi_transport::tcp_loopback_pair;
        let seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 31);
        let plain = seq.forward_eval(&x).unwrap();
        let cfg = PiConfig::default();
        let server = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        server.preprocess(1).unwrap();
        let client = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        let (cch, sch, _) = tcp_loopback_pair().unwrap();
        let srv = server.clone();
        let t = std::thread::spawn(move || srv.serve_one(&sch).unwrap());
        let client_out = client.request_one(&cch, &x).unwrap();
        let server_out = t.join().unwrap();
        let raw = c2pi_mpc::share::reconstruct(&client_out.share, &server_out.share);
        let got = cfg.fixed.decode_tensor(&raw, &client_out.dims).unwrap();
        assert_close(&plain, &got, 0.02);
        // Server consumed pooled material; the client dealt inline for
        // the seed it was handed.
        assert_eq!(server.ledger().consumed, 1);
        assert_eq!(server.ledger().generated_inline, 0);
        assert_eq!(client.ledger().generated_inline, 1);
    }

    #[test]
    fn shared_handle_serves_concurrent_inferences_from_one_pool() {
        let seq = tiny_prefix();
        let cfg = PiConfig::default();
        let shared = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
        shared.preprocess(4).unwrap();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 40);
        let plain = tiny_prefix().forward_eval(&x).unwrap();
        let outs: Vec<PiOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = shared.clone();
                    let xx = x.clone();
                    scope.spawn(move || s.infer(&xx).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outs {
            assert_close(&plain, &out.reconstruct(cfg.fixed).unwrap(), 0.02);
        }
        let ledger = shared.ledger();
        assert_eq!(ledger.consumed, 4);
        assert_eq!(ledger.generated_inline, 0);
        assert_eq!(ledger.available, 0);
    }
}
