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
//!   and bit triples, pre-garbled circuits) for `n` *future* inferences,
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

use crate::engine::{PiConfig, PiOutcome};
use crate::plan::{compile, set_unit_widths, Plan, Step, INPUT_BOUND};
use crate::pool::{MaterialPool, Replenisher, SessionCore};
use crate::report::PiReport;
use crate::{PiError, Result};
use c2pi_mpc::dealer::DealtSeed;
use c2pi_mpc::share::ShareVec;
use c2pi_nn::LayerSpec;
use c2pi_tensor::Tensor;
use c2pi_transport::{Channel, MemTransport, Transport};
use std::sync::Arc;
use std::time::Instant;

mod dealt;
mod walk;

pub use dealt::PartyOutcome;
use walk::{client_walk, server_walk};

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
    /// Compiles a session for `specs` on `[c, h, w]` inputs under the
    /// backend `cfg.backend`.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::UnsupportedLayer`] / [`PiError::BadConfig`]
    /// for prefixes the engine cannot execute.
    pub fn new(specs: &[LayerSpec], input_chw: [usize; 3], cfg: PiConfig) -> Result<Self> {
        let [c, h, w] = input_chw;
        Ok(Self::from_plan(compile(specs, (c, h, w), cfg.fixed)?, cfg))
    }

    /// Compiles a session as [`PiSession::new`] does, then runs its
    /// non-linear steps at `widths`: the [`PiSession::unit_widths`] a
    /// server publishes beside its architecture. The widths are compiled
    /// from the weights, so a client that holds only the architecture
    /// (zeroed weights) needs them to run the server's protocol; with
    /// them it requests bit-identically to a client that holds the true
    /// model.
    ///
    /// # Errors
    ///
    /// As [`PiSession::new`], plus [`PiError::BadConfig`] for a count
    /// that is not the plan's number of non-linear steps, or a width
    /// that is not a whole number of bytes, exceeds 64, or is narrower
    /// than `specs`' own weights need.
    pub fn with_unit_widths(
        specs: &[LayerSpec],
        input_chw: [usize; 3],
        cfg: PiConfig,
        widths: &[usize],
    ) -> Result<Self> {
        let [c, h, w] = input_chw;
        let mut plan = compile(specs, (c, h, w), cfg.fixed)?;
        set_unit_widths(&mut plan, widths)?;
        Ok(Self::from_plan(plan, cfg))
    }

    fn from_plan(plan: Plan, cfg: PiConfig) -> Self {
        let core = Arc::new(SessionCore::new(plan, cfg));
        let pool = Arc::new(MaterialPool::new(Arc::clone(&core)));
        PiSession { core, pool, transport: Arc::new(MemTransport) }
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
        self.core.backend_name()
    }

    /// Engine configuration the session was built with.
    pub fn config(&self) -> &PiConfig {
        &self.core.cfg
    }

    /// Number of crypto-prefix steps.
    pub fn step_count(&self) -> usize {
        self.core.plan.steps.len()
    }

    /// The width, in bits, each non-linear step garbles or compares at,
    /// in plan order. Public — every label frame shows it — and what a
    /// client without the weights needs ([`PiSession::with_unit_widths`]).
    pub fn unit_widths(&self) -> Vec<usize> {
        self.units().map(|(_, bits)| bits).collect()
    }

    /// The bits each non-linear step's inputs occupy over the input
    /// domain (each lies in `[−2^bound, 2^bound)`), in plan order: the
    /// headroom under [`PiSession::unit_widths`], computed from this
    /// session's weights. A server's figure, not one to publish.
    pub fn unit_bounds(&self) -> Vec<u32> {
        self.units().map(|(bound, _)| bound).collect()
    }

    fn units(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.core.plan.steps.iter().filter_map(|s| match s {
            Step::Unit { bound, bits, .. } => Some((*bound, *bits)),
            _ => None,
        })
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

    /// The client's check of its own input: the compiled shape, and
    /// every element inside the public domain `[−INPUT_BOUND,
    /// INPUT_BOUND]` the plan's widths were compiled for (which also
    /// refuses a NaN or ±∞, which the encoding would saturate into a
    /// garbage ring value instead of failing). The server cannot check
    /// the input and need not: a value outside the domain corrupts only
    /// the result of the client that sent it (DESIGN.md §9).
    fn check_input(&self, x: &Tensor) -> Result<()> {
        let (_, c, h, w) = x.shape().as_nchw()?;
        if (c, h, w) != self.core.plan.in_chw {
            return Err(PiError::BadConfig(format!(
                "session compiled for {:?} inputs, got [{c}, {h}, {w}]",
                self.core.plan.in_chw
            )));
        }
        match x.as_slice().iter().position(|v| v.is_nan() || v.abs() > INPUT_BOUND) {
            Some(index) => Err(PiError::InputOutOfRange { index, value: x.as_slice()[index] }),
            None => Ok(()),
        }
    }

    /// The cost report of one run: its measured traffic and time, and
    /// the deployment's counts.
    fn report(&self, online: c2pi_transport::TrafficSnapshot, online_seconds: f64) -> PiReport {
        let model = self.core.cfg.backend.cost_model();
        let counts = &self.core.counts;
        PiReport {
            backend: self.core.backend_name(),
            online,
            offline: model.offline_traffic(counts),
            online_seconds,
            offline_seconds: model.offline_seconds(counts),
            counts: counts.clone(),
            preprocessing: self.ledger(),
        }
    }

    /// Online phase: one private inference on a `[1, c, h, w]` input,
    /// with both parties running as threads of this process, consuming
    /// one pooled material set (generating inline if the pool is dry).
    /// Safe to call from many threads at once — concurrent calls draw
    /// from the one shared pool.
    ///
    /// # Errors
    ///
    /// Returns [`PiError::InputOutOfRange`] for an input element outside
    /// `[−INPUT_BOUND, INPUT_BOUND]` or not a number (before any
    /// material is taken), plus engine, shape or protocol errors.
    pub fn infer(&self, x: &Tensor) -> Result<PiOutcome> {
        self.check_input(x)?;
        let mut material = self.pool.take()?;
        let (cmats, smats) = (material.take_client()?, material.take_server()?);
        let seed = material.seed;
        let (cep, sep, counter) = self.transport.pair()?;
        let plan = &self.core.plan;
        let cfg = self.core.cfg;
        let start = Instant::now();
        let (client_res, server_res) = std::thread::scope(|scope| {
            let server = scope.spawn(move || server_walk(&[&*sep], plan, vec![smats], &cfg));
            let client = client_walk(&*cep, plan, cmats, x, &cfg, seed);
            let server = server.join().map_err(|_| PiError::PartyPanic("server"));
            (client, server)
        });
        let online_seconds = start.elapsed().as_secs_f64();
        let client_share = client_res?;
        let server_share = server_res??.pop().expect("one member in, one share out");
        Ok(PiOutcome {
            client_share,
            server_share,
            dims: self.core.plan.out_dims.clone(),
            report: self.report(counter.snapshot(), online_seconds),
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
    /// Returns [`PiError::InputOutOfRange`] for an input element outside
    /// `[−INPUT_BOUND, INPUT_BOUND]` or not a number in any member
    /// (before any material is taken), plus
    /// engine, shape or protocol errors; one member's failure fails the
    /// whole fused run.
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
                        let frame = cep.recv_bytes_capped(DealtSeed::WIRE_BYTES as usize)?;
                        let mut material = core.expand_dealt(&frame)?;
                        let (cmats, seed) = (material.take_client()?, material.seed);
                        client_walk(&*cep, &core.plan, cmats, x, &core.cfg, seed)
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
        client_res
            .into_iter()
            .zip(server_shares)
            .zip(counters)
            .map(|((client_share, server_share), counter)| {
                Ok(PiOutcome {
                    client_share: client_share?,
                    server_share,
                    dims: self.core.plan.out_dims.clone(),
                    report: self.report(counter.snapshot(), online_seconds),
                })
            })
            .collect()
    }
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
    fn another_backends_set_is_refused_by_serve_prepared() {
        // A Cheetah pool's set handed to a Delphi server: its non-linear
        // material is the other backend's type, which the walk refuses
        // at the first ReLU. The client on the other end gets an error,
        // not a hang: the refusal closes the server's channel end.
        let specs = specs_of(&tiny_prefix());
        let session = |backend| {
            PiSession::new(&specs, [1, 8, 8], PiConfig { backend, ..Default::default() }).unwrap()
        };
        let (cheetah, delphi) = (session(PiBackend::Cheetah), session(PiBackend::Delphi));
        cheetah.preprocess(1).unwrap();
        let set = cheetah.pool().take().unwrap();
        let core = Arc::clone(delphi.core());
        let (cch, sch, _) = c2pi_transport::channel_pair();
        let server = std::thread::spawn(move || {
            core.serve_prepared(&[&sch as &dyn Channel], vec![set]).map(|shares| shares.len())
        });
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 5);
        let client = delphi.request_one(&cch, &x).map(|out| out.dims);
        let served = server.join().unwrap();
        assert!(
            matches!(&served, Err(PiError::BadConfig(why)) if why == "plan/material mismatch (server)"),
            "{served:?}"
        );
        assert!(client.is_err(), "{client:?}");
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
    fn inputs_outside_the_domain_are_refused_before_any_frame_or_material() {
        use c2pi_transport::channel_pair;
        let seq = tiny_prefix();
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let cfg = PiConfig { backend, ..PiConfig::default() };
            let session = PiSession::new(&specs_of(&seq), [1, 8, 8], cfg).unwrap();
            session.preprocess(2).unwrap();
            let ledger = session.ledger();
            for value in [1.0001, -1.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut x = Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, 4);
                x.as_mut_slice()[9] = value;
                let refused = |err: PiError| {
                    assert!(
                        matches!(err, PiError::InputOutOfRange { index: 9, value: v }
                            if v.to_bits() == value.to_bits()),
                        "{backend:?}, {value}: {err:?}"
                    );
                };
                refused(session.infer(&x).map(|o| o.dims).unwrap_err());
                let fine = Tensor::zeros(&[1, 1, 8, 8]);
                refused(
                    session.infer_batch_dealt(&[fine, x.clone()]).map(|o| o.len()).unwrap_err(),
                );
                // The dealt client stops before it reads the server's
                // frame: nothing crosses the channel either way.
                let (cch, _sch, counter) = channel_pair();
                refused(session.request_one(&cch, &x).map(|o| o.dims).unwrap_err());
                let traffic = counter.snapshot();
                assert_eq!(traffic.bytes_client_to_server + traffic.bytes_server_to_client, 0);
                assert_eq!(session.ledger(), ledger, "{backend:?}, {value}: the ledger moved");
            }
            // The domain's own edges are inside it.
            let edges =
                Tensor::from_vec((0..64).map(|i| [1.0, -1.0][i % 2]).collect(), &[1, 1, 8, 8]);
            assert!(session.infer(&edges.unwrap()).is_ok(), "{backend:?}: ±1 refused");
        }
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
    fn a_v2_dealt_frame_is_refused_at_request_one_before_any_dealing() {
        // What a peer still on `DealtSeed` v2 would send first: this
        // deployment's own frame with the older version byte. The client
        // must stop there — typed error, nothing expanded, nothing sent.
        use c2pi_transport::channel_pair;
        let seq = tiny_prefix();
        let client = PiSession::new(&specs_of(&seq), [1, 8, 8], PiConfig::default()).unwrap();
        let mut frame = client.core().dealt_seed(7).encode();
        frame[2] = 2;
        let (cch, sch, counter) = channel_pair();
        sch.send_bytes(&frame).unwrap();
        let err =
            client.request_one(&cch, &Tensor::zeros(&[1, 1, 8, 8])).map(|o| o.dims).unwrap_err();
        assert!(
            matches!(&err, PiError::Mpc(c2pi_mpc::MpcError::Protocol(why))
                if why == "dealt seed: unsupported version"),
            "{err:?}"
        );
        assert_eq!(client.ledger().generated_inline, 0);
        assert_eq!(counter.snapshot().bytes_client_to_server, 0);
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
