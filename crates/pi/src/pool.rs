//! The shared half of a serving deployment: the immutable compiled
//! session core plus a thread-safe pool of per-inference correlated
//! randomness.
//!
//! The paper's performance story rests on the offline/online phase
//! split: correlated randomness is generated *input-independently*
//! (offline, by the trusted-dealer stand-in), so the online protocol a
//! client actually waits for is cheap. This module is that split made
//! concurrent:
//!
//! * [`SessionCore`] — everything about a deployment that never changes
//!   between inferences (the compiled execution plan, the ring-encoded
//!   server weights inside it, the engine config, the backend). It is
//!   `Send + Sync` and shared behind an `Arc` by every worker thread.
//! * [`MaterialPool`] — the per-inference state, factored out: a
//!   `Mutex`-guarded queue of ready [`InferenceMaterial`] sets plus the
//!   deterministic per-inference seed stream and the exact
//!   [`PreprocessLedger`]. Any number of threads [`MaterialPool::take`]
//!   concurrently; dealer work always runs *outside* the lock so
//!   generation parallelises, while seed allocation and ledger
//!   accounting stay atomic.
//! * [`Replenisher`] — a background thread running the **offline
//!   phase**: whenever the pool drops below its low watermark it tops
//!   the pool back up to the high watermark with the deterministic
//!   dealer, keeping online inferences off the dealer's critical path.
//!
//! Ledger exactness under contention is a hard invariant (and is stress
//! tested): at every quiescent point,
//! `generated_offline + generated_inline == consumed + available`.

use crate::backend::{NlMaterial, PiBackendImpl};
use crate::engine::PiConfig;
use crate::plan::{Plan, Step, StepData};
use crate::report::{OpCounts, PreprocessLedger};
use crate::store::{MaterialStore, RecordKind, RestoreReport};
use crate::{PiError, Result};
use c2pi_mpc::dealer::{AffineCorrClient, AffineCorrServer, Dealer, DealtSeed, Halves};
use c2pi_mpc::prg::SeedSequence;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client-side per-inference material for one step.
pub(crate) enum ClientMat {
    Lin(c2pi_mpc::dealer::LinearCorrClient),
    Nl(NlMaterial),
    Affine(AffineCorrClient),
    None,
}

/// Server-side per-inference material for one step (weights live in the
/// compiled plan, not here).
pub(crate) enum ServerMat {
    Lin(c2pi_mpc::dealer::LinearCorrServer),
    Nl(NlMaterial),
    Affine(AffineCorrServer),
    None,
}

/// One inference's worth of correlated randomness plus the seed that
/// derives the parties' local randomness. Everything in here is
/// consumed by exactly one online inference. Opaque outside the crate —
/// obtained from [`MaterialPool::take`] and handed straight to a
/// session's online entry points.
///
/// A set holds the halves its dealer was asked for ([`Halves`]): both
/// from a session's own pool, the server's from a
/// [`crate::ShardedMaterialPool`], the client's from
/// [`SessionCore::expand_dealt`]. `counts` describe the seed, not the
/// holdings, and are the same for all three.
pub struct InferenceMaterial {
    pub(crate) seed: u64,
    pub(crate) cmats: Option<Vec<ClientMat>>,
    pub(crate) smats: Option<Vec<ServerMat>>,
    pub(crate) counts: OpCounts,
}

impl InferenceMaterial {
    /// The deterministic per-inference seed this material was dealt
    /// from (both parties' halves derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Takes the client half out, for the party about to walk it.
    ///
    /// # Errors
    ///
    /// [`PiError::BadConfig`] naming the missing half when the set was
    /// dealt server-sided (or its client half was already taken).
    pub(crate) fn take_client(&mut self) -> Result<Vec<ClientMat>> {
        self.cmats.take().ok_or_else(|| self.missing("client"))
    }

    /// Takes the server half out; as [`Self::take_client`].
    pub(crate) fn take_server(&mut self) -> Result<Vec<ServerMat>> {
        self.smats.take().ok_or_else(|| self.missing("server"))
    }

    fn missing(&self, half: &str) -> PiError {
        PiError::BadConfig(format!(
            "material set for seed {:#x} holds no {half} half (it holds: {})",
            self.seed,
            self.held()
        ))
    }

    /// The halves this set holds, for error messages and `Debug`.
    fn held(&self) -> &'static str {
        match (&self.cmats, &self.smats) {
            (Some(_), Some(_)) => "client + server",
            (Some(_), None) => "client",
            (None, Some(_)) => "server",
            (None, None) => "none",
        }
    }
}

impl std::fmt::Debug for InferenceMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps = self.cmats.as_ref().map(Vec::len).or(self.smats.as_ref().map(Vec::len));
        f.debug_struct("InferenceMaterial")
            .field("seed", &self.seed)
            .field("halves", &self.held())
            .field("steps", &steps.unwrap_or(0))
            .finish()
    }
}

/// The immutable, shareable part of a compiled session: the execution
/// plan (including the server's ring-encoded weights), the engine
/// configuration and the protocol backend.
///
/// A `SessionCore` is created once per deployment and shared behind an
/// `Arc` by the material pool, the background replenisher and every
/// per-connection worker — none of them ever needs to mutate it.
pub struct SessionCore {
    pub(crate) plan: Plan,
    pub(crate) cfg: PiConfig,
    pub(crate) backend: Arc<dyn PiBackendImpl>,
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCore")
            .field("backend", &self.backend.name())
            .field("steps", &self.plan.steps.len())
            .finish()
    }
}

impl SessionCore {
    /// The backend's engine name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Engine configuration the session was compiled with.
    pub fn config(&self) -> &PiConfig {
        &self.cfg
    }

    /// Per-step `(kind, items)` metadata of the plan — the shape a
    /// [`DealtSeed`] carries so the receiving party can validate that
    /// both sides expand the same stream.
    fn step_meta(&self) -> Vec<(u8, u32)> {
        self.plan
            .steps
            .iter()
            .map(|s| match s {
                Step::Conv { c, h, w, .. } => (1u8, (c * h * w) as u32),
                Step::Fc { k } => (2, *k as u32),
                Step::Relu { n } => (3, *n as u32),
                Step::MaxPool { c, h, w } => (4, (c * (h / 2) * (w / 2)) as u32),
                Step::AvgPool { c, h, w, .. } => (5, (c * h * w) as u32),
                Step::Flatten => (6, 0),
                Step::Affine => (7, 0),
            })
            .collect()
    }

    /// Stable fingerprint of this deployment: backend, master dealer
    /// seed, fixed-point format and plan shape (FNV-1a). Used as the
    /// [`DealtSeed`] nonce — so a seed dealt under one deployment never
    /// expands under another — and as the [`MaterialStore`] header
    /// fingerprint so a store file is only ever warm-booted by the
    /// deployment that wrote it. Deliberately excludes knobs documented
    /// as result-invariant (`gc_chunk`).
    pub fn session_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(b"c2pi/session-fingerprint/v1");
        eat(self.backend.name().as_bytes());
        eat(&self.cfg.dealer_seed.to_le_bytes());
        eat(&self.cfg.fixed.frac_bits().to_le_bytes());
        for (kind, items) in self.step_meta() {
            eat(&[kind]);
            eat(&items.to_le_bytes());
        }
        h
    }

    /// The compact dealt artifact for per-inference seed `seed` — what
    /// the server actually ships to the client instead of expanded
    /// correlations.
    pub(crate) fn dealt_seed(&self, seed: u64) -> DealtSeed {
        DealtSeed { seed, nonce: self.session_fingerprint(), steps: self.step_meta() }
    }

    /// **Dealt contract, client side**: decodes the first frame a server
    /// sent ([`SessionCore::serve_prepared`]), checks that the seed was
    /// dealt for this exact deployment (nonce and plan shape), and
    /// expands the **client half** of the material it stands for — the
    /// masks, `c₀` shares, tables and evaluator labels a client walk
    /// reads. Nothing here multiplies by, or otherwise reads the values
    /// of, the plan's weights: a client compiled from the public
    /// architecture with zeroed weights expands the identical half
    /// (DESIGN.md §6). The returned set cannot be served
    /// ([`SessionCore::serve_prepared`] refuses it by name).
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`PiError::Mpc`] protocol error for a
    /// malformed frame or one from a peer on another `DealtSeed` version
    /// (a different expansion function), [`PiError::BadConfig`] for a
    /// seed dealt under another deployment, plus dealer errors.
    pub fn expand_dealt(&self, frame: &[u8]) -> Result<InferenceMaterial> {
        let dealt = DealtSeed::decode(frame)?;
        if dealt != self.dealt_seed(dealt.seed) {
            return Err(PiError::BadConfig(
                "dealt seed was not produced for this deployment (backend, plan shape \
                 or master configuration differ)"
                    .into(),
            ));
        }
        self.deal(dealt.seed, Halves::Client)
    }

    /// Runs the trusted-dealer stand-in for one inference: walks the
    /// plan and expands `halves` of the correlated randomness from the
    /// compact [`DealtSeed`] for `seed`. Deterministic in `seed` (and
    /// the session fingerprint), input-independent, and `&self` — any
    /// thread may deal concurrently.
    ///
    /// Which halves is decided by the entry point, never by a setting:
    /// a session's own [`MaterialPool`] deals both (in-process `infer`
    /// plays both parties over one set), a [`crate::ShardedMaterialPool`]
    /// the server's (its sets only ever reach
    /// [`SessionCore::serve_prepared`]), [`SessionCore::expand_dealt`]
    /// the client's. All three walk the one stream in the one order —
    /// a sided deal skips the work derived from draws it does not keep,
    /// never the draws — so the client half of one party's expansion and
    /// the server half of the other's are the two halves of one set, and
    /// neither `DealtSeed`'s version nor the store's moves.
    ///
    /// The returned counts carry the seed-compression shape: how many
    /// bytes the dealt artifact occupies on the wire (`seed_bytes`) and
    /// how many its expansion occupies, both halves (`expanded_bytes` —
    /// what the seed stands for, equal for every `halves`).
    ///
    /// # Errors
    ///
    /// Propagates dealer errors (caller shape bugs);
    /// [`PiError::BadConfig`] when the backend returns no material for a
    /// half it was asked for.
    pub(crate) fn deal(&self, seed: u64, halves: Halves) -> Result<InferenceMaterial> {
        let dealt = self.dealt_seed(seed);
        let mut dealer = Dealer::for_dealt(&dealt);
        let mut counts = self.plan.base_counts.clone();
        // Session-wide correlations first (the per-inference base-OT
        // set the backend's extension amortises across layers).
        self.backend.prepare_session(&mut dealer, &mut counts);
        let steps = self.plan.steps.len();
        let mut cmats = halves.client().then(|| Vec::with_capacity(steps));
        let mut smats = halves.server().then(|| Vec::with_capacity(steps));
        // Keeps the wanted halves of one step; a backend that hands
        // back an unwanted half too is tolerated, one that withholds a
        // wanted half is not.
        let mut keep = |c: Option<ClientMat>, s: Option<ServerMat>| -> Result<()> {
            let withheld = |half| {
                PiError::BadConfig(format!(
                    "the {} backend prepared no {half} half for a {halves:?} deal",
                    self.backend.name()
                ))
            };
            if let Some(cmats) = cmats.as_mut() {
                cmats.push(c.ok_or_else(|| withheld("client"))?);
            }
            if let Some(smats) = smats.as_mut() {
                smats.push(s.ok_or_else(|| withheld("server"))?);
            }
            Ok(())
        };
        for (step, data) in self.plan.steps.iter().zip(self.plan.data.iter()) {
            match (step, data) {
                (Step::Conv { .. } | Step::Fc { .. }, StepData::Lin { w, cols, .. }) => {
                    let (c, s) = self.backend.prepare_linear(&mut dealer, w, *cols, halves)?;
                    keep(c.map(ClientMat::Lin), s.map(ServerMat::Lin))?;
                }
                (Step::Relu { n }, StepData::None) => {
                    let (c, s) =
                        self.backend.prepare_relu(&mut dealer, *n, &self.cfg, &mut counts, halves);
                    keep(c.map(ClientMat::Nl), s.map(ServerMat::Nl))?;
                }
                (Step::MaxPool { c, h, w }, StepData::None) => {
                    let windows = c * (h / 2) * (w / 2);
                    let (c, s) = self.backend.prepare_maxpool(
                        &mut dealer,
                        windows,
                        &self.cfg,
                        &mut counts,
                        halves,
                    );
                    keep(c.map(ClientMat::Nl), s.map(ServerMat::Nl))?;
                }
                (Step::Affine, StepData::Affine { scale, .. }) => {
                    let (c, s) = dealer.affine_corr_for(scale, halves);
                    keep(c.map(ClientMat::Affine), s.map(ServerMat::Affine))?;
                }
                (Step::AvgPool { .. } | Step::Flatten, StepData::None) => {
                    keep(Some(ClientMat::None), Some(ServerMat::None))?;
                }
                _ => return Err(PiError::BadConfig("plan/data mismatch".into())),
            }
        }
        counts.seed_bytes += dealt.wire_bytes();
        counts.expanded_bytes += dealer.expanded_bytes();
        Ok(InferenceMaterial { seed, cmats, smats, counts })
    }
}

/// The serialized authority over one deployment's deterministic
/// per-inference seed stream.
///
/// Factored out of the pool so several pool shards can share one
/// stream: the tiny mutex here guards *only* a PRG step and a position
/// increment — nanoseconds — while each shard's own lock covers its
/// queue, ledger and store I/O. That split is what makes the consumed
/// multiset of a sharded deployment a prefix-permutation of the single
/// sequential stream (every seed is allocated exactly once, in global
/// order, no matter which shard asked), killing the one hot global
/// lock without giving up determinism.
pub struct SeedAllocator {
    inner: Mutex<AllocState>,
}

struct AllocState {
    seq: SeedSequence,
    /// Seeds handed out so far — the global stream position, persisted
    /// with every store record so a warm boot can fast-forward.
    drawn: u64,
}

impl std::fmt::Debug for SeedAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedAllocator").field("drawn", &self.drawn()).finish()
    }
}

impl SeedAllocator {
    /// Allocator over the domain-separated per-inference stream forked
    /// from `master` (the same stream a single-threaded session uses).
    pub fn new(master: u64) -> Self {
        SeedAllocator {
            inner: Mutex::new(AllocState {
                seq: SeedSequence::new(master, b"c2pi/session/dealer"),
                drawn: 0,
            }),
        }
    }

    /// Hands out the next seed with its 1-based stream position.
    pub fn next(&self) -> (u64, u64) {
        let mut st = self.inner.lock().expect("seed allocator mutex poisoned");
        st.drawn += 1;
        (st.drawn, st.seq.next())
    }

    /// The stream position: seeds allocated so far.
    pub fn drawn(&self) -> u64 {
        self.inner.lock().expect("seed allocator mutex poisoned").drawn
    }

    /// Advances the stream to `position` (a warm boot discarding every
    /// seed a previous process already drew). No-op when the stream is
    /// already at or past it.
    pub(crate) fn fast_forward_to(&self, position: u64) {
        let mut st = self.inner.lock().expect("seed allocator mutex poisoned");
        while st.drawn < position {
            st.drawn += 1;
            st.seq.next();
        }
    }
}

/// Mutable pool state, guarded by one mutex.
struct PoolState {
    ready: VecDeque<InferenceMaterial>,
    ledger: PreprocessLedger,
    shutdown: bool,
    /// Highest global stream position this pool has observed (its own
    /// draws and its warm-boot scan), persisted with every store record.
    drawn: u64,
    /// Persistent spill target; `None` for in-memory-only pools.
    store: Option<MaterialStore>,
}

/// Result of the pooled-only take path ([`MaterialPool::try_take`]),
/// which — unlike [`MaterialPool::take`] — never falls back to inline
/// dealing, so it must say explicitly why no material came back.
#[derive(Debug)]
pub enum PoolTake {
    /// A pooled material set.
    Material(Box<InferenceMaterial>),
    /// The pool is currently empty but still live (more material may be
    /// preprocessed or replenished).
    Empty,
    /// The pool has been shut down and drained: no material will ever
    /// come back.
    ShutDown,
}

/// A thread-safe pool of preprocessed per-inference material over one
/// [`SessionCore`].
///
/// This is the meeting point of the paper's two phases when serving is
/// concurrent:
///
/// * **offline** (dealer side): [`MaterialPool::preprocess`] and the
///   background [`Replenisher`] push freshly dealt material;
/// * **online** (per-connection workers): every inference calls
///   [`MaterialPool::take`], which pops pooled material, or — when the
///   pool is dry — allocates the next deterministic seed and runs the
///   dealer *inline on the calling thread*, recording the miss in the
///   ledger so benchmarks can't mistake dealer time for online latency.
///
/// The mutex protects only the queue, the seed stream and the ledger;
/// dealer work (the expensive part) always runs outside it, so
/// concurrent takers and the replenisher generate material in parallel.
/// Seeds are handed out under the lock in a single deterministic
/// sequence, which makes the *multiset* of consumed material identical
/// to a sequential run with the same master seed — the property the
/// `pool_stress` test pins down bit-for-bit.
pub struct MaterialPool {
    core: Arc<SessionCore>,
    /// The halves every set of this pool holds — fixed by the
    /// constructor, i.e. by who consumes the pool.
    halves: Halves,
    /// Seed stream authority — exclusive to this pool, or shared with
    /// sibling shards (see [`SeedAllocator`]).
    alloc: Arc<SeedAllocator>,
    state: Mutex<PoolState>,
    /// Notified on every take and on shutdown; the replenisher waits
    /// here for the pool to fall below its low watermark.
    drained: Condvar,
}

impl std::fmt::Debug for MaterialPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("MaterialPool")
            .field("pooled", &st.ready.len())
            .field("ledger", &st.ledger)
            .finish()
    }
}

impl MaterialPool {
    /// Creates an empty pool whose per-inference seeds fork from
    /// `core.config().dealer_seed` (the same domain-separated stream a
    /// single-threaded session uses). Its sets hold **both** halves:
    /// this is the pool behind [`crate::PiSession`], whose in-process
    /// inference plays both parties over one set.
    pub fn new(core: Arc<SessionCore>) -> Self {
        let alloc = Arc::new(SeedAllocator::new(core.cfg.dealer_seed));
        Self::with_allocator(core, alloc)
    }

    /// Creates an empty pool drawing from an explicit (possibly shared)
    /// seed allocator. Like [`MaterialPool::new`] it deals both halves
    /// of every set.
    pub fn with_allocator(core: Arc<SessionCore>, alloc: Arc<SeedAllocator>) -> Self {
        Self::sided(core, alloc, Halves::Both)
    }

    /// A pool whose every deal — offline, inline and store replay —
    /// expands only `halves`: what [`crate::ShardedMaterialPool`] builds
    /// its server-sided shards with.
    pub(crate) fn sided(core: Arc<SessionCore>, alloc: Arc<SeedAllocator>, halves: Halves) -> Self {
        MaterialPool {
            core,
            halves,
            alloc,
            state: Mutex::new(PoolState {
                ready: VecDeque::new(),
                ledger: PreprocessLedger::default(),
                shutdown: false,
                drawn: 0,
                store: None,
            }),
            drained: Condvar::new(),
        }
    }

    /// The shared immutable session core this pool deals against.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// The seed allocator this pool draws from.
    pub fn allocator(&self) -> &Arc<SeedAllocator> {
        &self.alloc
    }

    /// Allocates the next deterministic per-inference seed, recording
    /// the stream position in this pool's persisted watermark.
    fn draw_seed(&self, st: &mut MutexGuard<'_, PoolState>) -> u64 {
        let (position, seed) = self.alloc.next();
        st.drawn = st.drawn.max(position);
        seed
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("material pool mutex poisoned")
    }

    /// Material sets currently pooled for future inferences.
    pub fn pooled(&self) -> usize {
        self.lock().ready.len()
    }

    /// Ledger snapshot with `available` filled in.
    pub fn ledger(&self) -> PreprocessLedger {
        let st = self.lock();
        let mut l = st.ledger;
        l.available = st.ready.len() as u64;
        l
    }

    /// Offline phase: deals material for `n` future inferences and
    /// pools it. Safe to call from any thread, concurrently with takers
    /// and the replenisher; dealer work runs outside the pool lock.
    ///
    /// # Errors
    ///
    /// Propagates dealer errors (caller shape bugs) and store append
    /// failures.
    pub fn preprocess(&self, n: usize) -> Result<()> {
        for _ in 0..n {
            drop(self.deal_offline(self.lock())?);
        }
        Ok(())
    }

    /// One offline deal, shared by [`MaterialPool::preprocess`] and the
    /// [`Replenisher`]: the seed is drawn under the held lock, the
    /// dealer runs outside it, and the ledger credit and the push happen
    /// under the lock again, which is handed back still held.
    fn deal_offline<'a>(
        &'a self,
        mut st: MutexGuard<'a, PoolState>,
    ) -> Result<MutexGuard<'a, PoolState>> {
        let seed = self.draw_seed(&mut st);
        drop(st);
        let start = Instant::now();
        let material = self.core.deal(seed, self.halves)?;
        let elapsed = start.elapsed().as_secs_f64();
        let mut st = self.lock();
        st.ledger.generated_offline += 1;
        credit_generation(&mut st.ledger, &material.counts, elapsed);
        push_ready(&mut st, material)?;
        Ok(st)
    }

    /// Pops pooled material under the held lock, doing the consumed
    /// accounting and the store append (so a concurrent taker can never
    /// observe the pop before the store records it).
    fn pop_ready(&self, st: &mut MutexGuard<'_, PoolState>) -> Result<Option<InferenceMaterial>> {
        match st.ready.pop_front() {
            Some(m) => {
                st.ledger.consumed += 1;
                persist(st, RecordKind::Consumed, m.seed)?;
                Ok(Some(m))
            }
            None => Ok(None),
        }
    }

    /// Takes one inference's material: pooled if available, otherwise
    /// dealt inline on the calling thread (and recorded as
    /// `generated_inline` — the critical-path miss the offline phase
    /// exists to avoid).
    ///
    /// # Errors
    ///
    /// Propagates dealer errors from the inline path and store append
    /// failures.
    pub fn take(&self) -> Result<InferenceMaterial> {
        let mut st = self.lock();
        if let Some(m) = self.pop_ready(&mut st)? {
            drop(st);
            // Wake the replenisher: the pool may now be below watermark.
            self.drained.notify_all();
            return Ok(m);
        }
        // Pool dry: allocate the next seed atomically, then pay the
        // dealer outside the lock so concurrent misses generate in
        // parallel.
        let seed = self.draw_seed(&mut st);
        st.ledger.consumed += 1;
        st.ledger.generated_inline += 1;
        drop(st);
        self.drained.notify_all();
        let start = Instant::now();
        let material = self.core.deal(seed, self.halves)?;
        let elapsed = start.elapsed().as_secs_f64();
        let mut st = self.lock();
        credit_generation(&mut st.ledger, &material.counts, elapsed);
        persist(&mut st, RecordKind::Consumed, seed)?;
        drop(st);
        Ok(material)
    }

    /// Non-blocking pooled-only take. Pops ready material even during
    /// shutdown (draining), and reports [`PoolTake::ShutDown`] only once
    /// the pool is both shut down and empty.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn try_take(&self) -> Result<PoolTake> {
        let mut st = self.lock();
        if let Some(m) = self.pop_ready(&mut st)? {
            drop(st);
            self.drained.notify_all();
            return Ok(PoolTake::Material(Box::new(m)));
        }
        Ok(if st.shutdown { PoolTake::ShutDown } else { PoolTake::Empty })
    }

    /// Records one externally dealt material set (a client generating
    /// its half for a server-dealt seed): dealer time on this party's
    /// critical path, so it counts as consumed + inline.
    pub(crate) fn note_dealt_inline(&self, seconds: f64, counts: &OpCounts) {
        let mut st = self.lock();
        st.ledger.consumed += 1;
        st.ledger.generated_inline += 1;
        credit_generation(&mut st.ledger, counts, seconds);
    }

    /// Attaches a persistent [`MaterialStore`] at `path`, warm-booting
    /// the pool from whatever a previous process left there: the seed
    /// stream is fast-forwarded past every seed the previous process
    /// drew, the ledger resumes from its last persisted snapshot, and
    /// every dealt-but-unconsumed seed is re-expanded into the pool —
    /// the halves this pool deals, so a store written by a two-sided
    /// pool warm-boots a server-sided one (the log holds seeds, and a
    /// seed means the same set to both) — counted in `ledger.restored`,
    /// *not* as new offline generation: nothing is re-preprocessed. From then on every deal and consume
    /// is appended to the store.
    ///
    /// Must be called on a fresh pool, before any preprocessing or
    /// serving.
    ///
    /// # Errors
    ///
    /// [`PiError::Store`] on I/O failure or when the file belongs to a
    /// different deployment (fingerprint mismatch); [`PiError::BadConfig`]
    /// when the pool already has a store or has already been used.
    pub fn attach_store(&self, path: impl AsRef<Path>) -> Result<RestoreReport> {
        let (store, scan) = MaterialStore::open(path.as_ref(), self.core.session_fingerprint())?;
        if self.alloc.drawn() != 0 {
            return Err(PiError::BadConfig(
                "attach_store requires a fresh seed stream (attach before preprocessing or \
                 serving; sharded pools attach through ShardedMaterialPool::attach_stores)"
                    .into(),
            ));
        }
        self.alloc.fast_forward_to(scan.drawn);
        self.install_scan(store, scan)
    }

    /// Installs an already-opened store and its replayed scan into this
    /// pool: ledger resumed, pending seeds re-expanded into the ready
    /// queue (counted in `ledger.restored`). The caller is responsible
    /// for fast-forwarding the seed allocator — exactly once per
    /// *stream*, which for sharded deployments means once across all
    /// segments, not once per shard.
    pub(crate) fn install_scan(
        &self,
        store: MaterialStore,
        scan: crate::store::StoreScan,
    ) -> Result<RestoreReport> {
        let mut st = self.lock();
        if st.store.is_some() {
            return Err(PiError::BadConfig("material store already attached".into()));
        }
        if st.drawn != 0 || st.ledger != PreprocessLedger::default() {
            return Err(PiError::BadConfig(
                "attach_store requires a fresh pool (attach before preprocessing or serving)"
                    .into(),
            ));
        }
        st.drawn = scan.drawn;
        st.ledger = scan.ledger;
        st.ledger.restored += scan.pending.len() as u64;
        let report = RestoreReport {
            restored: scan.pending.len(),
            drawn: scan.drawn,
            records: scan.records,
            truncated_tail: scan.truncated,
        };
        // Re-expand the surviving seeds into ready material. Boot-time
        // work under the lock is fine: nothing serves yet.
        for &seed in &scan.pending {
            let material = self.core.deal(seed, self.halves)?;
            st.ready.push_back(material);
        }
        st.store = Some(store);
        Ok(report)
    }

    /// Whether a persistent store is attached.
    pub fn has_store(&self) -> bool {
        self.lock().store.is_some()
    }

    /// Graceful-drain flush: appends a flush marker carrying the final
    /// ledger snapshot and fsyncs the store. No-op without a store.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn flush_store(&self) -> Result<()> {
        let mut st = self.lock();
        if st.store.is_some() {
            persist(&mut st, RecordKind::Flush, 0)?;
            st.store.as_mut().expect("store checked above").sync()?;
        }
        Ok(())
    }

    /// Signals shutdown to any [`Replenisher`] waiting on this pool.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.drained.notify_all();
    }

    /// Whether [`MaterialPool::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.lock().shutdown
    }
}

/// Folds one dealt material set's generation shape into the ledger
/// (time, OT counts, seed-compression bytes) — everything except the
/// offline/inline/consumed attribution, which differs per path.
fn credit_generation(ledger: &mut PreprocessLedger, counts: &OpCounts, seconds: f64) {
    ledger.generation_seconds += seconds;
    ledger.base_ots += counts.base_ots;
    ledger.extended_ots += counts.ext_ots;
    ledger.seed_bytes += counts.seed_bytes;
    ledger.expanded_bytes += counts.expanded_bytes;
}

/// Pushes dealt material into the ready queue and appends the matching
/// store record under the same lock hold, so no taker can consume
/// material the store has not yet recorded as dealt.
fn push_ready(st: &mut MutexGuard<'_, PoolState>, material: InferenceMaterial) -> Result<()> {
    let seed = material.seed;
    st.ready.push_back(material);
    persist(st, RecordKind::Dealt, seed)
}

/// Appends one record (seed + stream position + ledger snapshot with
/// `available` filled) to the attached store, if any.
fn persist(st: &mut MutexGuard<'_, PoolState>, kind: RecordKind, seed: u64) -> Result<()> {
    let drawn = st.drawn;
    let mut ledger = st.ledger;
    ledger.available = st.ready.len() as u64;
    match st.store.as_mut() {
        Some(store) => store.append(kind, seed, drawn, &ledger),
        None => Ok(()),
    }
}

/// Handle to the background offline-phase thread that keeps a
/// [`MaterialPool`] topped up.
///
/// The thread sleeps on the pool's condvar while `pooled() >= low`; as
/// soon as takers drain the pool below the low watermark it deals fresh
/// material (outside the lock) until the pool reaches the high
/// watermark again. In paper terms this thread *is* the offline phase,
/// running concurrently with every online inference. Dropping the
/// handle (or calling [`Replenisher::stop`]) shuts the thread down and
/// joins it.
#[derive(Debug)]
pub struct Replenisher {
    pool: Arc<MaterialPool>,
    handle: Option<JoinHandle<Result<()>>>,
}

impl Replenisher {
    /// Spawns the replenisher thread for `pool`. `low` is the watermark
    /// that triggers a refill, `high` the level it refills to
    /// (`low < high`; a refill batch is `high - pooled()` sets).
    pub fn spawn(pool: Arc<MaterialPool>, low: usize, high: usize) -> Replenisher {
        let high = high.max(low + 1);
        let worker = Arc::clone(&pool);
        let handle = std::thread::spawn(move || replenish_loop(&worker, low, high));
        Replenisher { pool, handle: Some(handle) }
    }

    /// The pool this replenisher feeds.
    pub fn pool(&self) -> &Arc<MaterialPool> {
        &self.pool
    }

    /// Shuts the background thread down and joins it, returning its
    /// final result.
    ///
    /// # Errors
    ///
    /// Returns the dealer error that terminated the thread early, or
    /// [`PiError::PartyPanic`] if it panicked.
    pub fn stop(mut self) -> Result<()> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<()> {
        self.pool.shutdown();
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| PiError::PartyPanic("replenisher"))?,
            None => Ok(()),
        }
    }
}

impl Drop for Replenisher {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

fn replenish_loop(pool: &MaterialPool, low: usize, high: usize) -> Result<()> {
    let mut st = pool.lock();
    loop {
        while !st.shutdown && st.ready.len() >= low {
            st = pool.drained.wait(st).expect("material pool mutex poisoned");
        }
        if st.shutdown {
            return Ok(());
        }
        while st.ready.len() < high && !st.shutdown {
            st = pool.deal_offline(st)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::specs_of;
    use crate::plan::compile;
    use c2pi_nn::layers::{Conv2d, Relu};
    use c2pi_nn::Sequential;
    use std::time::Duration;

    fn tiny_core() -> Arc<SessionCore> {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        let cfg = PiConfig::default();
        let plan = compile(&specs_of(&seq), (1, 6, 6), cfg.fixed).unwrap();
        Arc::new(SessionCore { plan, cfg, backend: cfg.backend.engine() })
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn ledger_tracks_offline_and_inline_paths() {
        let pool = MaterialPool::new(tiny_core());
        pool.preprocess(2).unwrap();
        assert_eq!(pool.pooled(), 2);
        let _a = pool.take().unwrap();
        let _b = pool.take().unwrap();
        let _c = pool.take().unwrap(); // dry → inline
        let l = pool.ledger();
        assert_eq!(l.generated_offline, 2);
        assert_eq!(l.generated_inline, 1);
        assert_eq!(l.consumed, 3);
        assert_eq!(l.available, 0);
        assert_eq!(l.generated_offline + l.generated_inline, l.consumed + l.available);
    }

    #[test]
    fn a_frame_from_an_earlier_dealt_function_is_refused_not_expanded() {
        // A version-2 peer drew its bit triples a keystream word per
        // bit, a version-1 peer garbled under a different hash; expanding
        // either's seed here would produce material the other side cannot
        // use. The frame is otherwise exactly what this deployment would
        // have dealt.
        let core = tiny_core();
        let frame = core.dealt_seed(7).encode();
        assert!(core.expand_dealt(&frame).is_ok());
        assert_eq!(frame[2], 3, "DealtSeed version byte");
        for earlier in [1, 2] {
            let mut old = frame.clone();
            old[2] = earlier;
            let err = core.expand_dealt(&old).map(|m| m.seed).unwrap_err();
            assert!(
                matches!(&err, PiError::Mpc(c2pi_mpc::MpcError::Protocol(why))
                    if why == "dealt seed: unsupported version"),
                "v{earlier}: {err:?}"
            );
        }
    }

    #[test]
    fn sided_deals_describe_the_same_seed_and_name_what_they_hold() {
        // `counts` (seed and expanded bytes included) are the seed's,
        // not the holder's: equal for all three deals on both backends.
        use crate::engine::PiBackend;
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let core = tiny_core();
            let core =
                SessionCore { plan: core.plan.clone(), cfg: core.cfg, backend: backend.engine() };
            let mut both = core.deal(7, Halves::Both).unwrap();
            let mut client = core.deal(7, Halves::Client).unwrap();
            let mut server = core.deal(7, Halves::Server).unwrap();
            assert!(both.counts.expanded_bytes > both.counts.seed_bytes);
            assert_eq!(client.counts, both.counts, "{backend:?}: client-sided counts");
            assert_eq!(server.counts, both.counts, "{backend:?}: server-sided counts");
            for (set, held) in
                [(&both, "client + server"), (&client, "client"), (&server, "server")]
            {
                let shown = format!("{set:?}");
                assert!(shown.contains(&format!("halves: {held:?}, steps: 2")), "{shown}");
            }
            // The half a set lacks is a typed error that names it; the
            // half it holds comes out once.
            for (err, half) in [
                (server.take_client().map(|m| m.len()).unwrap_err(), "no client half"),
                (client.take_server().map(|m| m.len()).unwrap_err(), "no server half"),
            ] {
                assert!(matches!(&err, PiError::BadConfig(why) if why.contains(half)), "{err:?}");
            }
            assert_eq!(both.take_client().unwrap().len(), 2);
            assert_eq!(both.take_server().unwrap().len(), 2);
            assert!(both.take_server().is_err());
        }
    }

    #[test]
    fn seeds_are_the_sequential_stream_regardless_of_path() {
        // Pool path and a bare SeedSequence must hand out the same
        // deterministic seeds in order.
        let core = tiny_core();
        let mut reference = SeedSequence::new(core.cfg.dealer_seed, b"c2pi/session/dealer");
        let want: Vec<u64> = (0..4).map(|_| reference.next()).collect();
        let pool = MaterialPool::new(core);
        pool.preprocess(2).unwrap();
        let got: Vec<u64> = (0..4).map(|_| pool.take().unwrap().seed).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn replenisher_keeps_pool_above_watermark_and_stops_cleanly() {
        let pool = Arc::new(MaterialPool::new(tiny_core()));
        let replenisher = Replenisher::spawn(Arc::clone(&pool), 2, 5);
        // Empty pool is below the watermark: it must fill to `high`.
        assert!(
            wait_until(Duration::from_secs(20), || pool.pooled() >= 5),
            "replenisher never reached the high watermark (pooled {})",
            pool.pooled()
        );
        // Drain below the low watermark; it must recover.
        for _ in 0..4 {
            pool.take().unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(20), || pool.pooled() >= 5),
            "replenisher never recovered the watermark (pooled {})",
            pool.pooled()
        );
        let l = pool.ledger();
        assert_eq!(l.generated_inline, 0, "replenisher kept takers off the inline path");
        replenisher.stop().unwrap();
        assert!(pool.is_shut_down());
    }

    #[test]
    fn ledger_accounts_seed_and_expanded_bytes() {
        let pool = MaterialPool::new(tiny_core());
        pool.preprocess(2).unwrap();
        let l = pool.ledger();
        assert!(l.seed_bytes > 0, "dealt seeds have a wire size");
        assert!(l.expanded_bytes > l.seed_bytes, "expansion must outweigh the seed");
        // Per-set seed bytes are tens of bytes, not megabytes.
        assert!(l.seed_bytes / 2 < 1024, "per-set seed bytes {}", l.seed_bytes / 2);
    }

    #[test]
    fn try_take_reports_empty_then_material_then_shutdown() {
        let pool = MaterialPool::new(tiny_core());
        assert!(matches!(pool.try_take().unwrap(), PoolTake::Empty));
        pool.preprocess(2).unwrap();
        assert!(matches!(pool.try_take().unwrap(), PoolTake::Material(_)));
        pool.shutdown();
        // Draining: pooled material still comes back after shutdown.
        assert!(matches!(pool.try_take().unwrap(), PoolTake::Material(_)));
        assert!(matches!(pool.try_take().unwrap(), PoolTake::ShutDown));
    }

    #[test]
    fn session_fingerprint_separates_deployments() {
        let a = tiny_core();
        let b = tiny_core();
        assert_eq!(a.session_fingerprint(), b.session_fingerprint(), "same deployment");
        let mut cfg = a.cfg;
        cfg.dealer_seed += 1;
        let c = Arc::new(SessionCore { plan: a.plan.clone(), cfg, backend: a.backend.clone() });
        assert_ne!(a.session_fingerprint(), c.session_fingerprint(), "seed must enter");
    }
}
