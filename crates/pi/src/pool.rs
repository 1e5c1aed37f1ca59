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
//!   server weights inside it, the engine config with its backend). It is
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

use crate::backend::{deal_nl, price, Stage};
use crate::engine::PiConfig;
use crate::plan::{Plan, Step};
use crate::report::{OpCounts, PreprocessLedger};
use crate::store::{fnv1a, MaterialStore, RecordKind, RestoreReport};
use crate::{PiError, Result};
use c2pi_mpc::dealer::{Dealer, DealtSeed, Halves, LinearCorrClient, LinearCorrServer};
use c2pi_mpc::gcpre::{MaskedOp, PreGarbledClient, PreGarbledServer};
use c2pi_mpc::prg::SeedSequence;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client-side per-inference material for one step: a linear
/// correlation, or a non-linear layer's half — pre-garbled (Delphi) or
/// comparison stages (Cheetah).
pub(crate) enum ClientMat {
    Lin(LinearCorrClient),
    Gc(PreGarbledClient),
    Cmp(Vec<Stage>),
    None,
}

/// Server-side per-inference material for one step (weights live in the
/// compiled plan, not here); variants as [`ClientMat`].
pub(crate) enum ServerMat {
    Lin(LinearCorrServer),
    Gc(PreGarbledServer),
    Cmp(Vec<Stage>),
    None,
}

/// The error for a step handed material of the wrong kind: another
/// step's, or another backend's.
pub(crate) fn mismatch(party: &str) -> PiError {
    PiError::BadConfig(format!("plan/material mismatch ({party})"))
}

/// Unwraps one server step's per-member materials as the variant the
/// step consumes.
pub(crate) fn step_mats<T>(
    mats: Vec<ServerMat>,
    pick: fn(ServerMat) -> Option<T>,
) -> Result<Vec<T>> {
    mats.into_iter().map(|m| pick(m).ok_or_else(|| mismatch("server"))).collect()
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
/// [`SessionCore::expand_dealt`]. A set carries no costs: every set of
/// a deployment is priced by its [`SessionCore`]'s counts.
pub struct InferenceMaterial {
    pub(crate) seed: u64,
    pub(crate) cmats: Option<Vec<ClientMat>>,
    pub(crate) smats: Option<Vec<ServerMat>>,
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
/// configuration, whose `backend` is the protocol backend, and what one
/// inference costs under the two.
///
/// A `SessionCore` is created once per deployment and shared behind an
/// `Arc` by the material pool, the background replenisher and every
/// per-connection worker — none of them ever needs to mutate it.
pub struct SessionCore {
    pub(crate) plan: Plan,
    pub(crate) cfg: PiConfig,
    /// One inference's counts, priced once from the plan and backend
    /// ([`price`]); every report and ledger credit reads them.
    pub(crate) counts: OpCounts,
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCore")
            .field("backend", &self.cfg.backend.name())
            .field("steps", &self.plan.steps.len())
            .finish()
    }
}

impl SessionCore {
    /// Builds the core of a deployment from its compiled plan and
    /// configuration, pricing one inference once.
    pub(crate) fn new(plan: Plan, cfg: PiConfig) -> Self {
        let counts = price(&plan, cfg.backend);
        SessionCore { plan, cfg, counts }
    }

    /// The backend's engine name.
    pub fn backend_name(&self) -> &'static str {
        self.cfg.backend.name()
    }

    /// Engine configuration the session was compiled with.
    pub fn config(&self) -> &PiConfig {
        &self.cfg
    }

    /// Per-layer `(kind, items, bits)` metadata of the plan, the plan
    /// shape the session fingerprint hashes: `bits` is a unit's width (0
    /// for a step that compares nothing), since the width decides what a
    /// seed expands to. A fused pool unit is described as the two layers
    /// it computes, a pool and a ReLU over its windows, each at the
    /// unit's width, so the metadata and the fingerprint are those of the
    /// two layers run apart at that width.
    fn step_meta(&self) -> Vec<(u8, u32, u8)> {
        let mut meta = Vec::with_capacity(self.plan.steps.len());
        for step in &self.plan.steps {
            match step {
                Step::Conv { c, h, w, .. } => meta.push((1u8, (c * h * w) as u32, 0)),
                Step::Fc { lin } => meta.push((2, lin.w.cols() as u32, 0)),
                Step::Unit { op, items, bits, .. } => {
                    let (items, bits) = (*items as u32, *bits as u8);
                    match op {
                        MaskedOp::Relu => meta.push((3, items, bits)),
                        MaskedOp::Maxpool4 => meta.push((4, items, bits)),
                        MaskedOp::MaxpoolRelu4 => meta.extend([(4, items, bits), (3, items, bits)]),
                    }
                }
                Step::AvgPool { c, h, w, .. } => meta.push((5, (c * h * w) as u32, 0)),
                Step::Flatten => meta.push((6, 0, 0)),
            }
        }
        meta
    }

    /// Stable fingerprint of this deployment: backend, master dealer
    /// seed, fixed-point format and plan shape (FNV-1a). Used as the
    /// [`DealtSeed`] nonce — so a seed dealt under one deployment never
    /// expands under another — and as the [`MaterialStore`] header
    /// fingerprint so a store file is only ever warm-booted by the
    /// deployment that wrote it. Deliberately excludes knobs documented
    /// as result-invariant (`gc_chunk`).
    pub fn session_fingerprint(&self) -> u64 {
        let mut bytes = b"c2pi/session-fingerprint/v1".to_vec();
        bytes.extend_from_slice(self.cfg.backend.name().as_bytes());
        bytes.extend_from_slice(&self.cfg.dealer_seed.to_le_bytes());
        bytes.extend_from_slice(&self.cfg.fixed.frac_bits().to_le_bytes());
        for (kind, items, bits) in self.step_meta() {
            bytes.push(kind);
            bytes.extend_from_slice(&items.to_le_bytes());
            bytes.push(bits);
        }
        fnv1a(&bytes)
    }

    /// The compact dealt artifact for per-inference seed `seed` — what
    /// the server actually ships to the client instead of expanded
    /// correlations.
    pub(crate) fn dealt_seed(&self, seed: u64) -> DealtSeed {
        DealtSeed { seed, nonce: self.session_fingerprint() }
    }

    /// **Dealt contract, client side**: decodes the first frame a server
    /// sent ([`SessionCore::serve_prepared`]), checks that the seed was
    /// dealt for this exact deployment (its nonce is this session's
    /// fingerprint, which hashes the plan shape), and
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
        if dealt.nonce != self.session_fingerprint() {
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
    /// It returns material only; what the set costs is the core's
    /// counts, the same for every seed and every `halves`.
    ///
    /// # Errors
    ///
    /// Propagates dealer errors (caller shape bugs);
    /// [`PiError::BadConfig`] when a step yields no material for a half
    /// it was asked for.
    pub(crate) fn deal(&self, seed: u64, halves: Halves) -> Result<InferenceMaterial> {
        let dealt = self.dealt_seed(seed);
        let mut dealer = Dealer::for_dealt(&dealt);
        let steps = self.plan.steps.len();
        let mut cmats = halves.client().then(|| Vec::with_capacity(steps));
        let mut smats = halves.server().then(|| Vec::with_capacity(steps));
        // Keeps the wanted halves of one step; an unwanted half handed
        // back too is dropped, a withheld wanted half is an error.
        let mut keep = |c: Option<ClientMat>, s: Option<ServerMat>| -> Result<()> {
            let withheld = |half| {
                PiError::BadConfig(format!(
                    "the {} backend prepared no {half} half for a {halves:?} deal",
                    self.cfg.backend.name()
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
        for step in &self.plan.steps {
            match step {
                Step::Conv { lin, .. } | Step::Fc { lin } => {
                    let (c, s) = dealer.linear_corr_for(&lin.w, lin.cols, halves)?;
                    keep(c.map(ClientMat::Lin), s.map(ServerMat::Lin))?;
                }
                Step::Unit { op, items, bits, .. } => {
                    let (c, s) = deal_nl(&mut dealer, (*op, *items, *bits), &self.cfg, halves);
                    keep(c, s)?;
                }
                Step::AvgPool { .. } | Step::Flatten => {
                    keep(Some(ClientMat::None), Some(ServerMat::None))?;
                }
            }
        }
        Ok(InferenceMaterial { seed, cmats, smats })
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
pub(crate) struct SeedAllocator {
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
        let mut st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        st.drawn += 1;
        (st.drawn, st.seq.next())
    }

    /// The stream position: seeds allocated so far.
    pub fn drawn(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).drawn
    }

    /// Advances the stream to `position` (a warm boot discarding every
    /// seed a previous process already drew). No-op when the stream is
    /// already at or past it.
    pub(crate) fn fast_forward_to(&self, position: u64) {
        let mut st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
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

    /// Allocates the next deterministic per-inference seed, recording
    /// the stream position in this pool's persisted watermark.
    fn draw_seed(&self, st: &mut MutexGuard<'_, PoolState>) -> u64 {
        let (position, seed) = self.alloc.next();
        st.drawn = st.drawn.max(position);
        seed
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
        credit_generation(&mut st.ledger, &self.core.counts, elapsed);
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
        credit_generation(&mut st.ledger, &self.core.counts, elapsed);
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
    pub(crate) fn note_dealt_inline(&self, seconds: f64) {
        let mut st = self.lock();
        st.ledger.consumed += 1;
        st.ledger.generated_inline += 1;
        credit_generation(&mut st.ledger, &self.core.counts, seconds);
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

/// Folds one dealt material set's generation into the ledger (time, and
/// from the deployment's `counts` the OT counts and seed-compression
/// bytes) — everything except the offline/inline/consumed attribution,
/// which differs per path.
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
            st = pool.drained.wait(st).unwrap_or_else(PoisonError::into_inner);
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
    use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
    use c2pi_nn::Sequential;
    use std::time::Duration;

    fn tiny_core() -> Arc<SessionCore> {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        let cfg = PiConfig::default();
        let plan = compile(&specs_of(&seq), (1, 6, 6), cfg.fixed).unwrap();
        Arc::new(SessionCore::new(plan, cfg))
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
    fn a_panic_under_the_pool_lock_does_not_stop_later_takes() {
        // A thread that panics while holding the pool's lock poisons it;
        // every later lock recovers the guard, so the pooled sets and
        // the inline path still serve and the ledger still balances.
        let pool = Arc::new(MaterialPool::new(tiny_core()));
        pool.preprocess(2).unwrap();
        let holder = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let _st = holder.lock();
            panic!("a holder of the pool lock panics");
        })
        .join();
        assert!(panicked.is_err() && pool.state.is_poisoned());
        for _ in 0..3 {
            pool.take().unwrap();
        }
        let l = pool.ledger();
        assert_eq!((l.generated_offline, l.generated_inline, l.consumed), (2, 1, 3));
    }

    #[test]
    fn a_frame_from_an_earlier_dealt_function_is_refused_not_expanded() {
        // A version-6 peer garbles and compares every unit over all 64
        // bits, a version-5 peer sends the plan's step list after the nonce, a
        // version-4 peer garbled a pool and the ReLU after it as two
        // layers under the same step metadata, a version-3 peer opened
        // every set with a base-OT draw, a version-2 peer drew its bit
        // triples a keystream word per bit, a version-1 peer garbled
        // under a different hash; expanding any of their seeds here
        // would produce material the other side cannot use. The frame is
        // otherwise exactly what this deployment would have dealt.
        let core = tiny_core();
        let frame = core.dealt_seed(7).encode();
        assert!(core.expand_dealt(&frame).is_ok());
        assert_eq!(frame[2], 7, "DealtSeed version byte");
        for earlier in [1, 2, 3, 4, 5, 6] {
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

    /// Bytes the two halves of one step's material hold: a stage's bit
    /// triples as packed bits, every other value at its width.
    fn held_bytes(c: &ClientMat, s: &ServerMat) -> u64 {
        let words = |m: &c2pi_mpc::ring::RingMatrix| 8 * m.as_slice().len();
        let beaver = |t: &c2pi_mpc::dealer::TripleShare| 8 * (t.a.len() + t.b.len() + t.c.len());
        let stages = |(cb, ca, cc): &Stage, (sb, sa, sc): &Stage| {
            (3 * (cb.len() + sb.len())).div_ceil(8)
                + [ca, cc, sa, sc].map(beaver).iter().sum::<usize>()
        };
        (match (c, s) {
            (ClientMat::Lin(c), ServerMat::Lin(s)) => {
                words(&c.mask) + words(&c.wa_share) + words(&s.wa_share)
            }
            (ClientMat::Gc(c), ServerMat::Gc(s)) => {
                (c.expanded_bytes() + s.expanded_bytes()) as usize
            }
            (ClientMat::Cmp(c), ServerMat::Cmp(s)) => {
                c.iter().zip(s).map(|(c, s)| stages(c, s)).sum()
            }
            (ClientMat::None, ServerMat::None) => 0,
            _ => unreachable!("the halves of one step are of one kind"),
        }) as u64
    }

    #[test]
    fn a_two_sided_deal_holds_exactly_the_expanded_bytes_its_core_prices() {
        // Measured, not re-derived: what a `Halves::Both` set holds adds
        // up to the compiled `expanded_bytes` (each Cheetah stage's bit
        // triples packed to whole bytes), over every step kind — linear
        // and dense layers, a ReLU, a lone pool and a fused one.
        use crate::engine::PiBackend;
        use c2pi_nn::layers::{Flatten, Linear};
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        seq.push(Conv2d::new(2, 2, 3, 1, 1, 1, 2));
        seq.push(MaxPool2d::new(2, 2));
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        seq.push(Flatten::new());
        seq.push(Linear::new(2 * 2 * 2, 3, 3));
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let cfg = PiConfig { backend, ..PiConfig::default() };
            let core =
                SessionCore::new(compile(&specs_of(&seq), (1, 8, 8), cfg.fixed).unwrap(), cfg);
            let ops: Vec<_> = core
                .plan
                .steps
                .iter()
                .filter_map(|s| if let Step::Unit { op, .. } = s { Some(*op) } else { None })
                .collect();
            assert_eq!(ops, [MaskedOp::Relu, MaskedOp::Maxpool4, MaskedOp::MaxpoolRelu4]);
            let mut set = core.deal(7, Halves::Both).unwrap();
            let (cmats, smats) = (set.take_client().unwrap(), set.take_server().unwrap());
            let held: u64 = cmats.iter().zip(&smats).map(|(c, s)| held_bytes(c, s)).sum();
            assert_eq!(held, core.counts.expanded_bytes, "{backend:?}");
        }
    }

    #[test]
    fn sided_deals_describe_the_same_seed_and_name_what_they_hold() {
        use crate::engine::PiBackend;
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let core = tiny_core();
            let core = SessionCore::new(core.plan.clone(), PiConfig { backend, ..core.cfg });
            let mut both = core.deal(7, Halves::Both).unwrap();
            let mut client = core.deal(7, Halves::Client).unwrap();
            let mut server = core.deal(7, Halves::Server).unwrap();
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
    fn material_dealt_under_the_spec_order_is_refused_under_the_pooled_order() {
        // A deployment compiled before ReLU moved behind the max pool
        // ran `Relu { 72 }, MaxPool` where this one runs the pool and a
        // ReLU over its 18 windows (as one fused step). The fingerprint
        // hashes the layers in order, so neither its dealt seeds nor its
        // store expand here — with no `DEALT_VERSION` bump.
        use crate::plan::lower;
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        let cfg = PiConfig::default();
        // The layers' own order: `specs_of` would already pool first.
        let specs: Vec<_> = seq.layers().iter().map(|l| l.spec()).collect();
        let spec_order =
            Arc::new(SessionCore::new(lower(&specs, (1, 6, 6), cfg.fixed).unwrap(), cfg));
        let pooled =
            Arc::new(SessionCore::new(compile(&specs, (1, 6, 6), cfg.fixed).unwrap(), cfg));
        assert!(matches!(
            pooled.plan.steps[..],
            [Step::Conv { .. }, Step::Unit { op: MaskedOp::MaxpoolRelu4, items: 18, .. }]
        ));
        assert_ne!(spec_order.session_fingerprint(), pooled.session_fingerprint());

        let frame = spec_order.dealt_seed(7).encode();
        let err = pooled.expand_dealt(&frame).map(|m| m.seed).unwrap_err();
        assert!(
            matches!(&err, PiError::BadConfig(why) if why.contains("not produced for this deployment")),
            "{err:?}"
        );

        let path =
            std::env::temp_dir().join(format!("c2pi-pool-{}-spec-order.bin", std::process::id()));
        let writer = MaterialPool::new(spec_order);
        writer.attach_store(&path).unwrap();
        writer.preprocess(2).unwrap();
        writer.flush_store().unwrap();
        drop(writer);
        let err = MaterialPool::new(pooled).attach_store(&path).map(|r| r.restored).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(&err, PiError::Store(why) if why.contains("different deployment")),
            "{err:?}"
        );
    }

    #[test]
    fn a_fused_pool_is_described_as_its_two_layers_and_a_version_4_frame_is_refused() {
        // A fused unit carries the metadata of the two steps it
        // replaced, each at the unit's width, so the session fingerprint
        // is theirs — only the
        // version byte tells a version-4 peer, which garbled the two
        // layers apart, that this deployment expands its seeds to
        // other material.
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        let cfg = PiConfig { backend: crate::engine::PiBackend::Delphi, ..PiConfig::default() };
        let fused = SessionCore::new(compile(&specs_of(&seq), (1, 6, 6), cfg.fixed).unwrap(), cfg);
        let mut apart = fused.plan.clone();
        let Step::Unit { window, bound, bits, .. } = apart.steps.pop().unwrap() else {
            unreachable!()
        };
        apart.steps.extend([
            Step::Unit { op: MaskedOp::Maxpool4, items: 18, bound, bits, window },
            Step::Unit { op: MaskedOp::Relu, items: 18, bound, bits, window: None },
        ]);
        let apart = SessionCore::new(apart, cfg);
        let w = bits as u8;
        assert_eq!(fused.step_meta(), [(1, 36, 0), (4, 18, w), (3, 18, w)]);
        assert_eq!(fused.step_meta(), apart.step_meta());
        assert_eq!(fused.session_fingerprint(), apart.session_fingerprint());

        let mut v4 = apart.dealt_seed(7).encode();
        v4[2] = 4;
        let err = fused.expand_dealt(&v4).map(|m| m.seed).unwrap_err();
        assert!(
            matches!(&err, PiError::Mpc(c2pi_mpc::MpcError::Protocol(why))
                if why == "dealt seed: unsupported version"),
            "{err:?}"
        );
        // The same seed at the current version expands, to one fused
        // half per pool.
        let set = fused.expand_dealt(&fused.dealt_seed(7).encode()).unwrap();
        assert_eq!(set.cmats.map(|m| m.len()), Some(2));
    }

    #[test]
    fn the_demo_deployments_keep_their_session_fingerprints() {
        // The fingerprint is the dealt frame's nonce and the store
        // header's key, so it may move only with the plan's shape (its
        // unit widths included), never with how the plan is represented
        // in memory.
        use crate::engine::PiBackend;
        use c2pi_nn::model::{alexnet, ZooConfig};
        use c2pi_nn::BoundaryId;
        let demo =
            alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
                .unwrap();
        let split = demo.split_at(BoundaryId::relu(3)).unwrap().0;
        let pinned = [
            ("relu(3) split", &split, PiBackend::Delphi, 0x2bca_e5c3_95e3_1eef),
            ("relu(3) split", &split, PiBackend::Cheetah, 0x5d3a_9c4b_509f_e08f),
            ("whole model", demo.seq(), PiBackend::Delphi, 0x37b7_828f_7bcc_e472),
            ("whole model", demo.seq(), PiBackend::Cheetah, 0xddcb_3871_e808_7f52),
        ];
        for (name, prefix, backend, want) in pinned {
            let cfg = PiConfig { backend, ..PiConfig::default() };
            let plan = compile(&specs_of(prefix), (3, 16, 16), cfg.fixed).unwrap();
            let got = SessionCore::new(plan, cfg).session_fingerprint();
            assert_eq!(got, want, "{name}, {backend:?}: {got:#018x}");
        }
    }

    #[test]
    fn the_demo_deployments_price_one_inference_at_their_pinned_counts() {
        // The compiled counts: `(seed_bytes, expanded_bytes, and_gates,
        // xor_gates, proj_words, ext_ots, bit_triples)`, at the demo
        // plans' exact unit widths (17/19/21 bits at the split; 17 to 29
        // on the whole prefix).
        use crate::engine::PiBackend;
        use c2pi_nn::model::{alexnet, ZooConfig};
        use c2pi_nn::BoundaryId;
        let demo =
            alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
                .unwrap();
        let split = demo.split_at(BoundaryId::relu(3)).unwrap().0;
        let pinned = [
            (
                "relu(3) split",
                &split,
                PiBackend::Delphi,
                (20, 3_454_912, 72_800, 195_360, 10_208, 28_736, 0),
            ),
            ("relu(3) split", &split, PiBackend::Cheetah, (20, 318_496, 0, 0, 0, 0, 78_208)),
            (
                "whole model",
                demo.seq(),
                PiBackend::Delphi,
                (20, 4_429_472, 92_224, 242_896, 15_504, 37_200, 0),
            ),
            ("whole model", demo.seq(), PiBackend::Cheetah, (20, 401_912, 0, 0, 0, 0, 101_920)),
        ];
        for (name, prefix, backend, want) in pinned {
            let cfg = PiConfig { backend, ..PiConfig::default() };
            let plan = compile(&specs_of(prefix), (3, 16, 16), cfg.fixed).unwrap();
            let c = SessionCore::new(plan, cfg).counts;
            let got = (
                c.seed_bytes,
                c.expanded_bytes,
                c.and_gates,
                c.xor_gates,
                c.proj_words,
                c.ext_ots,
                c.bit_triples,
            );
            assert_eq!(got, want, "{name}, {backend:?}");
        }
    }

    #[test]
    fn session_fingerprint_separates_deployments() {
        let a = tiny_core();
        let b = tiny_core();
        assert_eq!(a.session_fingerprint(), b.session_fingerprint(), "same deployment");
        let mut cfg = a.cfg;
        cfg.dealer_seed += 1;
        let c = Arc::new(SessionCore::new(a.plan.clone(), cfg));
        assert_ne!(a.session_fingerprint(), c.session_fingerprint(), "seed must enter");
    }
}
