//! Readiness-driven serving: one reactor thread multiplexing every
//! connection over a fixed worker set, per-core material shards with
//! work stealing, typed backpressure, and a stats endpoint.
//!
//! A thread per connection, blocked for the whole protocol, is fine for
//! tens of clients and fatal at thousands (a stack and a scheduler slot
//! per idle socket). The reactor inverts that:
//!
//! * the **reactor thread** owns a nonblocking listener and a
//!   [`polling::Poller`] — on Linux a real epoll instance (the build
//!   picks the backend from the target; there is nothing to set).
//!   The listener, every parked connection, and the poller's notify
//!   handle share **one** poller wait, so the thread is genuinely
//!   event-driven: it sleeps until an accept, a request frame, or a
//!   notify actually arrives (no periodic polling), wakes in O(ready)
//!   work, admits new connections (bounded per wakeup and by
//!   [`ReactorConfig::max_clients`]), parks them until their request
//!   frame arrives, and dispatches readable connections into a
//!   **bounded** queue. It never runs cryptography, so one thread
//!   multiplexes thousands of idle sockets;
//! * a fixed set of **worker threads** pulls connections off the queue
//!   and runs the online server party end to end. Worker *w* draws
//!   material from shard *w mod shards* of a
//!   [`c2pi_pi::ShardedMaterialPool`] — its own lock in steady state,
//!   work-stealing from siblings when its shard runs dry;
//! * one **replenisher per shard** keeps the shards topped up
//!   (offline phase, input-independent).
//!
//! **One request handler.** Every `infer` request is deposited into a
//! [`batch::BatchCollector`], which hands back *runs*: with the default
//! [`ReactorConfig::max_batch`] of 1 (or a zero
//! [`ReactorConfig::batch_window`]) each deposit comes straight back as
//! a run of one; with both set, concurrent requests arriving within the
//! window coalesce into one fused run. Either way the same function
//! takes one pooled material set per member, sheds whatever the stock
//! does not cover, and runs
//! [`c2pi_pi::SessionCore::serve_prepared`] over the run: the k members
//! share every round trip's compute, and each gets its own per-member
//! wire content back — a run of k is k runs of one, member by member
//! (DESIGN.md §10). A batch flushes when it fills (`Full`), when its
//! oldest member has waited the window (`Window` — the reactor arms its
//! poller timeout with the batch deadline, and a deposit that opens a
//! new window notifies the poller to re-arm, so the flush fires when
//! due rather than on a polling tick), or at drain (`Drain` — a queued
//! request was admitted and is *served*, never shed).
//!
//! **Backpressure is explicit.** Whenever the server cannot serve — all
//! shards empty, dispatch queue full, `max_clients` reached, or the
//! server is draining — the client gets a typed `BUSY` frame carrying a
//! suggested retry delay and a draining flag, never a hang or a silent
//! close. [`ReactorClient::infer`] honours it with a bounded retry
//! loop and surfaces exhaustion as [`C2piError::Overloaded`].
//!
//! **Observability is a frame away.** A `STATS` request returns a
//! Prometheus-style text exposition ([`metrics`]): served/shed/steal
//! counters, per-shard pool depths, and online-latency histograms.
//!
//! ## Wire protocol
//!
//! The client speaks first (a connection that never speaks costs the
//! reactor one poller slot, not a thread): one `REQ` frame, answered by
//! `OK`, `BUSY` or `STATS`. [`envelope`] owns those bytes — typed
//! [`envelope::Request`] / [`envelope::Reply`] with one `encode` and one
//! `decode` each, used by both ends.
//!
//! After `OK` the byte stream is exactly the dealt serving contract
//! ([`c2pi_pi::SessionCore::serve_prepared`] /
//! [`c2pi_pi::PiSession::request_one`]); the reactor adds one
//! request/response exchange in front, nothing inside.
//!
//! **Determinism.** Sharding never touches material *content*: every
//! shard draws from the one serialized seed allocator of its
//! [`c2pi_pi::ShardedMaterialPool`], so a
//! sharded deployment consumes a prefix of the same seed stream an
//! unsharded session walks, and concurrent results are a bit-for-bit
//! permutation of the sequential run's (DESIGN.md §8).
//!
//! ```no_run
//! use c2pi_core::reactor::{ReactorClient, ReactorConfig, ReactorServer};
//! use c2pi_nn::layers::{Conv2d, Relu};
//! use c2pi_nn::Sequential;
//! use c2pi_pi::engine::{specs_of, PiConfig};
//! use c2pi_pi::PiSession;
//! use c2pi_tensor::Tensor;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), c2pi_core::C2piError> {
//! let mut prefix = Sequential::new();
//! prefix.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
//! prefix.push(Relu::new());
//! let session = PiSession::new(&specs_of(&prefix), [1, 8, 8], PiConfig::default())?;
//! let server = ReactorServer::bind(
//!     Arc::clone(session.core()),
//!     "127.0.0.1:0",
//!     ReactorConfig { workers: 4, ..Default::default() },
//! )?;
//! let client = ReactorClient::new(session); // identical specs + config
//! let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 1);
//! let result = client.infer(server.local_addr(), &x)?;
//! println!("prediction {}", result.prediction);
//! println!("{}", client.stats(server.local_addr())?);
//! server.drain()?;
//! # Ok(())
//! # }
//! ```

pub mod batch;
mod client;
pub mod envelope;
mod event_loop;
pub mod metrics;
mod worker;

pub use client::{ClientInference, ReactorClient, ReactorReply};

use crate::{C2piError, Result};
use batch::{BatchCollector, FlushReason};
use c2pi_pi::{Replenisher, RestoreReport, SessionCore, ShardedMaterialPool};
use c2pi_transport::{Channel, Side, TcpChannel, TcpListenerTransport, TransportError};
use envelope::Reply;
use event_loop::{reactor_loop, LISTENER_KEY};
use metrics::{MetricsSnapshot, ReactorMetrics, ShardSnapshot};
use polling::{Backend, Poller};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use worker::worker_loop;

fn pi_err(e: TransportError) -> C2piError {
    C2piError::Pi(e.into())
}

/// Tuning knobs of a [`ReactorServer`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads running online protocol parties. Size to cores;
    /// clamped to at least 1.
    pub workers: usize,
    /// Material-pool shards. `0` (default) means one per worker —
    /// worker *w* homes on shard *w mod shards*.
    pub shards: usize,
    /// Hard cap on connections the reactor tracks at once (parked,
    /// queued or in service). Accepts beyond it are shed immediately
    /// with a `BUSY` frame: bounded memory under any client count.
    pub max_clients: usize,
    /// Dispatch-queue depth between reactor and workers. `0` (default)
    /// means `2 × workers`. A readable connection that finds the queue
    /// full is shed, not parked — queueing hides overload, shedding
    /// reports it.
    pub queue_depth: usize,
    /// Per-shard low watermark waking that shard's replenisher. `0`
    /// disables replenishment (the reactor never deals inline, so a
    /// drained deployment then sheds until `preprocess` is called).
    pub pool_low: usize,
    /// Per-shard high watermark the replenisher refills to.
    pub pool_high: usize,
    /// Read *and* write timeout on every served connection — a silent
    /// or stalled client frees its worker after this long.
    pub client_timeout: Duration,
    /// Suggested backoff carried in `BUSY` frames. Scale to roughly one
    /// material-generation interval so a retrying client finds stock.
    pub retry_after: Duration,
    /// Coalescing window for cross-client batching: how long the first
    /// member of a forming batch may wait for company before the batch
    /// is flushed anyway. `Duration::ZERO` (default) disables
    /// coalescing: every request is served as a run of one.
    /// The reactor arms its poller timeout with the window deadline, so
    /// the flush fires when due.
    pub batch_window: Duration,
    /// Cross-client batch-size cap: at most this many concurrent
    /// `infer` requests fuse into one protocol run. `1` (default)
    /// disables coalescing, identically to a zero window. Each member
    /// still consumes exactly one pooled material set.
    pub max_batch: usize,
    /// Base path for persistent material stores; shard `i` persists to
    /// `<base>.shard<i>`. When set, [`ReactorServer::bind`] warm-boots
    /// every shard from its segment and [`ReactorServer::drain`]
    /// flushes them all. `None` keeps material in memory only.
    pub persist_path: Option<PathBuf>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            shards: 0,
            max_clients: 1024,
            queue_depth: 0,
            pool_low: 2,
            pool_high: 8,
            client_timeout: Duration::from_secs(60),
            retry_after: Duration::from_millis(50),
            batch_window: Duration::ZERO,
            max_batch: 1,
            persist_path: None,
        }
    }
}

/// What the reactor hands a worker.
enum Job {
    /// A connection whose request frame is (at least partly) buffered.
    Conn(TcpStream),
    /// A coalesced batch the collector flushed on its window deadline
    /// or at drain — `Full` flushes never pass through the queue, the
    /// depositing worker serves them in place.
    Batch(Vec<TcpChannel>, FlushReason),
    /// Drain: finish queued work, then exit. Enqueued once per worker
    /// *behind* all in-flight jobs, so FIFO order makes drain graceful.
    Shutdown,
}

/// State every thread of the serving surface shares.
struct Shared {
    core: Arc<SessionCore>,
    pool: Arc<ShardedMaterialPool>,
    metrics: Arc<ReactorMetrics>,
    workers: usize,
    max_clients: usize,
    client_timeout: Duration,
    retry_after: Duration,
    collector: BatchCollector<TcpChannel>,
    /// The reactor's readiness poller. Workers hold it to notify the
    /// reactor when a deposit opens a new batch window (so it re-arms
    /// its wait timeout); snapshots read its counters.
    poller: Arc<Poller>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.metrics.draining.load(Ordering::SeqCst)
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let depths = self.pool.depths();
        let ledgers = self.pool.shard_ledgers();
        let shards = depths
            .iter()
            .zip(&ledgers)
            .map(|(&depth, l)| ShardSnapshot {
                depth,
                consumed: l.consumed,
                generated_offline: l.generated_offline,
                generation_seconds: l.generation_seconds,
                restored: l.restored,
            })
            .collect();
        let mut snap =
            MetricsSnapshot::gather(&self.metrics, self.workers, self.pool.steals(), shards);
        snap.batch_pending = self.collector.pending() as u64;
        snap.poll_backend = Backend::NAME;
        snap.poll_wakeups = self.poller.wakeups();
        snap.poll_events = self.poller.events_reported();
        snap
    }

    fn busy(&self, draining: bool) -> Vec<u8> {
        let retry_ms = u32::try_from(self.retry_after.as_millis()).unwrap_or(u32::MAX);
        Reply::Busy { retry_ms, draining }.encode()
    }

    /// Sheds one connection with a best-effort `BUSY` frame.
    /// `counted_active` says whether the connection was admitted into
    /// the active gauge (queue-full and drain sheds) or turned away at
    /// the door (`max_clients` sheds).
    fn shed(&self, stream: TcpStream, counted_active: bool) {
        self.metrics.add(&self.metrics.shed);
        let frame = self.busy(self.draining());
        // Best-effort: the client may already be gone, and a shed must
        // never block the reactor — short write timeout, errors ignored.
        let _ = stream.set_nonblocking(false);
        if let Ok(ch) = TcpChannel::from_stream(stream, Side::Server) {
            let _ = ch.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = ch.send_bytes(&frame);
        }
        if counted_active {
            self.metrics.connection_done();
        }
    }

    /// Sheds one already-admitted connection that has progressed to a
    /// [`TcpChannel`] (its REQ was parsed and it entered the batching
    /// stage): best-effort `BUSY` frame, shed counter, active gauge.
    fn shed_channel(&self, ch: &TcpChannel, draining: bool) {
        self.metrics.add(&self.metrics.shed);
        let _ = ch.send_bytes(&self.busy(draining));
        self.metrics.connection_done();
    }
}

/// A running readiness-driven PI server. See the [module docs](self)
/// for the thread map and wire protocol.
#[derive(Debug)]
pub struct ReactorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    warm_boot: Option<RestoreReport>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    replenishers: Vec<Replenisher>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("workers", &self.workers).finish()
    }
}

impl ReactorServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the reactor
    /// thread, `cfg.workers` worker threads, and — when
    /// `cfg.pool_low > 0` — one replenisher per shard. When
    /// `cfg.persist_path` is set, every shard warm-boots from its
    /// `<base>.shard<i>` store segment first.
    ///
    /// `core` must be compiled from the same specs and config the
    /// clients use (the usual dealt-contract requirement).
    ///
    /// # Errors
    ///
    /// Transport errors when binding fails; store errors (I/O,
    /// corruption, foreign deployment) when the persistence segments
    /// cannot be attached.
    pub fn bind(
        core: Arc<SessionCore>,
        addr: impl ToSocketAddrs,
        cfg: ReactorConfig,
    ) -> Result<Self> {
        let workers = cfg.workers.max(1);
        let shards = if cfg.shards == 0 { workers } else { cfg.shards };
        let pool = Arc::new(ShardedMaterialPool::new(Arc::clone(&core), shards));
        let warm_boot = match &cfg.persist_path {
            Some(base) => Some(pool.attach_stores(base).map_err(C2piError::Pi)?),
            None => None,
        };
        let listener = TcpListenerTransport::bind(addr).map_err(pi_err)?;
        listener.set_nonblocking(true).map_err(pi_err)?;
        let addr = listener.local_addr();
        let poller_err =
            |e: std::io::Error| C2piError::BadConfig(format!("readiness poller unavailable: {e}"));
        let poller = Poller::new().map_err(poller_err)?;
        // Register the listener up front so accepts arrive as events
        // through the same wait as client readiness and notifies; a
        // failure here surfaces as a bind error, not a dead server.
        poller.add_listener(listener.as_tcp_listener(), LISTENER_KEY).map_err(poller_err)?;
        let poller = Arc::new(poller);
        let shared = Arc::new(Shared {
            core,
            pool: Arc::clone(&pool),
            metrics: Arc::new(ReactorMetrics::default()),
            workers,
            max_clients: cfg.max_clients.max(1),
            client_timeout: cfg.client_timeout,
            retry_after: cfg.retry_after,
            collector: BatchCollector::new(cfg.batch_window, cfg.max_batch.max(1)),
            poller: Arc::clone(&poller),
        });
        let queue_depth = if cfg.queue_depth == 0 { workers * 2 } else { cfg.queue_depth };
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(w, &rx, &shared))
            })
            .collect();
        let reactor = {
            let poller = Arc::clone(&poller);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reactor_loop(&listener, &poller, &tx, &shared))
        };
        let replenishers = if cfg.pool_low > 0 {
            pool.spawn_replenishers(cfg.pool_low, cfg.pool_high)
        } else {
            Vec::new()
        };
        Ok(ReactorServer {
            addr,
            shared,
            poller,
            warm_boot,
            reactor: Some(reactor),
            workers: worker_handles,
            replenishers,
        })
    }

    /// The actually-bound address (real port even for a port-0 bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The sharded material pool this server serves from.
    pub fn pool(&self) -> &Arc<ShardedMaterialPool> {
        &self.shared.pool
    }

    /// The shared session core (plan + config + backend).
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.shared.core
    }

    /// What the warm boot from `cfg.persist_path` restored; `None`
    /// without persistence.
    pub fn warm_boot(&self) -> Option<&RestoreReport> {
        self.warm_boot.as_ref()
    }

    /// Offline phase: deals material for `n` future inferences,
    /// round-robin across shards.
    ///
    /// # Errors
    ///
    /// Propagates dealer and store errors.
    pub fn preprocess(&self, n: usize) -> Result<()> {
        self.shared.pool.preprocess(n).map_err(C2piError::Pi)
    }

    /// Point-in-time metrics (same data the `STATS` frame serves).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Inferences served to completion so far.
    pub fn served(&self) -> u64 {
        self.shared.metrics.served.load(Ordering::Relaxed)
    }

    /// Requests shed with `BUSY` frames so far.
    pub fn shed(&self) -> u64 {
        self.shared.metrics.shed.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, answer parked connections with
    /// `BUSY(draining)`, finish every queued and in-flight inference,
    /// stop the replenishers, then flush every shard's store segment.
    /// Also runs on drop (ignoring flush errors there).
    ///
    /// # Errors
    ///
    /// Propagates store-flush I/O failures — the one step whose failure
    /// means persisted material may be missing its durable snapshot.
    pub fn drain(mut self) -> Result<()> {
        self.drain_inner()
    }

    fn drain_inner(&mut self) -> Result<()> {
        // Idempotent: explicit drain() is followed by Drop.
        if self.shared.metrics.draining.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        // Wake the reactor out of its poll sleep so it observes the
        // flag now, not a tick later.
        self.poller.notify();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // The reactor enqueued one Shutdown per worker behind all
        // outstanding jobs; joining the workers is the in-flight drain.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Dropping a Replenisher stops and joins its thread.
        self.replenishers.clear();
        self.shared.pool.shutdown();
        self.shared.pool.flush_stores().map_err(C2piError::Pi)
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        let _ = self.drain_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::envelope::Request;
    use super::metrics::metric_value;
    use super::*;
    use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
    use c2pi_nn::Sequential;
    use c2pi_pi::engine::{specs_of, PiConfig};
    use c2pi_pi::PiSession;
    use c2pi_tensor::Tensor;
    use std::time::Instant;

    fn tiny_prefix() -> Sequential {
        let mut s = Sequential::new();
        s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
        s.push(Relu::new());
        s.push(MaxPool2d::new(2, 2));
        s
    }

    fn shared_session() -> PiSession {
        PiSession::new(&specs_of(&tiny_prefix()), [1, 8, 8], PiConfig::default()).unwrap()
    }

    fn server_core() -> Arc<SessionCore> {
        Arc::clone(shared_session().core())
    }

    #[test]
    fn reactor_serves_concurrent_clients_with_correct_predictions() {
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 3,
                shards: 2,
                pool_low: 2,
                pool_high: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let clients = 3;
        let iters = 2;
        std::thread::scope(|scope| {
            for t in 0..clients {
                scope.spawn(move || {
                    let client = ReactorClient::new(shared_session());
                    for i in 0..iters {
                        let x =
                            Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, (100 * t + i) as u64);
                        let got = client.infer(addr, &x).unwrap();
                        let plain = tiny_prefix().forward_eval(&x).unwrap();
                        for (a, b) in got.logits.as_slice().iter().zip(plain.as_slice()) {
                            assert!((a - b).abs() < 0.02, "{a} vs {b}");
                        }
                    }
                });
            }
        });
        // The served counter trails the last client's last byte by a
        // beat; settle before asserting.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.served() < (clients * iters) as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = server.metrics_snapshot();
        assert_eq!(snap.served, (clients * iters) as u64);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.shards.len(), 2);
        let ledger = server.pool().ledger();
        assert!(ledger.consumed >= (clients * iters) as u64);
        assert_eq!(
            ledger.generated_offline + ledger.generated_inline,
            ledger.consumed + ledger.available
        );
        assert_eq!(ledger.generated_inline, 0, "the reactor never deals inline");
        server.drain().unwrap();
    }

    #[test]
    fn starved_pool_sheds_with_busy_and_retry_succeeds_after_restock() {
        // pool_low = 0: no replenisher, the pool only holds what we deal.
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 2,
                pool_low: 0,
                pool_high: 0,
                retry_after: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let client = ReactorClient::new(shared_session()).with_retries(1);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 9);

        // Starved: the typed frame comes back, then the retry budget
        // runs out as Overloaded (not a hang, not a connection reset).
        match client.request(addr, &x).unwrap() {
            ReactorReply::Busy { retry_after, draining } => {
                assert_eq!(retry_after, Duration::from_millis(5));
                assert!(!draining);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        match client.infer(addr, &x) {
            Err(C2piError::Overloaded { draining: false, .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(server.shed() >= 3, "one request + two infer attempts shed");

        // Restock → the same client's retry loop now succeeds. The
        // served counter trails the client's last byte by a beat;
        // settle before asserting.
        server.preprocess(1).unwrap();
        client.infer(addr, &x).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.served() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.served(), 1);
        server.drain().unwrap();
    }

    #[test]
    fn stats_endpoint_reports_counters_and_shard_depths() {
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 2,
                shards: 2,
                pool_low: 0,
                pool_high: 0,
                ..Default::default()
            },
        )
        .unwrap();
        server.preprocess(3).unwrap();
        let client = ReactorClient::new(shared_session());
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 3);
        client.infer(server.local_addr(), &x).unwrap();
        let text = client.stats(server.local_addr()).unwrap();
        assert_eq!(metric_value(&text, "c2pi_served_total"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_workers"), Some(2.0));
        assert_eq!(metric_value(&text, "c2pi_draining"), Some(0.0));
        let d0 = metric_value(&text, "c2pi_shard_pool_depth{shard=\"0\"}").unwrap();
        let d1 = metric_value(&text, "c2pi_shard_pool_depth{shard=\"1\"}").unwrap();
        assert_eq!(d0 + d1, 2.0, "3 dealt, 1 consumed");
        let dealt = |name: &str| -> f64 {
            (0..2).map(|i| metric_value(&text, &format!("{name}{{shard=\"{i}\"}}")).unwrap()).sum()
        };
        assert_eq!(dealt("c2pi_shard_dealt_total"), 3.0);
        assert!(dealt("c2pi_shard_deal_seconds_total") > 0.0, "dealing takes time");
        assert_eq!(
            metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"+Inf\"}"),
            Some(1.0)
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.stats_served, 1);
        server.drain().unwrap();
    }

    #[test]
    fn drain_flushes_segmented_stores_for_a_warm_boot() {
        let base =
            std::env::temp_dir().join(format!("c2pi-reactor-drain-{}.bin", std::process::id()));
        for i in 0..2 {
            let _ = std::fs::remove_file(ShardedMaterialPool::segment_path(&base, i));
        }
        let cfg = ReactorConfig {
            workers: 2,
            shards: 2,
            pool_low: 0,
            pool_high: 0,
            persist_path: Some(base.clone()),
            ..Default::default()
        };
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 55);

        // First life: deal 3, serve 1, drain (flushes both segments).
        {
            let server = ReactorServer::bind(server_core(), "127.0.0.1:0", cfg.clone()).unwrap();
            assert_eq!(server.warm_boot().unwrap().restored, 0);
            server.preprocess(3).unwrap();
            let client = ReactorClient::new(shared_session());
            client.infer(server.local_addr(), &x).unwrap();
            server.drain().unwrap();
        }

        // Second life: the two unconsumed sets come back across the
        // segments and serve without any new generation.
        let server = ReactorServer::bind(server_core(), "127.0.0.1:0", cfg).unwrap();
        assert_eq!(server.warm_boot().unwrap().restored, 2);
        let client = ReactorClient::new(shared_session());
        client.infer(server.local_addr(), &x).unwrap();
        client.infer(server.local_addr(), &x).unwrap();
        let ledger = server.pool().ledger();
        assert_eq!(ledger.generated_offline, 3, "never re-preprocessed");
        assert_eq!(ledger.generated_inline, 0);
        assert_eq!(ledger.consumed, 3);
        assert_eq!(ledger.restored, 2);
        server.drain().unwrap();
        for i in 0..2 {
            std::fs::remove_file(ShardedMaterialPool::segment_path(&base, i)).unwrap();
        }
    }

    #[test]
    fn draining_server_tells_clients_not_to_retry() {
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig { workers: 1, pool_low: 0, pool_high: 0, ..Default::default() },
        )
        .unwrap();
        let addr = server.local_addr();
        server.drain().unwrap();
        // The listener is gone after drain; a fresh connect must fail
        // fast rather than be served.
        let client =
            ReactorClient::new(shared_session()).with_connect_timeout(Duration::from_millis(200));
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert!(client.request(addr, &x).is_err());
    }

    #[test]
    fn malformed_requests_are_counted_not_fatal() {
        use std::io::Write;
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig { workers: 1, pool_low: 0, pool_high: 0, ..Default::default() },
        )
        .unwrap();
        // A well-framed body that is no REQ; then a bare length prefix
        // claiming a gigabyte, with nothing behind it — refused on the
        // prefix, so the one worker neither allocates the payload nor
        // sits out `client_timeout` waiting for it.
        let hostile: [&[u8]; 2] = [b"\x06\x00\x00\x00C2PQ\x02\x09", &0x3FFF_FFFFu32.to_le_bytes()];
        for (i, bytes) in hostile.into_iter().enumerate() {
            let mut peer = TcpStream::connect(server.local_addr()).unwrap();
            peer.write_all(bytes).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let settled = |snap: &MetricsSnapshot| snap.errors > i as u64 && snap.active == 0;
            while !settled(&server.metrics_snapshot()) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let snap = server.metrics_snapshot();
            assert_eq!(snap.errors, i as u64 + 1, "hostile frame {i} is an error");
            assert_eq!(snap.hangups, 0, "hostile frame {i} is not a hangup");
            assert_eq!(snap.active, 0, "hostile connection {i} was closed");
            assert_eq!(snap.served, 0);
        }
        // The server still serves well-formed traffic afterwards.
        server.preprocess(1).unwrap();
        let client = ReactorClient::new(shared_session());
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 4);
        client.infer(server.local_addr(), &x).unwrap();
        server.drain().unwrap();
    }

    #[test]
    fn silent_client_times_out_and_frees_the_worker() {
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                pool_low: 0,
                pool_high: 0,
                client_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        )
        .unwrap();
        server.preprocess(2).unwrap();
        let addr = server.local_addr();
        // A client that is admitted and dealt its seed, then never sends
        // its input share: the only worker blocks on it.
        let silent = TcpChannel::connect_retry(addr, Side::Client, Duration::from_secs(5)).unwrap();
        silent.send_bytes(&Request::Infer.encode()).unwrap();
        assert_eq!(silent.recv_bytes().unwrap(), Reply::Ok { batch: 1 }.encode());
        silent.recv_bytes().unwrap(); // the dealt seed
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics_snapshot().errors == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let text = server.metrics_snapshot().render_prometheus();
        assert_eq!(
            metric_value(&text, "c2pi_errors_total"),
            Some(1.0),
            "silent client must time out"
        );
        assert_eq!(server.pool().ledger().consumed, 1, "its material is counted consumed");
        // The freed worker serves a real client afterwards. The served
        // counter trails the client's last byte by a beat.
        let client = ReactorClient::new(shared_session());
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 7);
        client.infer(addr, &x).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.served() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.served(), 1);
        server.drain().unwrap();
    }

    #[test]
    fn a_partly_covered_flush_is_accounted_at_its_served_size() {
        // Two deposits fill a batch of two, but stock covers one: the
        // earlier arrival runs alone, the later one is shed, and every
        // run-size metric reads 1 — a solo run is not "coalesced".
        let server = ReactorServer::bind(
            server_core(),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                shards: 1,
                pool_low: 0,
                pool_high: 0,
                batch_window: Duration::from_secs(30),
                max_batch: 2,
                ..Default::default()
            },
        )
        .unwrap();
        server.preprocess(1).unwrap();
        let addr = server.local_addr();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 12);
        let replies: Vec<ReactorReply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let x = &x;
                    scope.spawn(move || {
                        ReactorClient::new(shared_session()).request(addr, x).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let batches: Vec<usize> = replies
            .iter()
            .filter_map(|r| if let ReactorReply::Served(s) = r { Some(s.batch) } else { None })
            .collect();
        assert_eq!(batches, [1], "one member served, announced as a run of one");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut snap = server.metrics_snapshot();
        while (snap.served < 1 || snap.active > 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            snap = server.metrics_snapshot();
        }
        assert_eq!((snap.served, snap.shed, snap.errors, snap.active), (1, 1, 0, 0));
        assert_eq!(snap.coalesced, 0);
        assert_eq!((snap.batches, snap.batch_size.sum_members), (1, 1));
        assert_eq!(snap.flushes, (1, 0, 0));
        assert_eq!(server.pool().ledger().consumed, 1);
        server.drain().unwrap();
    }

    #[test]
    fn client_surfaces_unreachable_server() {
        let client =
            ReactorClient::new(shared_session()).with_connect_timeout(Duration::from_millis(200));
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        // A bound-then-dropped listener guarantees a dead port.
        let addr = TcpListenerTransport::bind("127.0.0.1:0").unwrap().local_addr();
        assert!(client.infer(addr, &x).is_err());
        assert!(client.stats(addr).is_err());
    }

    #[test]
    fn client_caps_the_first_reply_at_what_its_request_can_be_answered_with() {
        // A stand-in server reads the REQ, announces a reply one byte
        // over the client's cap, and hangs up: the client refuses the
        // length prefix itself instead of reading on.
        use std::io::{Read, Write};
        let client = ReactorClient::new(shared_session());
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        for (request, cap) in
            [(Request::Infer, Reply::MAX_INFER_LEN), (Request::Stats, Reply::MAX_STATS_LEN)]
        {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stand_in = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut req = [0u8; 4 + Request::ENCODED_LEN];
                stream.read_exact(&mut req).unwrap();
                stream.write_all(&(cap as u32 + 1).to_le_bytes()).unwrap();
                req[4..] == request.encode()
            });
            let err = match request {
                Request::Infer => client.request(addr, &x).map(|_| ()).unwrap_err(),
                Request::Stats => client.stats(addr).map(|_| ()).unwrap_err(),
            };
            assert!(stand_in.join().unwrap(), "{request:?}: the stand-in read the request");
            assert!(
                matches!(
                    &err,
                    C2piError::Pi(c2pi_pi::PiError::Mpc(c2pi_mpc::MpcError::Transport(
                        TransportError::Decode(why)
                    ))) if why.contains(&format!("{}-byte cap", cap))
                ),
                "{request:?}: {err:?}"
            );
        }
    }
}
