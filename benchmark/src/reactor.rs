//! The reactor workloads: two closed-loop `ReactorClient`s against an
//! in-process `ReactorServer` on loopback TCP, full-PI prefix — and the
//! played-by-hand `serve_one`/`request_one` pair a traced run uses to
//! see inside the parties, which the reactor's own sockets do not let
//! it wrap.

use crate::metrics::Report;
use crate::trace::{Recorder, TracedChannel};
use crate::workload::{self, request_span, Checker, Shape, Workload};
use crate::Measured;
use c2pi_core::reactor::metrics::MetricsSnapshot;
use c2pi_core::{ClientInference, ReactorClient, ReactorConfig, ReactorServer};
use c2pi_pi::engine::specs_of;
use c2pi_pi::{PiConfig, PiSession, ShardedMaterialPool, SharedPiSession};
use c2pi_transport::{tcp_loopback_pair, BoxedChannel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop callers, one connection each at a time — the box has two
/// cores.
pub const CLIENTS: usize = 2;
/// Material sets dealt before the first request.
const INITIAL_STOCK: usize = 4;
/// `BUSY` replies a caller absorbs before giving up.
const RETRIES: usize = 64;
/// Input index space of each client, so no two requests share an image.
const CLIENT_STRIDE: u64 = 1 << 32;

/// Compiles the full-PI session both ends run.
pub fn compile(workload: Workload) -> SharedPiSession {
    let model = workload::model();
    let cfg = PiConfig { backend: workload.backend, ..Default::default() };
    PiSession::new(&specs_of(model.seq()), workload::INPUT_CHW, cfg)
        .expect("the demo model compiles")
        .into_shared()
}

/// One served request as its caller saw it.
struct Reply {
    wait_s: f64,
    /// Seconds this request's client spent expanding the dealt seed.
    deal_s: f64,
    got: ClientInference,
}

/// What the server counted, read once the callers are done.
pub struct Served {
    pub snapshot: MetricsSnapshot,
    /// Per request, caller wait − client dealing − client party time:
    /// connect, REQ/OK envelope, queueing, the share reply.
    pub envelope_ms: Vec<f64>,
    pub client_deal_ms: Vec<f64>,
    pub stats_ms: Vec<f64>,
}

/// A bound, stocked, warmed-up server and its callers.
pub struct Reactor<'a> {
    workload: Workload,
    seed: u64,
    rec: Option<&'a Arc<Recorder>>,
    server: ReactorServer,
    clients: Vec<ReactorClient>,
    store_dir: Option<PathBuf>,
    /// Requests sent so far, per client (the index into its inputs).
    sent: [u64; CLIENTS],
    replies: u64,
    envelope_ms: Vec<f64>,
    client_deal_ms: Vec<f64>,
}

static STORE_DIRS: AtomicU64 = AtomicU64::new(0);

impl<'a> Reactor<'a> {
    /// Set-up as an operator pays it: compile, bind, deal the initial
    /// stock, one warm-up request per caller. Returns the seconds taken.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        rec: Option<&'a Arc<Recorder>>,
        checker: &Checker,
        report: &mut Report,
    ) -> (Self, f64) {
        let Shape::Reactor { batching, persist, pool_high } = workload.shape else {
            panic!("{} is not a reactor workload", workload.name);
        };
        let start = Instant::now();
        let store_dir = persist.then(|| {
            // Relaxed: only uniqueness of the directory name matters.
            let n = STORE_DIRS.fetch_add(1, Ordering::Relaxed);
            workload::scratch_dir().join(format!("store-{}-{n}", std::process::id()))
        });
        if let Some(dir) = &store_dir {
            std::fs::create_dir_all(dir).expect("the build directory is writable");
        }
        let cfg = ReactorConfig {
            workers: 2,
            shards: 2,
            pool_low: 4,
            pool_high,
            batch_window: if batching { Duration::from_millis(5) } else { Duration::ZERO },
            max_batch: if batching { 2 } else { 1 },
            persist_path: store_dir.as_ref().map(|d| d.join("material")),
            ..Default::default()
        };
        let core = Arc::clone(compile(workload).core());
        let server = ReactorServer::bind(core, "127.0.0.1:0", cfg).expect("loopback binds");
        server.preprocess(INITIAL_STOCK).expect("the dealer accepts the compiled plan");
        let clients = (0..CLIENTS)
            .map(|_| ReactorClient::new(compile(workload)).with_retries(RETRIES))
            .collect();
        let mut reactor = Reactor {
            workload,
            seed,
            rec,
            server,
            clients,
            store_dir,
            sent: [0; CLIENTS],
            replies: 0,
            envelope_ms: Vec::new(),
            client_deal_ms: Vec::new(),
        };
        // Warm-up: one request per caller.
        let mut warm = Measured::default();
        reactor.drive(Duration::ZERO, 1, checker, report, &mut warm);
        (reactor, start.elapsed().as_secs_f64())
    }

    /// One request, `BUSY` retries included.
    fn request(
        client: &ReactorClient,
        addr: std::net::SocketAddr,
        rec: Option<&Arc<Recorder>>,
        x: &c2pi_tensor::Tensor,
    ) -> Result<Reply, String> {
        let _span = request_span(rec, "ReactorClient::infer");
        let dealt_before = client.session().ledger().generation_seconds;
        let start = Instant::now();
        let got = client.infer(addr, x).map_err(|e| e.to_string())?;
        let wait_s = start.elapsed().as_secs_f64();
        let deal_s = client.session().ledger().generation_seconds - dealt_before;
        Ok(Reply { wait_s, deal_s, got })
    }

    /// Every caller sends requests back to back until `budget` has
    /// passed and it has sent at least `at_least`; replies are checked
    /// on this thread afterwards, outside the timed loop.
    fn drive(
        &mut self,
        budget: Duration,
        at_least: u64,
        checker: &Checker,
        report: &mut Report,
        out: &mut Measured,
    ) {
        let addr = self.server.local_addr();
        let (seed, rec, sent) = (self.seed, self.rec, self.sent);
        let start = Instant::now();
        let per_client: Vec<Vec<(u64, Result<Reply, String>)>> = std::thread::scope(|scope| {
            let callers: Vec<_> = self
                .clients
                .iter()
                .enumerate()
                .map(|(t, client)| {
                    scope.spawn(move || {
                        let mut replies = Vec::new();
                        let mut i = 0;
                        while i < at_least || start.elapsed() < budget {
                            let index = t as u64 * CLIENT_STRIDE + sent[t] + i;
                            let x = workload::input(seed, index);
                            replies.push((index, Self::request(client, addr, rec, &x)));
                            i += 1;
                        }
                        replies
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().expect("a caller thread panicked")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut correct = 0usize;
        for (t, replies) in per_client.into_iter().enumerate() {
            self.sent[t] += replies.len() as u64;
            for (index, reply) in replies {
                let verdict = reply.and_then(|r| {
                    let x = workload::input(seed, index);
                    checker.check_full(&x, &r.got.logits, r.got.prediction).map(|()| r)
                });
                report.check(verdict.is_ok(), || {
                    format!("request {t}/{index}: {}", verdict.as_ref().err().unwrap())
                });
                let Ok(r) = verdict else { continue };
                correct += 1;
                self.replies += 1;
                let party_s = r.got.outcome.report.online_seconds;
                out.wait_ms.push(r.wait_s * 1e3);
                out.party_ms.push(party_s * 1e3);
                out.note_counts(&r.got.outcome.report, report);
                self.envelope_ms.push((r.wait_s - r.deal_s - party_s) * 1e3);
                self.client_deal_ms.push(r.deal_s * 1e3);
            }
        }
        if correct > 0 && wall > 0.0 {
            out.inf_rates.push(correct as f64 / wall);
        }
    }

    /// The timed closed loop: `seconds` of back-to-back requests from
    /// every caller. The dealing rate is the server's replenishers' own
    /// (sets dealt ÷ seconds their threads spent dealing) over the loop.
    pub fn run(
        &mut self,
        seconds: f64,
        checker: &Checker,
        report: &mut Report,
        out: &mut Measured,
    ) {
        self.envelope_ms.clear();
        self.client_deal_ms.clear();
        let before = self.server.pool().ledger();
        self.drive(Duration::from_secs_f64(seconds), 1, checker, report, out);
        let after = self.server.pool().ledger();
        let sets = (after.generated_offline - before.generated_offline) as f64;
        let busy = after.generation_seconds - before.generation_seconds;
        if sets > 0.0 && busy > 0.0 {
            out.deal_rates.push(sets / busy);
        }
        out.ledger = after;
    }

    /// Times `STATS` round trips.
    pub fn time_stats(&self, n: usize) -> Vec<f64> {
        let addr = self.server.local_addr();
        (0..n)
            .filter_map(|_| {
                let start = Instant::now();
                self.clients[0].stats(addr).ok().map(|_| start.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Ends the run: reads the server's counters, checks the post-run
    /// invariants (each a counted operation), drains, and removes the
    /// store directory.
    pub fn finish(mut self, stats_ms: Vec<f64>, report: &mut Report) -> Served {
        // A worker counts its connection done just after the reply is on
        // the wire, so give the gauge a moment to settle.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut snapshot = self.server.metrics_snapshot();
        while snapshot.active > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            snapshot = self.server.metrics_snapshot();
        }
        let s = &snapshot;
        report.check(s.errors == 0, || format!("reactor counted {} errors", s.errors));
        report.check(s.active == 0, || format!("{} connections still active", s.active));
        report.check(s.served == self.replies, || {
            format!("server served {}, callers checked {} replies", s.served, self.replies)
        });
        let coalesced_share = s.coalesced as f64 / s.served.max(1) as f64;
        let Shape::Reactor { batching, .. } = self.workload.shape else { unreachable!() };
        if batching {
            report.check(coalesced_share > 0.5, || {
                format!("only {coalesced_share:.3} of requests coalesced with batching on")
            });
        } else {
            report.check(s.coalesced == 0, || format!("{} coalesced, batching off", s.coalesced));
        }
        let (envelope_ms, client_deal_ms) =
            (std::mem::take(&mut self.envelope_ms), std::mem::take(&mut self.client_deal_ms));
        self.discard(report);
        Served { snapshot, envelope_ms, client_deal_ms, stats_ms }
    }

    /// Drains the server and removes its store directory; what every
    /// server, measured or only set up, ends with.
    pub fn discard(self, report: &mut Report) {
        let pool: Arc<ShardedMaterialPool> = Arc::clone(self.server.pool());
        let drained = self.server.drain();
        report.check(drained.is_ok(), || format!("drain failed: {}", drained.unwrap_err()));
        let inline = pool.ledger().generated_inline;
        report.check(inline == 0, || format!("server dealt {inline} sets inline"));
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
            report.check(!dir.exists(), || format!("store {} not removed", dir.display()));
        }
    }
}

/// Plays both parties of `n` inferences by hand — `serve_one` on one
/// thread, `request_one` on this one — over loopback TCP channel pairs,
/// traced when a recorder is given. Returns the milliseconds each
/// inference took; every reconstruction is checked.
pub fn party_pair(
    workload: Workload,
    seed: u64,
    n: usize,
    rec: Option<&Arc<Recorder>>,
    checker: &Checker,
    report: &mut Report,
) -> Vec<f64> {
    let server = compile(workload);
    let client = compile(workload);
    server.preprocess(n).expect("the dealer accepts the compiled plan");
    let mut walls = Vec::with_capacity(n);
    for i in 0..n {
        // Its own index space, clear of the reactor callers'.
        let x = workload::input(seed, CLIENTS as u64 * CLIENT_STRIDE + i as u64);
        let _span = request_span(rec, "serve_one+request_one");
        let (c, s, _) = tcp_loopback_pair().expect("loopback connects");
        let (c, s): (BoxedChannel, BoxedChannel) = match rec {
            Some(rec) => (
                Box::new(TracedChannel::wrap(Box::new(c), rec)),
                Box::new(TracedChannel::wrap(Box::new(s), rec)),
            ),
            None => (Box::new(c), Box::new(s)),
        };
        let start = Instant::now();
        let (mine, theirs) = std::thread::scope(|scope| {
            let server = &server;
            // Each end drops with its party, closing that party's span.
            let serving = scope.spawn(move || server.serve_one(&*s));
            let mine = client.request_one(&*c, &x);
            drop(c);
            (mine, serving.join().expect("the server party panicked"))
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let verdict = match (mine, theirs) {
            (Ok(mine), Ok(theirs)) => {
                let raw = c2pi_mpc::share::reconstruct(&mine.share, &theirs.share);
                client
                    .config()
                    .fixed
                    .decode_tensor(&raw, &mine.dims)
                    .map_err(|e| e.to_string())
                    .and_then(|logits| {
                        let prediction = logits.argmax().unwrap_or(0);
                        checker.check_full(&x, &logits, prediction)
                    })
            }
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        report.check(verdict.is_ok(), || format!("party pair {i}: {}", verdict.unwrap_err()));
        walls.push(wall_ms);
    }
    walls
}
