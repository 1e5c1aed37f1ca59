//! Multi-client load generator: drives N concurrent clients against a
//! reactor `pi_server`, verifying every answer against the clear model.
//!
//! ```text
//! # against a live server (see the pi_server example / ci/smoke.sh):
//! cargo run --release --example multi_client -- --addr 127.0.0.1:PORT --clients 4 --iters 2
//! # self-contained: spawns an in-process server on an ephemeral port
//! cargo run --release --example multi_client -- --clients 4 --iters 2
//! ```
//!
//! Each client thread runs `--iters` sequential inferences over its own
//! connection-per-request [`ReactorClient`]. A `BUSY` backpressure frame
//! is retried up to `--retries` times, sleeping the server-suggested
//! backoff between attempts — against a deliberately starved pool
//! (`pi_server --preprocess-delay-ms`) this is the shed-and-retry path
//! the smoke harness pins down. Every reconstructed logit vector is
//! compared elementwise against the clear model's forward pass, and the
//! argmax prediction must match whenever the clear top-2 gap is larger
//! than the fixed-point tolerance. Exits non-zero on any mismatch or
//! transport failure, so CI can use it as the serving smoke test.
//! Prints aggregate online throughput at the end, and on the same line
//! `client_deal_ms_mean=` — the mean time a request spent expanding the
//! client's half of its dealt seed (on Delphi: garbling), summed from
//! the clients' own session ledgers; with `--stats` it also fetches and
//! prints the server's Prometheus-style metrics exposition.
//!
//! For the batching smoke, `--fixed-seed S` makes every inference send
//! the same input and `--dump-bits FILE` records each reconstruction's
//! logit bit patterns as one hex line per inference — sorted dumps from
//! a batched and an unbatched server (one worker, one shard, so the
//! material stream is consumed in order either way) must be identical.

#[path = "two_party/common.rs"]
mod common;

use c2pi_suite::core::reactor::{ReactorClient, ReactorConfig, ReactorServer};
use c2pi_suite::tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elementwise tolerance between fixed-point and clear logits.
const TOL: f32 = 0.05;
/// Clear top-2 gap above which the argmax must agree exactly.
const GAP: f32 = 3.0 * TOL;

struct Opts {
    addr: Option<String>,
    backend: c2pi_suite::pi::PiBackend,
    clients: usize,
    iters: usize,
    retries: usize,
    stats: bool,
    /// One input for every inference (instead of per-(client, iter)
    /// seeds) — the shape the batching smoke needs to compare runs.
    fixed_seed: Option<u64>,
    /// Append one hex line of logit bit patterns per inference, for
    /// bit-exact (multiset) comparison across server configurations.
    dump_bits: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: None,
        backend: c2pi_suite::pi::PiBackend::Cheetah,
        clients: 4,
        iters: 2,
        retries: 8,
        stats: false,
        fixed_seed: None,
        dump_bits: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("missing value"));
        match flag.as_str() {
            "--addr" => opts.addr = Some(val()),
            "--backend" => opts.backend = common::parse_backend(&val()),
            "--clients" => opts.clients = val().parse().expect("--clients takes a count"),
            "--iters" => opts.iters = val().parse().expect("--iters takes a count"),
            "--retries" => opts.retries = val().parse().expect("--retries takes a count"),
            "--stats" => opts.stats = true,
            "--fixed-seed" => {
                opts.fixed_seed = Some(val().parse().expect("--fixed-seed takes a seed"));
            }
            "--dump-bits" => opts.dump_bits = Some(val()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    opts
}

/// Top-2 gap of a logit slice.
fn top2_gap(logits: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &v in logits {
        if v > best {
            second = best;
            best = v;
        } else if v > second {
            second = v;
        }
    }
    best - second
}

fn main() {
    let opts = parse_opts();
    let model = common::demo_model();
    // In-process fallback server so the example is self-contained.
    let inprocess = if opts.addr.is_none() {
        let session = common::build_session(opts.backend);
        let cfg = ReactorConfig {
            workers: opts.clients.max(1),
            pool_low: 2,
            pool_high: 8,
            ..Default::default()
        };
        let server = ReactorServer::bind(Arc::clone(session.core()), "127.0.0.1:0", cfg)
            .expect("bind in-process server");
        server.preprocess(opts.clients).expect("initial offline phase");
        Some(server)
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&opts.addr, &inprocess) {
        // Resolve via ToSocketAddrs so hostnames work, not just IPs.
        (Some(a), _) => std::net::ToSocketAddrs::to_socket_addrs(&a.as_str())
            .ok()
            .and_then(|mut addrs| addrs.next())
            .unwrap_or_else(|| panic!("--addr {a:?} does not resolve to host:port")),
        (None, Some(server)) => server.local_addr(),
        (None, None) => unreachable!(),
    };
    println!(
        "[multi_client] {} clients x {} inferences against {addr} ({} backend, {} retries)",
        opts.clients,
        opts.iters,
        opts.backend.name(),
        opts.retries
    );

    let total = opts.clients * opts.iters;
    let start = Instant::now();
    let (failures, bit_lines, deal_seconds) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|t| {
                let model = &model;
                let backend = opts.backend;
                let iters = opts.iters;
                let retries = opts.retries;
                let fixed_seed = opts.fixed_seed;
                let dump = opts.dump_bits.is_some();
                scope.spawn(move || {
                    let client = ReactorClient::new(common::build_session(backend))
                        .with_connect_timeout(Duration::from_secs(30))
                        .with_retries(retries);
                    let [c, h, w] = common::INPUT_CHW;
                    let mut failures = 0usize;
                    let mut lines = Vec::new();
                    for i in 0..iters {
                        let seed = fixed_seed.unwrap_or((1000 * t + i) as u64);
                        let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, seed);
                        let clear = match model.seq().forward_eval(&x) {
                            Ok(y) => y,
                            Err(e) => {
                                eprintln!("[client {t}] clear model failed: {e}");
                                failures += 1;
                                continue;
                            }
                        };
                        match client.infer(addr, &x) {
                            Ok(got) => {
                                if dump {
                                    lines.push(
                                        got.logits
                                            .as_slice()
                                            .iter()
                                            .map(|v| format!("{:08x}", v.to_bits()))
                                            .collect::<Vec<_>>()
                                            .join(" "),
                                    );
                                }
                                let max_diff = got
                                    .logits
                                    .as_slice()
                                    .iter()
                                    .zip(clear.as_slice())
                                    .map(|(a, b)| (a - b).abs())
                                    .fold(0.0f32, f32::max);
                                let clear_pred = clear.argmax().unwrap_or(0);
                                let decisive = top2_gap(clear.as_slice()) > GAP;
                                if max_diff > TOL || (decisive && got.prediction != clear_pred) {
                                    eprintln!(
                                        "[client {t}] MISMATCH on inference {i}: \
                                         max |diff| {max_diff:.4}, prediction {} vs clear {}",
                                        got.prediction, clear_pred
                                    );
                                    failures += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("[client {t}] inference {i} failed: {e}");
                                failures += 1;
                            }
                        }
                    }
                    // What this client spent expanding its half of each
                    // dealt seed, as its own session ledger counted it.
                    (failures, lines, client.session().ledger().generation_seconds)
                })
            })
            .collect();
        let mut failures = 0usize;
        let mut bit_lines = Vec::new();
        let mut deal_seconds = 0.0;
        for h in handles {
            let (f, lines, dealt) = h.join().expect("client thread");
            failures += f;
            bit_lines.extend(lines);
            deal_seconds += dealt;
        }
        (failures, bit_lines, deal_seconds)
    });
    if let Some(path) = &opts.dump_bits {
        let mut text: String = bit_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).expect("write --dump-bits file");
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "[multi_client] {} / {total} correct in {elapsed:.2}s — {:.2} inferences/s aggregate, \
         client_deal_ms_mean={:.3}",
        total - failures,
        total as f64 / elapsed,
        deal_seconds * 1e3 / total as f64
    );
    if opts.stats {
        // Fetch before tearing the in-process server down; against a
        // --serve-n server this races its graceful drain, so treat a
        // refused stats connection as informational, not fatal.
        let client = ReactorClient::new(common::build_session(opts.backend))
            .with_connect_timeout(Duration::from_secs(5));
        match client.stats(addr) {
            Ok(text) => print!("{text}"),
            Err(e) => eprintln!("[multi_client] stats fetch failed: {e}"),
        }
    }
    if let Some(server) = inprocess {
        let ledger = server.pool().ledger();
        println!(
            "[multi_client] server ledger: {} offline + {} inline = {} consumed + {} pooled",
            ledger.generated_offline, ledger.generated_inline, ledger.consumed, ledger.available
        );
        server.drain().expect("graceful drain");
    }
    if failures > 0 {
        eprintln!("[multi_client] FAILED — {failures} of {total} inferences wrong");
        std::process::exit(1);
    }
    println!("[multi_client] OK — every prediction matches the clear model");
}
