//! Standalone multi-client PI server: a readiness-driven
//! [`ReactorServer`] over the shared demo session, serving any number of
//! `multi_client` processes.
//!
//! ```text
//! cargo run --release --example pi_server -- --backend cheetah --addr 127.0.0.1:0 \
//!     --workers 4 --shards 4 --max-clients 1024 --serve-n 8
//! ```
//!
//! One reactor thread multiplexes every connection; `--workers` threads
//! run the online protocol, each homed on one of `--shards` material
//! shards (work-stealing between them); `--max-clients` bounds tracked
//! connections, everything beyond it is shed with a typed `BUSY` frame.
//!
//! Binds port 0 by default (no fixed-port races) and announces the real
//! address on stdout as `C2PI_LISTENING <addr>` so a supervisor (the CI
//! smoke script) can hand it to clients. With `--serve-n N` the server
//! drains gracefully once N connections finished (non-zero if any
//! errored); otherwise it serves until killed.
//!
//! With `--persist <base>` every shard attaches a crash-safe
//! [`MaterialStore`](c2pi_suite::pi::MaterialStore) segment
//! (`<base>.shard<i>`) before preprocessing and the server announces the
//! aggregate warm-boot outcome as
//! `C2PI_WARMBOOT restored=<n> drawn=<n> truncated=<bool>` — a restarted
//! server resumes the unconsumed pool without re-preprocessing.
//!
//! `--batch-window-ms W --max-batch K` turn on cross-client coalescing:
//! concurrent inferences arriving within W milliseconds fuse into one
//! protocol run of up to K members (off by default — W of 0 or K of 1
//! serves every request as a run of one). The final reactor line
//! reports `batches=` (protocol runs of any size: `batches == served`
//! without coalescing) and `coalesced=` (inferences served in runs of
//! two or more) so a harness can assert batching really happened.
//!
//! `--preprocess-delay-ms D` starts serving *before* dealing the initial
//! material: for D milliseconds every inference request is answered with
//! `BUSY` (clients are expected to honour the retry-after), which is how
//! the smoke harness exercises the shed-and-retry path deliberately.

#[path = "two_party/common.rs"]
mod common;

use c2pi_suite::core::reactor::{ReactorConfig, ReactorServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Opts {
    addr: String,
    backend: c2pi_suite::pi::PiBackend,
    serve_n: u64,
    preprocess: usize,
    preprocess_delay: Option<Duration>,
    cfg: ReactorConfig,
    timeout: Duration,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:0".to_string(),
        backend: c2pi_suite::pi::PiBackend::Cheetah,
        serve_n: 0,
        preprocess: 4,
        preprocess_delay: None,
        cfg: ReactorConfig::default(),
        timeout: Duration::from_secs(300),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("missing value"));
        match flag.as_str() {
            "--addr" => opts.addr = val(),
            "--backend" => opts.backend = common::parse_backend(&val()),
            "--serve-n" => opts.serve_n = val().parse().expect("--serve-n takes a count"),
            "--preprocess" => opts.preprocess = val().parse().expect("--preprocess takes a count"),
            "--preprocess-delay-ms" => {
                opts.preprocess_delay =
                    Some(Duration::from_millis(val().parse().expect("--preprocess-delay-ms")));
            }
            // --worker-cap is the pre-reactor spelling; keep it working.
            "--workers" | "--worker-cap" => {
                opts.cfg.workers = val().parse().expect("--workers takes a count");
            }
            "--shards" => opts.cfg.shards = val().parse().expect("--shards takes a count"),
            "--max-clients" => {
                opts.cfg.max_clients = val().parse().expect("--max-clients takes a count");
            }
            "--pool-low" => opts.cfg.pool_low = val().parse().expect("--pool-low takes a count"),
            "--pool-high" => opts.cfg.pool_high = val().parse().expect("--pool-high takes a count"),
            "--retry-after-ms" => {
                opts.cfg.retry_after =
                    Duration::from_millis(val().parse().expect("--retry-after-ms"));
            }
            "--persist" => opts.cfg.persist_path = Some(val().into()),
            "--batch-window-ms" => {
                opts.cfg.batch_window =
                    Duration::from_millis(val().parse().expect("--batch-window-ms"));
            }
            "--max-batch" => {
                opts.cfg.max_batch = val().parse().expect("--max-batch takes a count");
            }
            "--timeout-secs" => {
                opts.timeout = Duration::from_secs(val().parse().expect("--timeout-secs"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    opts
}

fn main() {
    let opts = parse_opts();
    let session = common::build_session(opts.backend);
    // The reactor owns its own sharded pool (created inside bind, warm-
    // booted from the persistent segments when --persist is set), so the
    // initial offline phase always runs after bind, against that pool.
    let server = ReactorServer::bind(Arc::clone(session.core()), &opts.addr[..], opts.cfg.clone())
        .expect("bind server");
    if let Some(boot) = server.warm_boot() {
        println!(
            "C2PI_WARMBOOT restored={} drawn={} truncated={}",
            boot.restored, boot.drawn, boot.truncated_tail
        );
    }
    match opts.preprocess_delay {
        // Deliberate starvation window: announce first, deal later, and
        // let the typed backpressure frames carry the interval.
        Some(delay) => {
            let pool = Arc::clone(server.pool());
            let n = opts.preprocess;
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                pool.preprocess(n).expect("delayed offline phase");
            });
        }
        None => server.preprocess(opts.preprocess).expect("initial offline phase"),
    }
    let shards = server.pool().shard_count();
    println!(
        "[pi_server] backend {} — serving on {} (workers {}, shards {shards}, \
         max-clients {}, pool {}..{} per shard)",
        session.backend_name(),
        server.local_addr(),
        opts.cfg.workers,
        opts.cfg.max_clients,
        opts.cfg.pool_low,
        opts.cfg.pool_high,
    );
    common::announce_listening(server.local_addr());

    if opts.serve_n == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let start = Instant::now();
    loop {
        let snap = server.metrics_snapshot();
        if snap.served + snap.errors >= opts.serve_n {
            break;
        }
        if start.elapsed() > opts.timeout {
            eprintln!(
                "[pi_server] TIMEOUT after {} of {} connections",
                snap.served + snap.errors,
                opts.serve_n
            );
            std::process::exit(2);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = server.metrics_snapshot();
    let ledger = server.pool().ledger();
    println!(
        "[pi_server] done — {} served, {} errors; ledger: {} offline + {} inline \
         = {} consumed + {} pooled",
        snap.served,
        snap.errors,
        ledger.generated_offline,
        ledger.generated_inline,
        ledger.consumed,
        ledger.available,
    );
    let dealt: u64 = snap.shards.iter().map(|s| s.generated_offline).sum();
    let deal_seconds: f64 = snap.shards.iter().map(|s| s.generation_seconds).sum();
    let deal_ms_per_set = if dealt > 0 { deal_seconds * 1e3 / dealt as f64 } else { 0.0 };
    println!(
        "[pi_server] reactor: accepted={} shed={} steals={} hangups={} coalesced={} batches={} \
         poll_backend={} poll_wakeups={} poll_events={} deal_ms_per_set={deal_ms_per_set:.3}",
        snap.accepted,
        snap.shed,
        snap.steals,
        snap.hangups,
        snap.coalesced,
        snap.batches,
        snap.poll_backend,
        snap.poll_wakeups,
        snap.poll_events
    );
    let errors = snap.errors;
    server.drain().expect("graceful drain");
    if errors > 0 {
        std::process::exit(1);
    }
}
