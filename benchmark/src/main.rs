//! `c2pi_benchmark` — the repository's benchmark (see `../README.md`).
//!
//! ```text
//! c2pi_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! c2pi_benchmark --workload <name> --repeat <N> [--seed <n>] [--seconds <s>]
//! c2pi_benchmark --self-test
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` records spans, times every
//! layer and prints the per-layer metrics. The last line of standard
//! output is the result object the driver reads.

mod json;
mod layers;
mod metrics;
mod reactor;
mod repeat;
mod solo;
mod stats;
mod trace;
mod workload;

use metrics::{Report, END_TO_END, PER_LAYER};
use stats::{mean, median, tail};
use std::process::ExitCode;
use trace::{party_splits, Recorder};
use workload::{Checker, Shape, Workload};

use c2pi_pi::{OpCounts, PiReport, PreprocessLedger};
use c2pi_transport::TrafficSnapshot;

/// Set-up is repeated at least this often in an end-to-end run; `setup_s`
/// is the median.
const SETUP_REPS_MIN: usize = 3;
/// Set-up is repeated further, up to this often, while the repeats so
/// far took less than [`SETUP_BUDGET_S`]: a cheap set-up is made of short
/// latency-bound steps and needs more repeats for a steady median.
const SETUP_REPS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 4.0;
/// Share of `--seconds` a traced run spends in each of its two loops
/// (tracing off, tracing on); the rest goes to the layer micro-timings.
const TRACE_SLICE: f64 = 0.2;

/// What a workload's timed loop measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Milliseconds each caller waited per inference.
    pub wait_ms: Vec<f64>,
    /// `PiReport.online_seconds` of the same inferences, in ms.
    pub party_ms: Vec<f64>,
    /// Correct inferences per second of timed online wall, one sample
    /// per round (solo) or per loop (reactor).
    pub inf_rates: Vec<f64>,
    /// Material sets dealt per second of dealing.
    pub deal_rates: Vec<f64>,
    /// One inference's online traffic and operation counts; every
    /// inference of a run must report the same.
    pub online: Option<TrafficSnapshot>,
    pub counts: Option<OpCounts>,
    /// The dealing side's ledger when the loop ended.
    pub ledger: PreprocessLedger,
}

impl Measured {
    /// Keeps the first inference's exact counts and fails the run when a
    /// later one differs.
    pub fn note_counts(&mut self, r: &PiReport, report: &mut Report) {
        match (&self.online, &self.counts) {
            (Some(online), Some(counts)) => {
                if *online != r.online || *counts != r.counts {
                    report.check(false, || {
                        format!("exact counts changed between inferences: {:?}", r.online)
                    });
                }
            }
            _ => {
                self.online = Some(r.online);
                self.counts = Some(r.counts.clone());
            }
        }
    }
}

/// The options of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub self_test: bool,
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 0,
        self_test: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            o.self_test = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => o.repeat = value.parse().map_err(|_| bad("a count"))?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(o)
}

/// Whether set-up should run once more, given the seconds each took.
fn set_up_again(took: &[f64]) -> bool {
    took.len() < SETUP_REPS_MIN
        || (took.len() < SETUP_REPS_MAX && took.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Runs the workload's loop with tracing off: set-up several times, then
/// `seconds` of load on the last one.
fn measure(w: Workload, seed: u64, seconds: f64, checker: &Checker, report: &mut Report) {
    let mut m = Measured::default();
    match w.shape {
        Shape::Solo { round } => {
            let mut solo;
            loop {
                let (built, secs) = solo::Solo::set_up(w, round, seed, None, checker, report);
                m.setup_s.push(secs);
                solo = built;
                if !set_up_again(&m.setup_s) {
                    break;
                }
                // Free this set-up's stock before the next one deals its own.
                drop(solo);
            }
            solo.run(round, seconds, checker, report, &mut m);
        }
        Shape::Reactor { .. } => {
            let mut reactor;
            loop {
                let (built, secs) = reactor::Reactor::set_up(w, seed, None, checker, report);
                m.setup_s.push(secs);
                reactor = built;
                if !set_up_again(&m.setup_s) {
                    break;
                }
                reactor.discard(report);
            }
            reactor.run(seconds, checker, report, &mut m);
            reactor.finish(Vec::new(), report);
        }
    }
    end_to_end(&m, report);
}

fn end_to_end(m: &Measured, report: &mut Report) {
    let mut set = |name: &str, value: f64, n: usize| report.set(END_TO_END, name, value, n);
    set("setup_s", median(&m.setup_s), m.setup_s.len());
    set("online_ms_p50", median(&m.wait_ms), m.wait_ms.len());
    set("inf_per_s", median(&m.inf_rates), m.inf_rates.len());
    set("offline_sets_per_s", median(&m.deal_rates), m.deal_rates.len());
    let online = m.online.unwrap_or_default();
    set("online_bytes_per_inf", online.bytes_total() as f64, m.wait_ms.len());
    set("online_flights_per_inf", online.flights as f64, m.wait_ms.len());
    let sets = m.ledger.generated_offline + m.ledger.generated_inline;
    let per_set = |total: u64| total as f64 / sets.max(1) as f64;
    set("dealt_bytes_per_inf", per_set(m.ledger.seed_bytes), sets as usize);
    set("expanded_bytes_per_set", per_set(m.ledger.expanded_bytes), sets as usize);
    set("peak_rss_mb", workload::peak_rss_mb(), 1);
    for name in END_TO_END.iter().map(|d| d.name).filter(|n| *n != "correct_share") {
        let positive = report.value(name).is_some_and(|v| v > 0.0);
        report.check(positive, || format!("end-to-end metric {name} was not measured"));
    }
    let share = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.set(END_TO_END, "correct_share", share, report.attempted as usize);
}

/// The traced run: the workload's loop for a slice of `seconds` with
/// tracing off, again with spans recorded, then every layer on the
/// workload's path timed on its own. Writes the spans as JSON lines.
fn measure_traced(w: Workload, seed: u64, seconds: f64, checker: &Checker, report: &mut Report) {
    let rec = Recorder::new();
    let slice = seconds * TRACE_SLICE;
    let mut plain = Measured::default();
    let mut traced = Measured::default();
    let set = |report: &mut Report, name: &str, value: f64, n: usize| {
        report.set(PER_LAYER, name, value, n);
    };
    // The same quantity's median with plain and with traced channels,
    // and its sample count: the tracing overhead.
    let (untraced_ms, traced_ms, pairs) = match w.shape {
        Shape::Solo { round } => {
            let round = (round / 5).max(1);
            let (mut solo, _) = solo::Solo::set_up(w, round, seed, None, checker, report);
            solo.run(round, slice, checker, report, &mut plain);
            drop(solo);
            let (mut solo, _) = solo::Solo::set_up(w, round, seed, Some(&rec), checker, report);
            solo.run(round, slice, checker, report, &mut traced);
            let reveal: Vec<f64> =
                plain.wait_ms.iter().zip(&plain.party_ms).map(|(w, p)| w - p).collect();
            set(report, "core.session.reveal_suffix_ms", median(&reveal), reveal.len());
            let inline = plain.ledger.generated_inline + traced.ledger.generated_inline;
            set(report, "pi.pool.inline_deals", inline as f64, 1);
            report.check(inline == 0, || format!("{inline} sets dealt inline"));
            (median(&plain.wait_ms), median(&traced.wait_ms), traced.wait_ms.len())
        }
        Shape::Reactor { .. } => {
            let (mut r, _) = reactor::Reactor::set_up(w, seed, Some(&rec), checker, report);
            r.run(slice, checker, report, &mut plain);
            let stats_ms = r.time_stats(5);
            let served = r.finish(stats_ms, report);
            reactor_layers(&served, &plain, report);
            let n = if w.backend == c2pi_pi::PiBackend::Delphi { 8 } else { 30 };
            let untraced = reactor::party_pair(w, seed, n, None, checker, report);
            let traced = reactor::party_pair(w, seed, n, Some(&rec), checker, report);
            (median(&untraced), median(&traced), n)
        }
    };
    set(report, "trace_overhead_pct", 100.0 * (traced_ms / untraced_ms - 1.0), pairs);

    let online = plain.online.unwrap_or_default();
    set(report, "transport.frames_per_inf", online.messages as f64, plain.wait_ms.len());
    set(report, "pi.session.report_online_ms", mean(&plain.party_ms), plain.party_ms.len());
    let (p90, pct) = tail(&plain.wait_ms, 0.90);
    report.set_noted(
        PER_LAYER,
        if w.is_split() { "pi.session.online_ms_p90" } else { "core.reactor.request_ms_p90" },
        p90,
        plain.wait_ms.len(),
        format!("p{pct:.0} of the caller's wait: the highest with 10 samples beyond"),
    );

    if let Some(counts) = &plain.counts {
        let ctx = layers::Context {
            workload: w,
            seed,
            rec: Some(&rec),
            checker,
            counts,
            report_online_s: mean(&plain.party_ms) / 1e3,
        };
        ctx.measure(report);
    }

    let spans = rec.spans();
    // Per-party split of every traced inference.
    let client = party_splits(&spans, "client");
    let server = party_splits(&spans, "server");
    let ms = |ns: u64| ns as f64 / 1e6;
    for (i, p) in client.iter().enumerate() {
        let parts = p.compute_ns + p.recv_wait_ns + p.send_ns;
        let off = (parts as f64 - p.span_ns as f64).abs() / p.span_ns.max(1) as f64;
        report.check(off <= 0.02, || {
            format!("traced inference {i}: client parts are {off:.3} off its span")
        });
    }
    let col = |ps: &[trace::PartySplit], f: fn(&trace::PartySplit) -> u64| -> Vec<f64> {
        ps.iter().map(|p| ms(f(p))).collect()
    };
    let n = client.len();
    set(report, "transport.client_recv_wait_ms", mean(&col(&client, |p| p.recv_wait_ns)), n);
    set(report, "transport.server_recv_wait_ms", mean(&col(&server, |p| p.recv_wait_ns)), n);
    let sends = mean(&col(&client, |p| p.send_ns)) + mean(&col(&server, |p| p.send_ns));
    set(report, "transport.send_ms", sends, n);
    set(report, "pi.session.client_compute_ms", median(&col(&client, |p| p.compute_ns)), n);
    set(report, "pi.session.server_compute_ms", median(&col(&server, |p| p.compute_ns)), n);

    let path = workload::scratch_dir().join(format!("{}.trace.jsonl", w.name));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// The reactor's own counters as per-layer metrics.
fn reactor_layers(served: &reactor::Served, m: &Measured, report: &mut Report) {
    let s = &served.snapshot;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let n = s.served as usize;
    let mut set = |name: &str, value: f64, n: usize| report.set(PER_LAYER, name, value, n);
    set(
        "core.reactor.service_ms_mean",
        s.latency.sum_seconds * 1e3 / s.latency.count.max(1) as f64,
        n,
    );
    set("core.reactor.envelope_ms", median(&served.envelope_ms), served.envelope_ms.len());
    set("core.reactor.busy_share", ratio(s.shed, s.accepted), s.accepted as usize);
    set("core.reactor.coalesced_share", ratio(s.coalesced, s.served), n);
    set("core.reactor.batch_size_mean", ratio(s.batch_size.sum_members, s.batch_size.count), n);
    let flushes = s.flushes.0 + s.flushes.1 + s.flushes.2;
    set("core.reactor.flush_window_share", ratio(s.flushes.1, flushes), flushes as usize);
    set("core.reactor.wakeups_per_inf", ratio(s.poll_wakeups, s.served), n);
    set("core.reactor.events_per_wakeup", ratio(s.poll_events, s.poll_wakeups), n);
    set("core.reactor.stats_ms", median(&served.stats_ms), served.stats_ms.len());
    set("pi.shard.steals_per_inf", ratio(s.steals, s.served), n);
    set("pi.pool.client_deal_ms", median(&served.client_deal_ms), served.client_deal_ms.len());
    set("pi.pool.inline_deals", m.ledger.generated_inline as f64, 1);
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, o: &Options) -> ExitCode {
    let checker = Checker::new();
    let mut report = Report::default();
    println!(
        "c2pi_benchmark {} seed {} seconds {} trace {} ({} cores)",
        w.name,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if o.trace {
        measure_traced(w, o.seed, o.seconds, &checker, &mut report);
        report.complete(PER_LAYER);
    } else {
        measure(w, o.seed, o.seconds, &checker, &mut report);
        report.complete(END_TO_END);
    }
    report.print_lines();
    println!("{}", report.result_line().render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--self-test`: the checker must fire. Runs one real split inference
/// and one real full-PI inference, corrupts one share of the first and
/// one logit of the second, and asserts both are counted as failures.
fn self_test() -> ExitCode {
    use c2pi_core::C2pi;
    let checker = Checker::new();
    let seed = 1;
    let x = workload::input(seed, 0);
    let master = workload::noise_master(seed);
    let mut report = Report::default();

    let mut session = C2pi::builder(workload::model())
        .split_at(workload::SPLIT)
        .noise(workload::NOISE)
        .noise_seed(master)
        .build()
        .expect("the demo deployment compiles");
    session.preprocess(1).expect("dealer");
    let good = session.infer(&x).expect("inference");
    let verdict = checker.check_split(&x, &good, master, 0);
    report.check(verdict.is_ok(), || format!("honest split reply rejected: {verdict:?}"));
    // One corrupted share element: the server reconstructs an activation
    // that is off by 1.0 in one place.
    let mut bad = good.clone();
    let fp = c2pi_mpc::FixedPoint::default();
    let act = bad.revealed_activation.as_mut().expect("split reply");
    let share = fp.encode(act.as_slice()[0]).wrapping_add(fp.encode(1.0));
    act.as_mut_slice()[0] = fp.decode(share);

    let full = C2pi::builder(workload::model()).full_pi().build();
    let mut full = full.expect("the demo deployment compiles");
    full.preprocess(1).expect("dealer");
    let good = full.infer(&x).expect("inference");
    let verdict = checker.check_full(&x, &good.logits, good.prediction);
    report.check(verdict.is_ok(), || format!("honest full-PI reply rejected: {verdict:?}"));
    let mut logits = good.logits.clone();
    logits.as_mut_slice()[3] += 1.0;

    let honest_ok = report.correct();
    let verdict = checker.check_split(&x, &bad, master, 0);
    report.check(verdict.is_ok(), || format!("corrupted share: {}", verdict.unwrap_err()));
    let verdict = checker.check_full(&x, &logits, good.prediction);
    report.check(verdict.is_ok(), || format!("corrupted logit: {}", verdict.unwrap_err()));
    report.print_lines();
    let failed_share = report.failed as f64 / report.attempted as f64;
    println!("self-test: failed_share {failed_share} ({} of {})", report.failed, report.attempted);
    if honest_ok && report.failed == 2 {
        println!("self-test OK: honest replies pass, both corruptions are caught");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED: the checker did not fire as it should");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("c2pi_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if options.self_test {
        return self_test();
    }
    let Some(w) = options.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!("c2pi_benchmark: --workload must be one of {:?}", workload::NAMES);
        return ExitCode::from(2);
    };
    if options.repeat > 0 {
        return repeat::run(w, &options);
    }
    run_one(w, &options)
}
