//! The reactor's observability surface: lock-free counters, an
//! online-latency histogram, and the Prometheus-style text exposition
//! served on the `STATS` frame.
//!
//! Counters are plain relaxed atomics — serving workers bump them on
//! the hot path, so nothing here takes a lock or allocates. The
//! rendered exposition follows the Prometheus text format closely
//! enough to scrape (`# HELP`/`# TYPE` comments, `_total` counters,
//! cumulative `_bucket{le=…}` histogram lines), and closely enough to
//! grep in CI, which is the consumer this repo actually has.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Latency-histogram bucket upper bounds, in milliseconds. Chosen to
/// bracket the measured online latencies (Delphi ~12 ms, Cheetah ~21 ms
/// in memory; 60–160 ms through the reactor; more under load or
/// simulated WAN).
pub const LATENCY_BUCKETS_MS: [u64; 13] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Batch-size histogram bucket upper bounds (members per protocol
/// run). Powers of two up to the largest `max_batch` a deployment
/// plausibly configures; an uncoalesced server records only runs of 1.
pub const BATCH_SIZE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Fixed-bucket histogram over a bounds slice plus a final +Inf bucket.
/// Observations and their sum are integers in the histogram's own unit
/// (microseconds, members); `per_bound` is how many of those make one
/// unit of the bounds (1000 for millisecond bounds over microseconds).
/// Buckets are non-cumulative; the exposition accumulates.
#[derive(Debug)]
pub(crate) struct Histogram {
    bounds: &'static [u64],
    per_bound: u64,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64], per_bound: u64) -> Histogram {
        Histogram {
            bounds,
            per_bound,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub(crate) fn record(&self, value: u64) {
        let scaled = value / self.per_bound;
        let at = self.bounds.iter().position(|&b| scaled <= b).unwrap_or(self.bounds.len());
        self.buckets[at].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Per-bucket counts, observation count and sum.
    fn snapshot(&self) -> (Vec<u64>, u64, u64) {
        (
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

/// Point-in-time copy of the online-latency histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts over [`LATENCY_BUCKETS_MS`];
    /// the last entry is +Inf.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub sum_seconds: f64,
}

/// Point-in-time copy of the batch-size histogram.
#[derive(Debug, Clone, Default)]
pub struct BatchSizeSnapshot {
    /// Per-bucket (non-cumulative) counts over [`BATCH_SIZE_BUCKETS`];
    /// the last entry is +Inf.
    pub buckets: Vec<u64>,
    /// Protocol runs executed.
    pub count: u64,
    /// Total members across all runs (`sum / count` is the mean
    /// batch size).
    pub sum_members: u64,
}

/// Shared serving counters, updated lock-free by the reactor and every
/// worker.
#[derive(Debug)]
pub struct ReactorMetrics {
    /// Connections accepted by the reactor.
    pub(crate) accepted: AtomicU64,
    /// Inferences served to completion.
    pub(crate) served: AtomicU64,
    /// Requests shed with a typed backpressure frame (pool starved,
    /// dispatch queue full, or draining).
    pub(crate) shed: AtomicU64,
    /// Connections that failed mid-protocol.
    pub(crate) errors: AtomicU64,
    /// Connections closed by the peer before a request arrived.
    pub(crate) hangups: AtomicU64,
    /// `STATS` requests answered.
    pub(crate) stats_served: AtomicU64,
    /// Connections currently registered, queued or in service.
    pub(crate) active: AtomicU64,
    /// Whether the server is draining (set once, never cleared).
    pub(crate) draining: AtomicBool,
    /// Online latency of served inferences (take → share revealed), in
    /// microseconds.
    pub(crate) latency: Histogram,
    /// Protocol runs executed, of any size: an uncoalesced server reads
    /// `batches == served`.
    pub(crate) batches: AtomicU64,
    /// Members served in genuinely fused runs (batches of ≥ 2) — the
    /// coalescing win the smoke test asserts on.
    pub(crate) coalesced: AtomicU64,
    /// Batches flushed because they reached `max_batch`.
    pub(crate) flush_full: AtomicU64,
    /// Batches flushed because the oldest member's window elapsed.
    pub(crate) flush_window: AtomicU64,
    /// Partial batches flushed (and served) at drain.
    pub(crate) flush_drain: AtomicU64,
    /// Members served per run.
    pub(crate) batch_size: Histogram,
}

impl Default for ReactorMetrics {
    fn default() -> Self {
        let zero = || AtomicU64::new(0);
        ReactorMetrics {
            accepted: zero(),
            served: zero(),
            shed: zero(),
            errors: zero(),
            hangups: zero(),
            stats_served: zero(),
            active: zero(),
            draining: AtomicBool::new(false),
            latency: Histogram::new(&LATENCY_BUCKETS_MS, 1000),
            batches: zero(),
            coalesced: zero(),
            flush_full: zero(),
            flush_window: zero(),
            flush_drain: zero(),
            batch_size: Histogram::new(&BATCH_SIZE_BUCKETS, 1),
        }
    }
}

impl ReactorMetrics {
    pub(crate) fn add(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one protocol run that *served* `size ≥ 1` members,
    /// flushed for `reason` (see
    /// [`crate::reactor::batch::FlushReason`]): the run counter,
    /// the size histogram, the per-reason flush counter, and — for
    /// genuine fusions (`size ≥ 2`) — the coalesced-member counter.
    pub(crate) fn record_batch(&self, size: usize, reason: crate::reactor::batch::FlushReason) {
        use crate::reactor::batch::FlushReason;
        self.add(&self.batches);
        self.batch_size.record(size as u64);
        self.add(match reason {
            FlushReason::Full => &self.flush_full,
            FlushReason::Window => &self.flush_window,
            FlushReason::Drain => &self.flush_drain,
        });
        if size >= 2 {
            self.coalesced.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn connection_done(&self) {
        // `active` can transiently race to 0 during shutdown teardown;
        // saturate rather than wrap.
        let _ = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }
}

/// One shard's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Ready material sets pooled right now.
    pub depth: usize,
    /// Material consumed through this shard (its own takes plus steals
    /// against it).
    pub consumed: u64,
    /// Sets dealt offline into this shard.
    pub generated_offline: u64,
    /// Seconds this shard's dealers (preprocess calls, its replenisher)
    /// have spent expanding sets; with `generated_offline`, the dealing
    /// rate a replenisher sustains.
    pub generation_seconds: f64,
    /// Sets restored from this shard's store segment at warm boot.
    pub restored: u64,
}

/// Point-in-time view of the whole serving surface — what the `STATS`
/// frame carries, rendered by [`MetricsSnapshot::render_prometheus`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Worker threads.
    pub workers: usize,
    /// Connections accepted.
    pub accepted: u64,
    /// Inferences served.
    pub served: u64,
    /// Requests shed with backpressure frames.
    pub shed: u64,
    /// Mid-protocol failures.
    pub errors: u64,
    /// Peer hang-ups before a request.
    pub hangups: u64,
    /// `STATS` requests answered.
    pub stats_served: u64,
    /// Connections currently registered, queued or in service.
    pub active: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Cross-shard work steals.
    pub steals: u64,
    /// Material restored from store segments at warm boot.
    pub restored: u64,
    /// Per-shard pool state.
    pub shards: Vec<ShardSnapshot>,
    /// Online-latency histogram of served inferences.
    pub latency: HistogramSnapshot,
    /// Protocol runs executed, of any size.
    pub batches: u64,
    /// Members served in batches of ≥ 2.
    pub coalesced: u64,
    /// Batch flushes by reason: (full, window, drain).
    pub flushes: (u64, u64, u64),
    /// Members-served-per-run histogram.
    pub batch_size: BatchSizeSnapshot,
    /// Requests currently queued in the batch collector, waiting for
    /// their coalescing window. Filled in by the reactor's snapshot
    /// (the collector lives outside [`ReactorMetrics`]); zero wherever
    /// there is no collector.
    pub batch_pending: u64,
    /// Readiness-poller backend name (`"epoll"` or `"peek"`). Filled in
    /// by the reactor's snapshot (the poller lives outside
    /// [`ReactorMetrics`]); `"none"` wherever there is no poller.
    pub poll_backend: &'static str,
    /// Times the reactor's poller wait has returned. Filled in by the
    /// reactor's snapshot, like [`MetricsSnapshot::poll_backend`].
    pub poll_wakeups: u64,
    /// Readiness events those waits reported in total. The ratio
    /// `poll_events / poll_wakeups` is the payload per wakeup — near
    /// zero means the loop is spinning on spurious ticks, which is
    /// exactly what the epoll backend exists to eliminate.
    pub poll_events: u64,
}

impl MetricsSnapshot {
    pub(crate) fn gather(
        metrics: &ReactorMetrics,
        workers: usize,
        steals: u64,
        shards: Vec<ShardSnapshot>,
    ) -> MetricsSnapshot {
        let restored = shards.iter().map(|s| s.restored).sum();
        let (buckets, count, micros) = metrics.latency.snapshot();
        let latency = HistogramSnapshot { buckets, count, sum_seconds: micros as f64 / 1e6 };
        let (buckets, count, sum_members) = metrics.batch_size.snapshot();
        let batch_size = BatchSizeSnapshot { buckets, count, sum_members };
        MetricsSnapshot {
            workers,
            accepted: metrics.accepted.load(Ordering::Relaxed),
            served: metrics.served.load(Ordering::Relaxed),
            shed: metrics.shed.load(Ordering::Relaxed),
            errors: metrics.errors.load(Ordering::Relaxed),
            hangups: metrics.hangups.load(Ordering::Relaxed),
            stats_served: metrics.stats_served.load(Ordering::Relaxed),
            active: metrics.active.load(Ordering::Relaxed),
            draining: metrics.draining.load(Ordering::Relaxed),
            steals,
            restored,
            shards,
            latency,
            batches: metrics.batches.load(Ordering::Relaxed),
            coalesced: metrics.coalesced.load(Ordering::Relaxed),
            flushes: (
                metrics.flush_full.load(Ordering::Relaxed),
                metrics.flush_window.load(Ordering::Relaxed),
                metrics.flush_drain.load(Ordering::Relaxed),
            ),
            batch_size,
            batch_pending: 0,
            poll_backend: "none",
            poll_wakeups: 0,
            poll_events: 0,
        }
    }

    /// Total pooled material across shards.
    pub fn pooled(&self) -> usize {
        self.shards.iter().map(|s| s.depth).sum()
    }

    /// Renders the Prometheus-style text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut w = Exposition(String::with_capacity(4096));
        w.counter("c2pi_accepted_total", "Connections accepted by the reactor.")
            .value(self.accepted);
        w.counter("c2pi_served_total", "Online inferences served to completion.")
            .value(self.served);
        w.counter("c2pi_shed_total", "Requests shed with typed backpressure frames.")
            .value(self.shed);
        w.counter("c2pi_errors_total", "Connections that failed mid-protocol.").value(self.errors);
        w.counter("c2pi_hangups_total", "Peers gone before sending a request.").value(self.hangups);
        w.counter("c2pi_stats_requests_total", "STATS requests answered.").value(self.stats_served);
        w.counter("c2pi_pool_steals_total", "Cross-shard work-stealing takes.").value(self.steals);
        w.counter("c2pi_pool_restored_total", "Material restored from store segments.")
            .value(self.restored);
        w.gauge("c2pi_active_connections", "Connections registered, queued or in service.")
            .value(self.active);
        w.gauge("c2pi_draining", "Whether the server is draining (1) or live (0).")
            .value(u64::from(self.draining));
        w.gauge("c2pi_workers", "Serving worker threads.").value(self.workers);
        let shards = || self.shards.iter().enumerate();
        w.gauge("c2pi_shard_pool_depth", "Ready material sets pooled per shard.")
            .labelled("shard", shards().map(|(i, s)| (i, s.depth)));
        w.counter("c2pi_shard_consumed_total", "Material consumed per shard.")
            .labelled("shard", shards().map(|(i, s)| (i, s.consumed)));
        w.counter("c2pi_shard_dealt_total", "Sets dealt offline per shard.")
            .labelled("shard", shards().map(|(i, s)| (i, s.generated_offline)));
        w.counter("c2pi_shard_deal_seconds_total", "Seconds spent dealing sets per shard.")
            .labelled("shard", shards().map(|(i, s)| (i, s.generation_seconds)));
        w.histogram("c2pi_online_latency_seconds", "Online latency of served inferences.").buckets(
            LATENCY_BUCKETS_MS.iter().map(|&ms| ms as f64 / 1000.0),
            &self.latency.buckets,
            self.latency.count,
            format_args!("{:.6}", self.latency.sum_seconds),
        );
        w.counter("c2pi_batches_total", "Protocol runs executed, of any size.").value(self.batches);
        w.counter("c2pi_coalesced_total", "Inferences served inside fused batches of two or more.")
            .value(self.coalesced);
        w.gauge("c2pi_batch_pending", "Requests waiting in the batch collector for their window.")
            .value(self.batch_pending);
        let (full, window, drain) = self.flushes;
        w.counter("c2pi_batch_flush_total", "Batch flushes by trigger.")
            .labelled("reason", [("full", full), ("window", window), ("drain", drain)]);
        w.histogram("c2pi_batch_size", "Members served per protocol run.").buckets(
            BATCH_SIZE_BUCKETS.iter(),
            &self.batch_size.buckets,
            self.batch_size.count,
            self.batch_size.sum_members,
        );
        w.gauge("c2pi_poll_backend", "Readiness-poller backend in use (1 on the active label).")
            .labelled("backend", [(self.poll_backend, 1)]);
        w.counter("c2pi_poll_wakeups_total", "Times the reactor's poller wait returned.")
            .value(self.poll_wakeups);
        w.counter("c2pi_poll_events_total", "Readiness events reported across all poller waits.")
            .value(self.poll_events);
        w.0
    }
}

/// The exposition text under construction. Each of the three writers
/// spells one family's `# HELP` / `# TYPE` header and hands back the
/// [`Family`] its samples go through.
struct Exposition(String);

impl Exposition {
    fn family<'a>(&'a mut self, kind: &str, name: &'a str, help: &str) -> Family<'a> {
        let _ = writeln!(self.0, "# HELP {name} {help}\n# TYPE {name} {kind}");
        Family { out: &mut self.0, name }
    }

    fn counter<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family("counter", name, help)
    }

    fn gauge<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family("gauge", name, help)
    }

    fn histogram<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family("histogram", name, help)
    }
}

/// The sample lines of one family.
struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl Family<'_> {
    /// The family's one unlabelled sample.
    fn value(self, value: impl Display) {
        let _ = writeln!(self.out, "{} {value}", self.name);
    }

    /// One sample per `(label value, value)` pair, under the label `key`.
    fn labelled<L: Display, V: Display>(
        self,
        key: &str,
        samples: impl IntoIterator<Item = (L, V)>,
    ) {
        for (of, value) in samples {
            let _ = writeln!(self.out, "{}{{{key}=\"{of}\"}} {value}", self.name);
        }
    }

    /// Cumulative `_bucket{le=…}` samples over `bounds` and +Inf, then
    /// `_sum` and `_count`.
    fn buckets(
        self,
        bounds: impl Iterator<Item = impl Display>,
        buckets: &[u64],
        count: u64,
        sum: impl Display,
    ) {
        let name = self.name;
        let mut cumulative = 0u64;
        for (bound, n) in bounds.zip(buckets) {
            cumulative += n;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(self.out, "{name}_sum {sum}\n{name}_count {count}");
    }
}

/// Looks up one sample in a Prometheus-style exposition: the value on
/// the line whose metric name (labels included) is exactly `name`.
/// The CI smoke harness greps the text; tests use this to assert on it.
pub fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_accumulate_in_the_exposition() {
        let metrics = ReactorMetrics::default();
        metrics.latency.record(3_999); // 3 ms and change: ≤5ms bucket
        metrics.latency.record(30_000); // ≤50ms bucket
        metrics.latency.record(60_000_000); // +Inf
        let snap = MetricsSnapshot::gather(&metrics, 2, 0, vec![]);
        let text = snap.render_prometheus();
        assert_eq!(
            metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"0.002\"}"),
            Some(0.0)
        );
        assert_eq!(
            metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"0.005\"}"),
            Some(1.0)
        );
        assert_eq!(
            metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"0.05\"}"),
            Some(2.0)
        );
        assert_eq!(metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"10\"}"), Some(2.0));
        assert_eq!(
            metric_value(&text, "c2pi_online_latency_seconds_bucket{le=\"+Inf\"}"),
            Some(3.0)
        );
        assert_eq!(metric_value(&text, "c2pi_online_latency_seconds_count"), Some(3.0));
        assert!(snap.latency.sum_seconds > 60.0);
    }

    #[test]
    fn exposition_carries_counters_and_per_shard_depths() {
        let metrics = ReactorMetrics::default();
        metrics.add(&metrics.served);
        metrics.add(&metrics.served);
        metrics.add(&metrics.shed);
        let shards = vec![
            ShardSnapshot {
                depth: 4,
                consumed: 7,
                generated_offline: 9,
                generation_seconds: 0.125,
                restored: 2,
            },
            ShardSnapshot {
                depth: 1,
                consumed: 3,
                generated_offline: 4,
                generation_seconds: 0.0,
                restored: 0,
            },
        ];
        let snap = MetricsSnapshot::gather(&metrics, 3, 5, shards);
        assert_eq!(snap.pooled(), 5);
        assert_eq!(snap.restored, 2);
        let text = snap.render_prometheus();
        assert_eq!(metric_value(&text, "c2pi_served_total"), Some(2.0));
        assert_eq!(metric_value(&text, "c2pi_shed_total"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_pool_steals_total"), Some(5.0));
        assert_eq!(metric_value(&text, "c2pi_shard_pool_depth{shard=\"0\"}"), Some(4.0));
        assert_eq!(metric_value(&text, "c2pi_shard_pool_depth{shard=\"1\"}"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_shard_consumed_total{shard=\"1\"}"), Some(3.0));
        assert_eq!(metric_value(&text, "c2pi_shard_dealt_total{shard=\"0\"}"), Some(9.0));
        assert_eq!(metric_value(&text, "c2pi_shard_dealt_total{shard=\"1\"}"), Some(4.0));
        assert_eq!(metric_value(&text, "c2pi_shard_deal_seconds_total{shard=\"0\"}"), Some(0.125));
        assert_eq!(metric_value(&text, "c2pi_shard_deal_seconds_total{shard=\"1\"}"), Some(0.0));
        assert_eq!(metric_value(&text, "c2pi_workers"), Some(3.0));
        assert_eq!(metric_value(&text, "c2pi_draining"), Some(0.0));
        assert_eq!(metric_value(&text, "nonexistent_metric"), None);
    }

    /// The whole exposition, byte for byte, for a snapshot with every
    /// field set. The golden was rendered by the hand-spelled writer
    /// this file had before the shared histogram and the three family
    /// writers replaced it.
    #[test]
    fn exposition_text_is_pinned_byte_for_byte() {
        let shard = |depth, consumed, generated_offline, generation_seconds, restored| {
            ShardSnapshot { depth, consumed, generated_offline, generation_seconds, restored }
        };
        let snap = MetricsSnapshot {
            workers: 3,
            accepted: 1021,
            served: 977,
            shed: 31,
            errors: 4,
            hangups: 9,
            stats_served: 2,
            active: 17,
            draining: true,
            steals: 12,
            restored: 6,
            shards: vec![shard(4, 500, 510, 0.125, 6), shard(0, 477, 471, 12.5, 0)],
            latency: HistogramSnapshot {
                buckets: vec![0, 1, 0, 5, 40, 300, 500, 100, 20, 8, 2, 0, 0, 1],
                count: 977,
                sum_seconds: 83.123_456_789,
            },
            batches: 520,
            coalesced: 900,
            flushes: (400, 110, 10),
            batch_size: BatchSizeSnapshot {
                buckets: vec![70, 440, 6, 3, 0, 0, 1],
                count: 520,
                sum_members: 977,
            },
            batch_pending: 1,
            poll_backend: "epoll",
            poll_wakeups: 2048,
            poll_events: 3000,
        };
        let golden = include_str!("../../tests/golden/stats_exposition.txt");
        assert_eq!(snap.render_prometheus(), golden);
    }

    #[test]
    fn poll_metrics_reach_the_exposition() {
        let metrics = ReactorMetrics::default();
        let mut snap = MetricsSnapshot::gather(&metrics, 1, 0, vec![]);
        // The reactor overlays the poller's state after gather, exactly
        // like batch_pending; a poller-less snapshot stays "none".
        assert_eq!(snap.poll_backend, "none");
        snap.poll_backend = "epoll";
        snap.poll_wakeups = 12;
        snap.poll_events = 48;
        let text = snap.render_prometheus();
        assert_eq!(metric_value(&text, "c2pi_poll_backend{backend=\"epoll\"}"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_poll_backend{backend=\"peek\"}"), None);
        assert_eq!(metric_value(&text, "c2pi_poll_wakeups_total"), Some(12.0));
        assert_eq!(metric_value(&text, "c2pi_poll_events_total"), Some(48.0));
    }

    #[test]
    fn batch_metrics_reach_the_exposition() {
        use crate::reactor::batch::FlushReason;
        let metrics = ReactorMetrics::default();
        metrics.record_batch(1, FlushReason::Full); // singleton: not coalesced
        metrics.record_batch(3, FlushReason::Full);
        metrics.record_batch(5, FlushReason::Window);
        metrics.record_batch(2, FlushReason::Drain);
        let snap = MetricsSnapshot::gather(&metrics, 1, 0, vec![]);
        let text = snap.render_prometheus();
        assert_eq!(metric_value(&text, "c2pi_batches_total"), Some(4.0));
        // Only members of genuine fusions (size ≥ 2) count as coalesced.
        assert_eq!(metric_value(&text, "c2pi_coalesced_total"), Some(10.0));
        assert_eq!(metric_value(&text, "c2pi_batch_flush_total{reason=\"full\"}"), Some(2.0));
        assert_eq!(metric_value(&text, "c2pi_batch_flush_total{reason=\"window\"}"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_batch_flush_total{reason=\"drain\"}"), Some(1.0));
        // Cumulative histogram: sizes {1,2,3,5} land in le buckets 1,2,4,8.
        assert_eq!(metric_value(&text, "c2pi_batch_size_bucket{le=\"1\"}"), Some(1.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_bucket{le=\"2\"}"), Some(2.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_bucket{le=\"4\"}"), Some(3.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_bucket{le=\"8\"}"), Some(4.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_bucket{le=\"+Inf\"}"), Some(4.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_sum"), Some(11.0));
        assert_eq!(metric_value(&text, "c2pi_batch_size_count"), Some(4.0));
    }
}
