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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in milliseconds. Chosen to bracket
/// the measured online latencies (Delphi ~12 ms, Cheetah ~21 ms in
/// memory; 60–160 ms through the reactor; more under load or simulated
/// WAN).
pub const LATENCY_BUCKETS_MS: [u64; 13] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Fixed-bucket latency histogram (log-spaced bounds plus +Inf).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// One counter per bound in [`LATENCY_BUCKETS_MS`] plus a final
    /// +Inf bucket. Non-cumulative internally; the exposition
    /// accumulates.
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let ms = latency.as_millis() as u64;
        let at =
            LATENCY_BUCKETS_MS.iter().position(|&b| ms <= b).unwrap_or(LATENCY_BUCKETS_MS.len());
        self.buckets[at].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is +Inf.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub sum_seconds: f64,
}

/// Batch-size histogram bucket upper bounds (members per protocol
/// run). Powers of two up to the largest `max_batch` a deployment
/// plausibly configures; an uncoalesced server records only runs of 1.
pub const BATCH_SIZE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Fixed-bucket histogram of protocol-run sizes.
#[derive(Debug, Default)]
pub struct BatchSizeHistogram {
    buckets: [AtomicU64; BATCH_SIZE_BUCKETS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl BatchSizeHistogram {
    /// Records one run of `size` members.
    pub fn record(&self, size: usize) {
        let size = size as u64;
        let at =
            BATCH_SIZE_BUCKETS.iter().position(|&b| size <= b).unwrap_or(BATCH_SIZE_BUCKETS.len());
        self.buckets[at].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(size, Ordering::Relaxed);
    }

    fn snapshot(&self) -> BatchSizeSnapshot {
        BatchSizeSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_members: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`BatchSizeHistogram`].
#[derive(Debug, Clone, Default)]
pub struct BatchSizeSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is +Inf.
    pub buckets: Vec<u64>,
    /// Protocol runs executed.
    pub count: u64,
    /// Total members across all runs (`sum / count` is the mean
    /// batch size).
    pub sum_members: u64,
}

/// Shared serving counters, updated lock-free by the reactor and every
/// worker.
#[derive(Debug, Default)]
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
    /// Online latency of served inferences (take → share revealed).
    pub(crate) latency: LatencyHistogram,
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
    pub(crate) batch_size: BatchSizeHistogram,
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
        self.batch_size.record(size);
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
            latency: metrics.latency.snapshot(),
            batches: metrics.batches.load(Ordering::Relaxed),
            coalesced: metrics.coalesced.load(Ordering::Relaxed),
            flushes: (
                metrics.flush_full.load(Ordering::Relaxed),
                metrics.flush_window.load(Ordering::Relaxed),
                metrics.flush_drain.load(Ordering::Relaxed),
            ),
            batch_size: metrics.batch_size.snapshot(),
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
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("c2pi_accepted_total", "Connections accepted by the reactor.", self.accepted);
        counter("c2pi_served_total", "Online inferences served to completion.", self.served);
        counter("c2pi_shed_total", "Requests shed with typed backpressure frames.", self.shed);
        counter("c2pi_errors_total", "Connections that failed mid-protocol.", self.errors);
        counter("c2pi_hangups_total", "Peers gone before sending a request.", self.hangups);
        counter("c2pi_stats_requests_total", "STATS requests answered.", self.stats_served);
        counter("c2pi_pool_steals_total", "Cross-shard work-stealing takes.", self.steals);
        counter(
            "c2pi_pool_restored_total",
            "Material restored from store segments.",
            self.restored,
        );
        let _ = writeln!(
            out,
            "# HELP c2pi_active_connections Connections registered, queued or in service."
        );
        let _ = writeln!(out, "# TYPE c2pi_active_connections gauge");
        let _ = writeln!(out, "c2pi_active_connections {}", self.active);
        let _ =
            writeln!(out, "# HELP c2pi_draining Whether the server is draining (1) or live (0).");
        let _ = writeln!(out, "# TYPE c2pi_draining gauge");
        let _ = writeln!(out, "c2pi_draining {}", u64::from(self.draining));
        let _ = writeln!(out, "# HELP c2pi_workers Serving worker threads.");
        let _ = writeln!(out, "# TYPE c2pi_workers gauge");
        let _ = writeln!(out, "c2pi_workers {}", self.workers);
        let _ = writeln!(out, "# HELP c2pi_shard_pool_depth Ready material sets pooled per shard.");
        let _ = writeln!(out, "# TYPE c2pi_shard_pool_depth gauge");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "c2pi_shard_pool_depth{{shard=\"{i}\"}} {}", s.depth);
        }
        let _ = writeln!(out, "# HELP c2pi_shard_consumed_total Material consumed per shard.");
        let _ = writeln!(out, "# TYPE c2pi_shard_consumed_total counter");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "c2pi_shard_consumed_total{{shard=\"{i}\"}} {}", s.consumed);
        }
        let _ = writeln!(out, "# HELP c2pi_shard_dealt_total Sets dealt offline per shard.");
        let _ = writeln!(out, "# TYPE c2pi_shard_dealt_total counter");
        for (i, s) in self.shards.iter().enumerate() {
            let _ =
                writeln!(out, "c2pi_shard_dealt_total{{shard=\"{i}\"}} {}", s.generated_offline);
        }
        let _ = writeln!(
            out,
            "# HELP c2pi_shard_deal_seconds_total Seconds spent dealing sets per shard."
        );
        let _ = writeln!(out, "# TYPE c2pi_shard_deal_seconds_total counter");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "c2pi_shard_deal_seconds_total{{shard=\"{i}\"}} {}",
                s.generation_seconds
            );
        }
        let _ = writeln!(
            out,
            "# HELP c2pi_online_latency_seconds Online latency of served inferences."
        );
        let _ = writeln!(out, "# TYPE c2pi_online_latency_seconds histogram");
        let mut cumulative = 0u64;
        for (bound_ms, n) in LATENCY_BUCKETS_MS.iter().zip(&self.latency.buckets) {
            cumulative += n;
            let _ = writeln!(
                out,
                "c2pi_online_latency_seconds_bucket{{le=\"{}\"}} {cumulative}",
                *bound_ms as f64 / 1000.0
            );
        }
        let _ = writeln!(
            out,
            "c2pi_online_latency_seconds_bucket{{le=\"+Inf\"}} {}",
            self.latency.count
        );
        let _ = writeln!(out, "c2pi_online_latency_seconds_sum {:.6}", self.latency.sum_seconds);
        let _ = writeln!(out, "c2pi_online_latency_seconds_count {}", self.latency.count);
        let _ = writeln!(out, "# HELP c2pi_batches_total Protocol runs executed, of any size.");
        let _ = writeln!(out, "# TYPE c2pi_batches_total counter");
        let _ = writeln!(out, "c2pi_batches_total {}", self.batches);
        let _ = writeln!(
            out,
            "# HELP c2pi_coalesced_total Inferences served inside fused batches of two or more."
        );
        let _ = writeln!(out, "# TYPE c2pi_coalesced_total counter");
        let _ = writeln!(out, "c2pi_coalesced_total {}", self.coalesced);
        let _ = writeln!(
            out,
            "# HELP c2pi_batch_pending Requests waiting in the batch collector for their window."
        );
        let _ = writeln!(out, "# TYPE c2pi_batch_pending gauge");
        let _ = writeln!(out, "c2pi_batch_pending {}", self.batch_pending);
        let _ = writeln!(out, "# HELP c2pi_batch_flush_total Batch flushes by trigger.");
        let _ = writeln!(out, "# TYPE c2pi_batch_flush_total counter");
        let (full, window, drain) = self.flushes;
        let _ = writeln!(out, "c2pi_batch_flush_total{{reason=\"full\"}} {full}");
        let _ = writeln!(out, "c2pi_batch_flush_total{{reason=\"window\"}} {window}");
        let _ = writeln!(out, "c2pi_batch_flush_total{{reason=\"drain\"}} {drain}");
        let _ = writeln!(out, "# HELP c2pi_batch_size Members served per protocol run.");
        let _ = writeln!(out, "# TYPE c2pi_batch_size histogram");
        let mut cumulative = 0u64;
        for (bound, n) in BATCH_SIZE_BUCKETS.iter().zip(&self.batch_size.buckets) {
            cumulative += n;
            let _ = writeln!(out, "c2pi_batch_size_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "c2pi_batch_size_bucket{{le=\"+Inf\"}} {}", self.batch_size.count);
        let _ = writeln!(out, "c2pi_batch_size_sum {}", self.batch_size.sum_members);
        let _ = writeln!(out, "c2pi_batch_size_count {}", self.batch_size.count);
        let _ = writeln!(
            out,
            "# HELP c2pi_poll_backend Readiness-poller backend in use (1 on the active label)."
        );
        let _ = writeln!(out, "# TYPE c2pi_poll_backend gauge");
        let _ = writeln!(out, "c2pi_poll_backend{{backend=\"{}\"}} 1", self.poll_backend);
        let _ = writeln!(
            out,
            "# HELP c2pi_poll_wakeups_total Times the reactor's poller wait returned."
        );
        let _ = writeln!(out, "# TYPE c2pi_poll_wakeups_total counter");
        let _ = writeln!(out, "c2pi_poll_wakeups_total {}", self.poll_wakeups);
        let _ = writeln!(
            out,
            "# HELP c2pi_poll_events_total Readiness events reported across all poller waits."
        );
        let _ = writeln!(out, "# TYPE c2pi_poll_events_total counter");
        let _ = writeln!(out, "c2pi_poll_events_total {}", self.poll_events);
        out
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
        metrics.latency.record(Duration::from_millis(3)); // ≤5ms bucket
        metrics.latency.record(Duration::from_millis(30)); // ≤50ms bucket
        metrics.latency.record(Duration::from_secs(60)); // +Inf
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
