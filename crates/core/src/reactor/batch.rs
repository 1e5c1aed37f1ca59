//! The reactor's batch-coalescing stage: a window between "request
//! parsed" and "protocol started" in which concurrent `infer` requests
//! fuse into one protocol run.
//!
//! A [`BatchCollector`] sits between request parsing and protocol
//! dispatch, and every infer request passes through it. Workers
//! *deposit* admitted infer connections into it; a deposit either
//! queues (the window is still open and the batch not full) or
//! *flushes* — returns the whole pending batch for one
//! [`c2pi_pi::SessionCore::serve_prepared`] run. Three things flush a
//! batch, each tagged with its [`FlushReason`]:
//!
//! * **Full** — the deposit that makes the batch reach `max_batch`;
//! * **Window** — the reactor tick notices the *oldest* queued request
//!   has waited `window` (so the first member of a batch bounds every
//!   member's added latency);
//! * **Drain** — shutdown closes the collector and the remainder is
//!   served, not shed (a queued request was admitted and must not be
//!   abandoned).
//!
//! The collector is deliberately time-explicit: `deposit` and
//! [`BatchCollector::take_due`] receive `now` as a parameter, so the
//! property tests drive arbitrary arrival schedules through a virtual
//! clock and prove the exactly-once/ordering invariants below without
//! sleeping.
//!
//! **Invariants** (pinned by the proptest in this module): every
//! deposited item appears in exactly one flushed batch, batches
//! preserve deposit order (concatenating all flushes replays the
//! deposit sequence), no batch exceeds `max_batch`, and a disabled
//! collector (`max_batch ≤ 1` or a zero window) flushes every deposit
//! immediately as a singleton — so an uncoalesced server is the same
//! serving code running runs of one.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a batch left the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch` members.
    Full,
    /// The oldest member's coalescing window elapsed.
    Window,
    /// The collector closed (drain); the remainder is served, not shed.
    Drain,
}

/// Outcome of one [`BatchCollector::deposit`].
#[derive(Debug)]
pub enum Deposit<T> {
    /// The item joined the pending batch; the caller keeps no handle on
    /// it (a later flush delivers it).
    Queued,
    /// A batch (always containing the deposited item as its last
    /// member, unless the collector was closed) is ready to serve.
    Flush(Vec<T>, FlushReason),
}

/// Items waiting for their window, behind one mutex the workers and the
/// reactor tick share. Holding it never blocks on I/O.
#[derive(Debug)]
struct Pending<T> {
    items: Vec<T>,
    /// Arrival time of `items[0]` — the member whose wait bounds the
    /// whole batch's added latency.
    oldest: Option<Instant>,
    closed: bool,
}

/// The coalescing stage itself. Generic over the connection type so the
/// deterministic tests run it over plain integers.
#[derive(Debug)]
pub struct BatchCollector<T> {
    window: Duration,
    max_batch: usize,
    pending: Mutex<Pending<T>>,
}

impl<T> BatchCollector<T> {
    /// A collector fusing up to `max_batch` requests arriving within
    /// `window` of the batch's oldest member.
    pub fn new(window: Duration, max_batch: usize) -> Self {
        BatchCollector {
            window,
            max_batch,
            pending: Mutex::new(Pending { items: Vec::new(), oldest: None, closed: false }),
        }
    }

    /// Whether coalescing is on. Off (`max_batch ≤ 1` or a zero
    /// window), every deposit flushes immediately as a singleton.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1 && self.window > Duration::ZERO
    }

    /// Items currently waiting for their window.
    pub fn pending(&self) -> usize {
        self.pending.lock().expect("batch collector mutex poisoned").items.len()
    }

    /// Adds one admitted request at time `now`. Returns the batch to
    /// serve when this deposit fills it (or when the collector is
    /// disabled/closed — then a singleton, immediately).
    pub fn deposit(&self, item: T, now: Instant) -> Deposit<T> {
        let mut pending = self.pending.lock().expect("batch collector mutex poisoned");
        if !self.enabled() || pending.closed {
            let reason = if pending.closed { FlushReason::Drain } else { FlushReason::Full };
            return Deposit::Flush(vec![item], reason);
        }
        pending.items.push(item);
        if pending.oldest.is_none() {
            pending.oldest = Some(now);
        }
        if pending.items.len() >= self.max_batch {
            pending.oldest = None;
            Deposit::Flush(std::mem::take(&mut pending.items), FlushReason::Full)
        } else {
            Deposit::Queued
        }
    }

    /// When the pending batch becomes due: the instant the oldest
    /// member's window elapses, or `None` with nothing pending. The
    /// event-driven reactor arms its poller timeout with this, so a
    /// window flush fires when it is due instead of on the next tick of
    /// a fixed poll cadence.
    pub fn next_deadline(&self) -> Option<Instant> {
        let pending = self.pending.lock().expect("batch collector mutex poisoned");
        pending.oldest.map(|oldest| oldest + self.window)
    }

    /// Reactor-tick poll: takes the pending batch iff its oldest member
    /// has waited the full window by `now`. The flush carries
    /// [`FlushReason::Window`].
    pub fn take_due(&self, now: Instant) -> Option<Vec<T>> {
        let mut pending = self.pending.lock().expect("batch collector mutex poisoned");
        let oldest = pending.oldest?;
        if now.saturating_duration_since(oldest) < self.window {
            return None;
        }
        pending.oldest = None;
        Some(std::mem::take(&mut pending.items))
    }

    /// Drain: closes the collector (subsequent deposits flush
    /// immediately) and returns whatever was pending, to be *served* as
    /// the final partial batch.
    pub fn close(&self) -> Vec<T> {
        let mut pending = self.pending.lock().expect("batch collector mutex poisoned");
        pending.closed = true;
        pending.oldest = None;
        std::mem::take(&mut pending.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_batch_flushes_on_the_deposit_that_fills_it() {
        let c = BatchCollector::new(Duration::from_millis(10), 3);
        assert!(c.enabled());
        let t0 = Instant::now();
        assert!(matches!(c.deposit(1, t0), Deposit::Queued));
        assert!(matches!(c.deposit(2, t0), Deposit::Queued));
        assert_eq!(c.pending(), 2);
        match c.deposit(3, t0) {
            Deposit::Flush(items, FlushReason::Full) => assert_eq!(items, vec![1, 2, 3]),
            other => panic!("expected a full flush, got {other:?}"),
        }
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn window_flush_is_due_exactly_when_the_oldest_member_expires() {
        let c = BatchCollector::new(Duration::from_millis(10), 8);
        let t0 = Instant::now();
        assert!(c.take_due(t0).is_none(), "nothing pending, nothing due");
        assert!(matches!(c.deposit(7, t0), Deposit::Queued));
        // A second member arriving later does not extend the window.
        assert!(matches!(c.deposit(8, t0 + Duration::from_millis(9)), Deposit::Queued));
        assert!(c.take_due(t0 + Duration::from_millis(9)).is_none());
        assert_eq!(c.take_due(t0 + Duration::from_millis(10)), Some(vec![7, 8]));
        assert!(c.take_due(t0 + Duration::from_millis(20)).is_none(), "flushed batches stay gone");
    }

    #[test]
    fn next_deadline_tracks_the_oldest_member_and_clears_on_flush() {
        let window = Duration::from_millis(10);
        let c = BatchCollector::new(window, 8);
        let t0 = Instant::now();
        assert_eq!(c.next_deadline(), None, "nothing pending, nothing armed");
        assert!(matches!(c.deposit(1, t0), Deposit::Queued));
        assert_eq!(c.next_deadline(), Some(t0 + window));
        // Later members never extend the armed deadline.
        assert!(matches!(c.deposit(2, t0 + Duration::from_millis(7)), Deposit::Queued));
        assert_eq!(c.next_deadline(), Some(t0 + window));
        assert_eq!(c.take_due(t0 + window), Some(vec![1, 2]));
        assert_eq!(c.next_deadline(), None, "flush disarms the deadline");
    }

    #[test]
    fn disabled_collector_flushes_every_deposit_as_a_singleton() {
        for c in [
            BatchCollector::new(Duration::ZERO, 8),
            BatchCollector::new(Duration::from_millis(10), 1),
            BatchCollector::new(Duration::ZERO, 0),
        ] {
            assert!(!c.enabled());
            match c.deposit(42, Instant::now()) {
                Deposit::Flush(items, FlushReason::Full) => assert_eq!(items, vec![42]),
                other => panic!("expected an immediate singleton flush, got {other:?}"),
            }
            assert_eq!(c.pending(), 0);
        }
    }

    #[test]
    fn close_returns_the_partial_batch_and_later_deposits_flush_as_drain() {
        let c = BatchCollector::new(Duration::from_millis(10), 8);
        let t0 = Instant::now();
        assert!(matches!(c.deposit(1, t0), Deposit::Queued));
        assert!(matches!(c.deposit(2, t0), Deposit::Queued));
        assert_eq!(c.close(), vec![1, 2]);
        // A deposit racing the drain still gets served (not lost).
        match c.deposit(3, t0) {
            Deposit::Flush(items, FlushReason::Drain) => assert_eq!(items, vec![3]),
            other => panic!("expected a drain flush, got {other:?}"),
        }
        assert!(c.close().is_empty(), "close is idempotent");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The coalescing-window law, over arbitrary arrival schedules
        /// and the `max_batch` values the issue names: no request is
        /// ever lost, duplicated, or reordered — concatenating every
        /// flushed batch (including the drain remainder) replays the
        /// deposit sequence exactly — no batch exceeds `max_batch`, and
        /// `max_batch = 1` flushes every deposit immediately.
        #[test]
        fn arbitrary_schedules_never_lose_duplicate_or_reorder(
            gaps_ms in proptest::collection::vec(0u64..30, 1..40),
            ticks in proptest::collection::vec(0u64..8, 1..40),
        ) {
            for max_batch in [1usize, 2, 7, 32] {
                let window = Duration::from_millis(10);
                let c = BatchCollector::new(window, max_batch);
                let t0 = Instant::now();
                let mut now = t0;
                let mut flushed: Vec<Vec<usize>> = Vec::new();
                let mut tick_at = 0usize;
                for (i, &gap) in gaps_ms.iter().enumerate() {
                    now += Duration::from_millis(gap);
                    // A few reactor ticks may fire between arrivals.
                    for _ in 0..ticks[i % ticks.len()] {
                        if let Some(batch) = c.take_due(now) {
                            prop_assert!(!batch.is_empty());
                            flushed.push(batch);
                        }
                        tick_at += 1;
                    }
                    match c.deposit(i, now) {
                        Deposit::Queued => {
                            prop_assert!(max_batch > 1, "max_batch=1 must never queue");
                        }
                        Deposit::Flush(batch, reason) => {
                            if max_batch == 1 {
                                prop_assert_eq!(batch.len(), 1);
                                prop_assert_eq!(reason, FlushReason::Full);
                            }
                            flushed.push(batch);
                        }
                    }
                }
                let rest = c.close();
                if !rest.is_empty() {
                    flushed.push(rest);
                }
                // Exactly-once, in order, bounded.
                let replay: Vec<usize> = flushed.iter().flatten().copied().collect();
                let want: Vec<usize> = (0..gaps_ms.len()).collect();
                prop_assert_eq!(replay, want);
                for batch in &flushed {
                    prop_assert!(batch.len() <= max_batch.max(1));
                }
                let _ = tick_at;
            }
        }
    }
}
