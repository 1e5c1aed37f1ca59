//! The reactor thread: one poller wait multiplexing accepts, parked
//! client readiness, batch-window deadlines and notifies. It admits,
//! parks, dispatches and sheds; it never runs cryptography.

use super::batch::FlushReason;
use super::{Job, Shared};
use c2pi_transport::TcpListenerTransport;
use polling::{Backend, Poller};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// How many pending accepts the reactor admits per wakeup. The bound is
/// a fairness device: a connect storm cannot monopolize the loop,
/// because parked clients' events are dispatched before each accept
/// batch and the level-triggered listener registration re-surfaces the
/// rest of the backlog on the next wakeup.
const ACCEPT_BATCH: usize = 64;
/// Poller key the listener is registered under: one below the poller's
/// own reserved key ([`polling::RESERVED_KEY`]); client-key allocation
/// wraps before reaching either.
pub(super) const LISTENER_KEY: usize = usize::MAX - 1;
/// Wait-timeout ceiling, fixed by the backend the build compiled in. On
/// an event-driven backend (epoll) accepts, client readiness and
/// notifies all arrive as events, so 50 ms is a pure safety net, not a
/// duty cycle. A scanning backend (peek) cannot observe listener
/// readiness — it reports the listener "assumed-ready" only when a wait
/// returns — so there 5 ms is the accept-latency bound.
const SAFETY_TICK: Duration = Duration::from_millis(if Backend::EVENT_DRIVEN { 50 } else { 5 });

/// The reactor thread: one poller wait multiplexing accepts, parked
/// client readiness, and notifies — accept, park, dispatch, shed; no
/// cryptography, no periodic polling.
pub(super) fn reactor_loop(
    listener: &TcpListenerTransport,
    poller: &Poller,
    tx: &SyncSender<Job>,
    shared: &Shared,
) {
    let mut parked: HashMap<usize, TcpStream> = HashMap::new();
    let mut next_key = 0usize;
    let mut events = Vec::new();
    while !shared.draining() {
        // Sleep until something actually happens: a parked client's
        // request frame, a pending accept, or a notify (a worker opened
        // a batch window, or drain wants the flag observed). The
        // timeout covers the armed batch deadline, capped by the
        // backend's safety tick.
        let timeout = match shared.collector.next_deadline() {
            Some(deadline) => deadline.saturating_duration_since(Instant::now()).min(SAFETY_TICK),
            None => SAFETY_TICK,
        };
        events.clear();
        let result = match poller.wait(&mut events, Some(timeout)) {
            Ok(result) => result,
            Err(_) => {
                // A failing wait (epoll state corruption) would spin
                // this loop hot; count it and back off instead.
                shared.metrics.add(&shared.metrics.errors);
                std::thread::sleep(SAFETY_TICK);
                continue;
            }
        };
        if shared.draining() {
            break;
        }
        // A pure notify only re-arms the wait timeout (the deposit that
        // sent it updated the collector's deadline): nothing is
        // readable, so skip the dispatch/accept/flush work entirely.
        if result.notified && result.added == 0 {
            continue;
        }
        // Dispatch parked clients BEFORE accepting: a connect storm
        // must not starve a client whose request is already waiting.
        let mut accept_ready = false;
        for event in &events {
            if event.key == LISTENER_KEY {
                accept_ready = true;
                continue;
            }
            let Some(stream) = parked.remove(&event.key) else { continue };
            poller.delete(event.key);
            match tx.try_send(Job::Conn(stream)) {
                Ok(()) => {}
                Err(TrySendError::Full(Job::Conn(stream))) => shared.shed(stream, true),
                Err(_) => return, // workers gone; nothing left to serve
            }
        }
        // Admit new connections, bounded per wakeup and by the client
        // cap. A backlog deeper than the batch is not lost: the
        // level-triggered listener registration reports it again on the
        // next wait, after parked clients have had their turn.
        if accept_ready {
            for _ in 0..ACCEPT_BATCH {
                match listener.try_accept() {
                    Ok(Some(stream)) => {
                        shared.metrics.add(&shared.metrics.accepted);
                        let active = shared.metrics.active.load(Ordering::Relaxed);
                        if active >= shared.max_clients as u64 {
                            shared.shed(stream, false);
                            continue;
                        }
                        let key = next_key;
                        next_key = next_key.wrapping_add(1);
                        if next_key >= LISTENER_KEY {
                            next_key = 0; // skip the reserved keys
                        }
                        shared.metrics.active.fetch_add(1, Ordering::Relaxed);
                        if poller.add(&stream, key).is_err() {
                            shared.metrics.add(&shared.metrics.errors);
                            shared.metrics.connection_done();
                            continue;
                        }
                        parked.insert(key, stream);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        shared.metrics.add(&shared.metrics.errors);
                        break;
                    }
                }
            }
        }
        // Batch deadline: a forming batch whose oldest member has
        // waited the full window stops waiting for company.
        if let Some(batch) = shared.collector.take_due(Instant::now()) {
            match tx.try_send(Job::Batch(batch, FlushReason::Window)) {
                Ok(()) => {}
                Err(TrySendError::Full(Job::Batch(batch, _))) => {
                    // Queue full is overload: report it, don't hide it.
                    for ch in &batch {
                        shared.shed_channel(ch, shared.draining());
                    }
                }
                Err(_) => return,
            }
        }
    }
    // Drain: parked connections have not cost material yet — answer
    // them honestly and close.
    poller.delete(LISTENER_KEY);
    for (key, stream) in parked.drain() {
        poller.delete(key);
        shared.shed(stream, true);
    }
    // A partially-formed batch was *admitted* — close the collector and
    // serve the remainder ahead of the shutdown markers (FIFO), so
    // drain never abandons a queued request.
    let rest = shared.collector.close();
    if !rest.is_empty() {
        // Blocking send: drain must deliver this batch even if the
        // queue is momentarily full of in-flight work.
        if let Err(mpsc::SendError(Job::Batch(batch, _))) =
            tx.send(Job::Batch(rest, FlushReason::Drain))
        {
            for ch in &batch {
                shared.shed_channel(ch, true);
            }
        }
    }
    // FIFO behind every dispatched job: workers finish real work first.
    for _ in 0..shared.workers {
        if tx.send(Job::Shutdown).is_err() {
            break;
        }
    }
}
