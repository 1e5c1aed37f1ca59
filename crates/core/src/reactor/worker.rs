//! The worker threads: pull a job off the dispatch queue and run it to
//! completion — read the request, answer STATS, or carry an inference
//! through the collector into one protocol run.

use super::batch::{Deposit, FlushReason};
use super::envelope::{Reply, Request};
use super::{pi_err, Job, Shared};
use crate::C2piError;
use c2pi_transport::{Channel, Side, TcpChannel, TransportError};
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One worker thread: pull a job, run it to completion. All
/// active-gauge accounting happens inside the handlers — a connection
/// that joins a forming batch stays active until its batch is served.
pub(super) fn worker_loop(worker: usize, rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let job = { rx.lock().unwrap_or_else(PoisonError::into_inner).recv() };
        match job {
            Ok(Job::Conn(stream)) => serve_connection(worker, stream, shared),
            Ok(Job::Batch(chs, reason)) => serve_run(worker, chs, reason, shared),
            Ok(Job::Shutdown) | Err(_) => break,
        }
    }
}

/// The whole life of one admitted connection: parse REQ, then serve an
/// inference (dealt contract + revealed share), answer STATS, deposit
/// into the batch collector, or shed. Every terminal path retires the
/// connection from the active gauge; the one non-terminal outcome — the
/// request queued in the collector — leaves it active for the flush.
fn serve_connection(worker: usize, stream: TcpStream, shared: &Shared) {
    // Poller registration switched the shared file description to
    // nonblocking; protocol I/O is blocking with timeouts.
    let timeout = Some(shared.client_timeout);
    let opened = stream
        .set_nonblocking(false)
        .ok()
        .and_then(|()| TcpChannel::from_stream(stream, Side::Server).ok())
        .filter(|ch| ch.set_read_timeout(timeout).is_ok() && ch.set_write_timeout(timeout).is_ok());
    let Some(ch) = opened else {
        shared.metrics.add(&shared.metrics.errors);
        shared.metrics.connection_done();
        return;
    };
    // The readiness event may have been an EOF: the peer connected and
    // left. That is a hangup, not a protocol error — unlike a length
    // prefix no REQ has, refused before it sizes an allocation.
    let req = match ch.recv_bytes_capped(Request::ENCODED_LEN) {
        Ok(frame) => frame,
        Err(e) => {
            shared.metrics.add(match e {
                TransportError::Decode(_) => &shared.metrics.errors,
                _ => &shared.metrics.hangups,
            });
            shared.metrics.connection_done();
            return;
        }
    };
    match Request::decode(&req) {
        Err(_) => {
            shared.metrics.add(&shared.metrics.errors);
            shared.metrics.connection_done();
        }
        Ok(Request::Stats) => {
            let frame = Reply::Stats(shared.snapshot().render_prometheus()).encode();
            match ch.send_bytes(&frame) {
                Ok(()) => shared.metrics.add(&shared.metrics.stats_served),
                Err(_) => shared.metrics.add(&shared.metrics.errors),
            }
            shared.metrics.connection_done();
        }
        // Every infer request goes through the collector; with
        // coalescing off it hands the request straight back as a run
        // of one.
        Ok(Request::Infer) => match shared.collector.deposit(ch, Instant::now()) {
            // Waiting for company; the armed window deadline or a
            // filling deposit will flush it. Still active, by design.
            // The reactor may be asleep with no deadline armed (this
            // deposit could have opened the window), so wake it to
            // re-arm its wait timeout.
            Deposit::Queued => shared.poller.notify(),
            // This deposit completed a run (or raced the drain close):
            // serve it right here, on this worker.
            Deposit::Flush(chs, reason) => serve_run(worker, chs, reason, shared),
        },
    }
}

/// Serves one flushed run of `k ≥ 1` admitted requests: takes one
/// material set per member (partial stock sheds the uncovered tail with
/// typed backpressure, never silently), announces the run to the `m`
/// covered members with the `OK` frame, runs
/// [`c2pi_pi::SessionCore::serve_prepared`] over all of them at once,
/// reveals each member's server share and accounts the run under its
/// *served* size `m`.
///
/// Failure granularity is the run: if any member errors mid-protocol,
/// the whole run fails and every member's material is lost (counted per
/// member in `errors`). That is the documented price of fusing rounds;
/// see DESIGN.md §10.
fn serve_run(worker: usize, chs: Vec<TcpChannel>, reason: FlushReason, shared: &Shared) {
    let k = chs.len();
    let (materials, shut) = match shared.pool.try_take_n(worker, k) {
        Ok(took) => took,
        Err(_) => {
            for _ in 0..k {
                shared.metrics.add(&shared.metrics.errors);
                shared.metrics.connection_done();
            }
            return;
        }
    };
    // Members the stock does not cover are shed, in arrival order from
    // the back — the earliest arrivals (who waited longest) get served.
    // Starved or shutting down: typed backpressure, no block, no
    // inline dealing.
    let m = materials.len();
    for ch in &chs[m..] {
        shared.shed_channel(ch, shut || shared.draining());
    }
    if m == 0 {
        return;
    }
    shared.metrics.record_batch(m, reason);
    let members = &chs[..m];
    let ok = Reply::Ok { batch: u16::try_from(m).unwrap_or(u16::MAX) }.encode();
    let start = Instant::now();
    let result = members
        .iter()
        .try_for_each(|ch| ch.send_bytes(&ok).map_err(pi_err))
        .and_then(|()| {
            let eps: Vec<&dyn Channel> = members.iter().map(|ch| ch as &dyn Channel).collect();
            shared.core.serve_prepared(&eps, materials).map_err(C2piError::Pi)
        })
        .and_then(|shares| {
            members
                .iter()
                .zip(&shares)
                .try_for_each(|(ch, share)| ch.send_u64s(share.as_raw()).map_err(pi_err))
        });
    match result {
        Ok(()) => {
            // Every member waited for the whole run; each records its
            // wall-clock latency.
            let micros = start.elapsed().as_micros() as u64;
            for _ in 0..m {
                shared.metrics.latency.record(micros);
                shared.metrics.add(&shared.metrics.served);
            }
        }
        // The material is consumed (ledger-exact) but the run is lost
        // to this error.
        Err(_) => {
            for _ in 0..m {
                shared.metrics.add(&shared.metrics.errors);
            }
        }
    }
    for _ in 0..m {
        shared.metrics.connection_done();
    }
}
