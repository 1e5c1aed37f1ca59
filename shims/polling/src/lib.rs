//! Minimal `polling`-compatible readiness poller. The build compiles
//! exactly one backend into [`Poller`], chosen by the target and by
//! nothing else:
//!
//! * **epoll** (Linux) — a real kernel multiplexer in `sys`: every
//!   socket, the listener, and an `eventfd` notify share one
//!   `epoll_wait`, so a wakeup costs O(ready) regardless of how many
//!   thousands of sources are parked;
//! * **peek** (every other target) — the portable stand-in: readiness
//!   derived from [`TcpStream::peek`] scans on a 1 ms tick, O(sources)
//!   per tick. A Linux build contains it only under `cfg(test)`, where
//!   the in-crate conformance suite drives it beside epoll.
//!
//! Both backends satisfy the same **level-triggered contract**
//! (DESIGN.md §11): a source that stays readable is reported on every
//! wait until the owner deletes it; [`Poller::notify`] is sticky (a
//! notify with no waiter makes the next wait return immediately) and is
//! distinguishable from a timeout via [`WaitResult::notified`]; the
//! peek backend may additionally report a registered *listener* as
//! readable when it is not (readiness of a listener cannot be peeked —
//! the owner's nonblocking `accept` resolves it), which level-triggered
//! semantics permit.
//!
//! Registration puts the socket into nonblocking mode (the flag lives
//! on the shared file description, so the caller's handle is affected
//! too); a worker that takes the connection over for blocking protocol
//! I/O must switch it back with `set_nonblocking(false)`.

#![deny(unsafe_code)] // relaxed from forbid: sys/ holds the scoped allow
#![warn(missing_docs)]

mod conformance;
#[cfg(any(not(target_os = "linux"), test))]
mod peek;
#[cfg(target_os = "linux")]
mod sys;

// The backend this target gets: the crate's one selection point.
#[cfg(not(target_os = "linux"))]
use peek::PeekPoller as Imp;
#[cfg(target_os = "linux")]
use sys::epoll::EpollPoller as Imp;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The key value reserved by the poller itself (the epoll backend's
/// notify word). [`Poller::add`] rejects it.
pub const RESERVED_KEY: usize = usize::MAX;

/// A readiness event for one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
    /// Readable: buffered bytes, EOF, a socket error to collect, or —
    /// for a listener — a pending (possibly already-gone) connection.
    pub readable: bool,
    /// Writability is not modeled; always `false`.
    pub writable: bool,
}

impl Event {
    /// A readable-interest event (parity with the real crate's API).
    pub fn readable(key: usize) -> Event {
        Event { key, readable: true, writable: false }
    }
}

/// What one [`Poller::wait`] returned, making "woke with events",
/// "woke because of [`Poller::notify`]" and "timed out" distinguishable
/// — the reactor skips accept and due-batch work on pure notifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitResult {
    /// Readiness events appended to the caller's buffer by this wait.
    pub added: usize,
    /// Whether a notify was drained during this wait. May be true
    /// alongside `added > 0` on the epoll backend (one `epoll_wait`
    /// batch can carry both).
    pub notified: bool,
}

impl WaitResult {
    /// Whether the wait returned only because its timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.added == 0 && !self.notified
    }
}

/// What a consumer may ask about the backend this build compiled into
/// [`Poller`]. Constants, not a choice: the target picked it.
pub struct Backend;

impl Backend {
    /// Stable lowercase name (`"epoll"` or `"peek"`), used in metrics
    /// labels and logs.
    pub const NAME: &'static str = Imp::NAME;

    /// Whether listener readiness reported by the backend is real
    /// kernel state rather than a conservative assumption. An
    /// event-driven owner may sleep long between wakeups; a scanning
    /// backend's owner must keep its wait timeouts at the accept
    /// latency it wants.
    pub const EVENT_DRIVEN: bool = Imp::EVENT_DRIVEN;
}

/// Readiness poller over registered [`TcpStream`]s (and at most a
/// handful of [`TcpListener`]s).
///
/// One thread calls [`Poller::wait`] in a loop; any thread may
/// [`Poller::add`]/[`Poller::delete`] sources or [`Poller::notify`] the
/// waiter out of its sleep. Level-triggered: a source that stays
/// readable is reported again on the next call, so the owner should
/// delete it before handing the connection off.
pub struct Poller {
    imp: Imp,
    wakeups: AtomicU64,
    events: AtomicU64,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &Backend::NAME)
            .field("sources", &self.len())
            .finish()
    }
}

impl Poller {
    /// Creates a poller on the build's backend: epoll on Linux, peek
    /// elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures (epoll/eventfd fd
    /// allocation; the peek backend is infallible).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { imp: Imp::new()?, wakeups: AtomicU64::new(0), events: AtomicU64::new(0) })
    }

    /// Registers `stream` for readable interest under `key`, switching
    /// the underlying socket to nonblocking mode. The poller keeps its
    /// own cloned handle; the caller keeps ownership of `stream`.
    ///
    /// # Errors
    ///
    /// Propagates `try_clone`/`set_nonblocking`/registration failures;
    /// rejects a key that is already registered or [`RESERVED_KEY`].
    pub fn add(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
        self.check_key(key)?;
        self.imp.add(stream, key)
    }

    /// Registers `listener` for accept-readiness under `key`, switching
    /// it to nonblocking mode. On the epoll backend the event is real
    /// kernel state; on the peek backend the listener is reported
    /// *conservatively* — alongside any stream events and on every
    /// timeout expiry — because listener readiness cannot be peeked
    /// (see the [crate docs](self)).
    ///
    /// # Errors
    ///
    /// As [`Poller::add`].
    pub fn add_listener(&self, listener: &TcpListener, key: usize) -> io::Result<()> {
        self.check_key(key)?;
        self.imp.add_listener(listener, key)
    }

    fn check_key(&self, key: usize) -> io::Result<()> {
        if key == RESERVED_KEY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("key {key} is reserved by the poller"),
            ));
        }
        Ok(())
    }

    /// Deregisters `key`. Unknown keys are a no-op (the source may have
    /// been dispatched concurrently).
    pub fn delete(&self, key: usize) {
        self.imp.delete(key)
    }

    /// Number of registered sources (listeners included).
    pub fn len(&self) -> usize {
        self.imp.len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until at least one source is readable, `timeout` elapses
    /// (`None` waits forever), or [`Poller::notify`] is called; appends
    /// the ready events to `events` and reports what happened in the
    /// returned [`WaitResult`].
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures; the peek backend is
    /// infallible. `EINTR` is retried internally, never surfaced.
    pub fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<WaitResult> {
        let result = self.imp.wait(events, timeout)?;
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(result.added as u64, Ordering::Relaxed);
        Ok(result)
    }

    /// Wakes a concurrent [`Poller::wait`] out of its sleep. Sticky: a
    /// notify with no waiter makes the next wait return immediately,
    /// with [`WaitResult::notified`] set.
    pub fn notify(&self) {
        self.imp.notify()
    }

    /// How many times [`Poller::wait`] has returned — the denominator
    /// of the wakeup-to-event ratio the metrics exposition reports.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Total readiness events reported across all waits (notify
    /// drains excluded).
    pub fn events_reported(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The behavioural suite is `conformance`, instantiated per backend;
    // these tests cover what `Poller` itself adds around the backend.

    #[test]
    fn backend_constants_describe_the_compiled_in_backend() {
        #[cfg(target_os = "linux")]
        {
            assert_eq!(Backend::NAME, "epoll");
            const { assert!(Backend::EVENT_DRIVEN && sys::epoll::EpollPoller::EVENT_DRIVEN) };
        }
        #[cfg(not(target_os = "linux"))]
        assert_eq!(Backend::NAME, "peek");
        assert_eq!(peek::PeekPoller::NAME, "peek");
        const { assert!(!peek::PeekPoller::EVENT_DRIVEN) };
        assert!(format!("{:?}", Poller::new().unwrap()).contains(Backend::NAME));
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(
            poller.add(&stream, RESERVED_KEY).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            poller.add_listener(&listener, RESERVED_KEY).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(poller.is_empty());
    }

    #[test]
    fn wakeup_and_event_counters_accumulate() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let r = poller.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(r.timed_out());
        assert_eq!(poller.wakeups(), 1);
        assert_eq!(poller.events_reported(), 0);
        poller.notify();
        let r = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(r.notified);
        assert!(!r.timed_out());
        assert_eq!(poller.wakeups(), 2);
    }
}
