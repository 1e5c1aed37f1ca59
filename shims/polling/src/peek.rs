//! The portable peek-scan backend: readiness derived from
//! [`TcpStream::peek`] on nonblocking handles — the backend of every
//! non-Linux build, where the kernel multiplexer (`crate::sys`) does
//! not exist. A Linux build compiles this module only under
//! `cfg(test)`, for the conformance suite.
//!
//! `std` exposes no fd-multiplexing syscall, so this backend derives
//! readiness by scanning every registered source per tick: a peek that
//! returns `Ok(n)` means buffered bytes (readable), `Ok(0)` means EOF
//! (readable — the owner must observe the close), `WouldBlock` means
//! idle, and any other error is surfaced as readable so the owner reads
//! the failure instead of leaking the connection. O(sources) syscalls
//! per tick rather than O(ready) like epoll — same API shape, honest
//! semantics, no platform code.
//!
//! **Listener sources are assumed-ready.** A [`std::net::TcpListener`]
//! cannot be peeked, so this backend reports a registered listener as
//! readable on every wait that returns for any other reason (client
//! events or timeout expiry) — a conservative over-approximation the
//! level-triggered contract permits (DESIGN.md §11): the owner's
//! nonblocking `accept` confirms or refutes it for one extra syscall.
//! The consequence is that accept latency on this backend is bounded by
//! the caller's wait timeout, which is why the reactor keeps a short
//! safety tick when it detects this backend.

use crate::{Event, WaitResult};
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long one scan pass sleeps before re-peeking every source.
const TICK: Duration = Duration::from_millis(1);

/// One registered source: a peekable stream probe, or a listener slot
/// (readiness unobservable — assumed ready; see the module docs).
enum Source {
    Stream(TcpStream),
    Listener,
}

/// The peek-scan poller. One thread calls [`PeekPoller::wait`] in a
/// loop; any thread may add/delete sources or notify the waiter.
pub(crate) struct PeekPoller {
    sources: Mutex<BTreeMap<usize, Source>>,
    notified: AtomicBool,
}

impl PeekPoller {
    pub(crate) const NAME: &'static str = "peek";
    pub(crate) const EVENT_DRIVEN: bool = false;

    pub(crate) fn new() -> io::Result<PeekPoller> {
        Ok(PeekPoller { sources: Mutex::new(BTreeMap::new()), notified: AtomicBool::new(false) })
    }

    fn insert(&self, key: usize, source: Source) -> io::Result<()> {
        let mut sources = self.sources.lock().expect("poller mutex poisoned");
        if sources.contains_key(&key) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, format!("key {key}")));
        }
        sources.insert(key, source);
        Ok(())
    }

    pub(crate) fn add(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
        let probe = stream.try_clone()?;
        probe.set_nonblocking(true)?;
        self.insert(key, Source::Stream(probe))
    }

    pub(crate) fn add_listener(
        &self,
        listener: &std::net::TcpListener,
        key: usize,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.insert(key, Source::Listener)
    }

    pub(crate) fn delete(&self, key: usize) {
        self.sources.lock().expect("poller mutex poisoned").remove(&key);
    }

    pub(crate) fn len(&self) -> usize {
        self.sources.lock().expect("poller mutex poisoned").len()
    }

    pub(crate) fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<WaitResult> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = [0u8; 1];
        loop {
            if self.notified.swap(false, Ordering::SeqCst) {
                return Ok(WaitResult { added: 0, notified: true });
            }
            let before = events.len();
            let mut listeners: Vec<usize> = Vec::new();
            {
                let sources = self.sources.lock().expect("poller mutex poisoned");
                for (&key, source) in sources.iter() {
                    let probe = match source {
                        Source::Stream(probe) => probe,
                        Source::Listener => {
                            listeners.push(key);
                            continue;
                        }
                    };
                    let ready = match probe.peek(&mut buf) {
                        Ok(_) => true, // bytes buffered, or Ok(0) = EOF
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                        Err(_) => true, // surface the error to the owner
                    };
                    if ready {
                        events.push(Event::readable(key));
                    }
                }
            }
            let stream_events = events.len() - before;
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            if stream_events > 0 || expired {
                // Listener readiness is unobservable here: report the
                // listener whenever we return anyway, so accepts are
                // serviced both under load and on the timeout tick. An
                // expiry with no listener returns empty — a plain
                // timeout.
                events.extend(listeners.iter().map(|&k| Event::readable(k)));
                return Ok(WaitResult { added: events.len() - before, notified: false });
            }
            let nap = match deadline {
                Some(d) => TICK.min(d.saturating_duration_since(Instant::now())),
                None => TICK,
            };
            std::thread::sleep(nap);
        }
    }

    pub(crate) fn notify(&self) {
        self.notified.store(true, Ordering::SeqCst);
    }
}
