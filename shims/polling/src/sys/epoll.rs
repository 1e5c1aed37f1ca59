//! The Linux epoll backend: one `epoll_wait` multiplexes every
//! registered socket, the listener, and an `eventfd`-based notify —
//! O(ready) wakeups instead of the peek backend's O(sources) scan.
//!
//! Bindings are direct `extern "C"` declarations against the libc
//! symbols `std` already links (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `read`, `write`, `close`) — no new crate
//! dependency. All registrations are **level-triggered** (`EPOLLIN |
//! EPOLLRDHUP`, no `EPOLLET`), matching the peek backend's contract: a
//! source that stays readable is reported again on every wait.
//!
//! **Notify** is an [`eventfd`] registered in the same epoll set under
//! a reserved data word: [`Poller::notify`](crate::Poller::notify)
//! writes one counter increment (O(1), signal-safe, no tick latency)
//! and the waiter drains it when the event surfaces. The eventfd
//! counter persists until read, which gives the exact "sticky notify"
//! semantics the peek backend models with an `AtomicBool`: a notify
//! with no waiter makes the next wait return immediately.
//!
//! **Why registering a cloned handle is sound.** [`TcpStream::try_clone`]
//! is `dup(2)`: the clone shares the original's *file description*, and
//! epoll readiness is a property of the description, not the
//! descriptor — events fire no matter which fd the owner reads from.
//! The clone also keeps the description (and our registration) alive
//! independent of the caller's handle, and gives `delete` a stable fd
//! for `EPOLL_CTL_DEL`.

use crate::{Event, WaitResult};
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Mutex;
use std::time::{Duration, Instant};

mod ffi {
    use std::os::raw::{c_int, c_void};

    /// Mirror of libc's `struct epoll_event`. On x86/x86_64 the kernel
    /// ABI packs it to 12 bytes; other architectures use natural
    /// alignment.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    /// `O_CLOEXEC`, shared by `EPOLL_CLOEXEC` and `EFD_CLOEXEC`.
    pub const CLOEXEC: c_int = 0o2000000;
    /// `EFD_NONBLOCK` (`O_NONBLOCK`): a notify-storm drain never blocks.
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// The epoll data word reserved for the notify eventfd. Collides with
/// key `usize::MAX`, which [`crate::Poller`] rejects at registration.
const NOTIFY_DATA: u64 = u64::MAX;

/// Events drained per `epoll_wait` call. Ready sources beyond the batch
/// are not lost — level-triggered registrations resurface them on the
/// next wait.
const WAIT_BATCH: usize = 256;

/// The handle a registration keeps alive for the lifetime of its epoll
/// entry (dropping it closes the dup'd fd *after* `EPOLL_CTL_DEL`).
enum Keepalive {
    Stream(TcpStream),
    Listener(TcpListener),
}

impl Keepalive {
    fn fd(&self) -> RawFd {
        match self {
            Keepalive::Stream(s) => s.as_raw_fd(),
            Keepalive::Listener(l) => l.as_raw_fd(),
        }
    }
}

/// The epoll-backed poller.
pub(crate) struct EpollPoller {
    epfd: RawFd,
    notify_fd: RawFd,
    sources: Mutex<BTreeMap<usize, Keepalive>>,
}

// SAFETY-ADJACENT (no unsafe involved): raw fds are plain integers;
// all mutation of the key map is behind the Mutex, and the kernel
// serializes epoll_ctl/epoll_wait internally.
//
// (Send + Sync are auto-derived: RawFd is i32.)

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl EpollPoller {
    pub(crate) const NAME: &'static str = "epoll";
    pub(crate) const EVENT_DRIVEN: bool = true;

    pub(crate) fn new() -> io::Result<EpollPoller> {
        // SAFETY: epoll_create1 takes no pointers; any flag value is a
        // defined call (invalid ones return EINVAL, surfaced as Err).
        let epfd = cvt(unsafe { ffi::epoll_create1(ffi::CLOEXEC) })?;
        // SAFETY: as above — eventfd takes an initial counter and flags.
        let notify_fd = match cvt(unsafe { ffi::eventfd(0, ffi::CLOEXEC | ffi::EFD_NONBLOCK) }) {
            Ok(fd) => fd,
            Err(e) => {
                // SAFETY: epfd was returned by epoll_create1 above and
                // has not been closed; close consumes it exactly once.
                let _ = unsafe { ffi::close(epfd) };
                return Err(e);
            }
        };
        let poller = EpollPoller { epfd, notify_fd, sources: Mutex::new(BTreeMap::new()) };
        poller.ctl_add(notify_fd, NOTIFY_DATA)?;
        Ok(poller)
    }

    fn ctl_add(&self, fd: RawFd, data: u64) -> io::Result<()> {
        let mut ev = ffi::EpollEvent { events: ffi::EPOLLIN | ffi::EPOLLRDHUP, data };
        // SAFETY: `ev` is a live, writable epoll_event for the duration
        // of the call; epfd and fd are open descriptors we own.
        cvt(unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    fn insert(&self, key: usize, keepalive: Keepalive) -> io::Result<()> {
        let mut sources = self.sources.lock().expect("poller mutex poisoned");
        if sources.contains_key(&key) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, format!("key {key}")));
        }
        self.ctl_add(keepalive.fd(), key as u64)?;
        sources.insert(key, keepalive);
        Ok(())
    }

    pub(crate) fn add(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
        let clone = stream.try_clone()?;
        // Same contract as the peek backend: registration flips the
        // shared file description to nonblocking.
        clone.set_nonblocking(true)?;
        self.insert(key, Keepalive::Stream(clone))
    }

    pub(crate) fn add_listener(&self, listener: &TcpListener, key: usize) -> io::Result<()> {
        let clone = listener.try_clone()?;
        clone.set_nonblocking(true)?;
        self.insert(key, Keepalive::Listener(clone))
    }

    pub(crate) fn delete(&self, key: usize) {
        let Some(keepalive) = self.sources.lock().expect("poller mutex poisoned").remove(&key)
        else {
            return;
        };
        let mut ev = ffi::EpollEvent { events: 0, data: 0 };
        // SAFETY: our dup'd fd is still open (the keepalive is dropped
        // below); pre-2.6.9 kernels demand a non-null event pointer for
        // DEL, which `ev` provides. Failure is unreachable for a live
        // registration and harmless otherwise — the fd close below
        // drops the registration anyway.
        let _ = unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_DEL, keepalive.fd(), &mut ev) };
        drop(keepalive);
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
        let mut buf = [ffi::EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        loop {
            // Round sub-millisecond remainders *up*: truncation would
            // turn a 100 µs batch-window deadline into a zero-timeout
            // spin loop.
            let timeout_ms: i32 = match deadline {
                None => -1,
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .as_micros()
                    .div_ceil(1000)
                    .min(i32::MAX as u128) as i32,
            };
            // SAFETY: `buf` is a live array of WAIT_BATCH epoll_events
            // and maxevents matches its length; epfd is our open epoll
            // instance. The kernel writes at most `n` entries.
            let n = unsafe {
                ffi::epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue; // EINTR: recompute the timeout and retry
                }
                return Err(err);
            }
            let mut added = 0usize;
            let mut notified = false;
            for ev in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct by value.
                let data = { ev.data };
                if data == NOTIFY_DATA {
                    self.drain_notify();
                    notified = true;
                } else {
                    events.push(Event::readable(data as usize));
                    added += 1;
                }
            }
            if added > 0 || notified || n == 0 {
                return Ok(WaitResult { added, notified });
            }
            // n > 0 but every event was swallowed (cannot happen today:
            // every registration carries either NOTIFY_DATA or a key).
            // Loop defensively rather than report a phantom timeout.
        }
    }

    fn drain_notify(&self) {
        let mut counter = 0u64;
        // SAFETY: notify_fd is our open eventfd and the buffer is 8
        // writable bytes, the exact read size eventfd requires. The fd
        // is nonblocking, so a racing drain returns EAGAIN harmlessly.
        let _ = unsafe {
            ffi::read(self.notify_fd, (&mut counter as *mut u64).cast(), size_of::<u64>())
        };
    }

    pub(crate) fn notify(&self) {
        let one = 1u64;
        // SAFETY: notify_fd is our open eventfd and the buffer is 8
        // readable bytes. A full counter (u64::MAX - 1 pending notifies)
        // would return EAGAIN — the pending notify it reports is
        // already set, so dropping the error keeps the semantics.
        let _ =
            unsafe { ffi::write(self.notify_fd, (&one as *const u64).cast(), size_of::<u64>()) };
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: both fds were created in `new` and are closed exactly
        // once, here; the keepalive map (dup'd source fds) drops itself.
        unsafe {
            let _ = ffi::close(self.notify_fd);
            let _ = ffi::close(self.epfd);
        }
    }
}
