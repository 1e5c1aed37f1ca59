//! Framed TCP transport: length-prefixed frames over
//! [`std::net::TcpStream`], so client and server run as genuinely
//! separate OS processes (see the `two_party` example binaries).
//!
//! ## Wire format
//!
//! Every frame is a 4-byte little-endian length prefix followed by
//! exactly that many payload bytes. The prefix is capped at
//! [`MAX_FRAME_BYTES`] so a corrupted or adversarial peer cannot force
//! an absurd allocation. [`encode_frame`] writes a frame;
//! its [`Channel::recv_bytes_capped`] reads one straight off the stream.
//! `tests/conformance.rs` property-tests that read path on frames
//! written to a raw loopback stream in random chunks: they arrive intact
//! and in order, a truncated tail is [`TransportError::Disconnected`]
//! and an oversized prefix [`TransportError::Decode`].

use crate::channel::{check_frame_len, Channel, Side, TrafficCounter};
use crate::{Result, TransportError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Largest accepted frame payload (1 GiB). The MPC protocols' biggest
/// frames are garbled-circuit tables, well below this.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Encodes one frame: 4-byte little-endian payload length, then the
/// payload.
///
/// # Errors
///
/// Returns a decode error when the payload exceeds [`MAX_FRAME_BYTES`].
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>> {
    check_frame_len(payload.len(), MAX_FRAME_BYTES)?;
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

fn io_error(e: std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => TransportError::Disconnected,
        _ => TransportError::Io(e.to_string()),
    }
}

/// One party's end of a framed TCP connection.
///
/// Reads and writes are each serialized through an internal mutex so
/// the handle can be shared like every other [`Channel`] without two
/// senders interleaving partial frames; the protocols themselves are
/// single-threaded per party, so there is no contention in practice.
///
/// Unlike [`crate::MemChannel`], the two ends usually live in different
/// processes, so each end owns its *own* [`TrafficCounter`]: sent
/// frames are charged to this side's direction and received frames to
/// the peer's, which makes each process's snapshot reflect the whole
/// conversation it took part in.
#[derive(Debug)]
pub struct TcpChannel {
    side: Side,
    writer: Mutex<TcpStream>,
    reader: Mutex<TcpStream>,
    counter: TrafficCounter,
    /// Whether received frames are charged to the peer's direction.
    /// True for a private per-process counter (the remote peer's sends
    /// would otherwise go unaccounted); false when both ends share one
    /// counter (loopback pairs), where the peer already charged its own
    /// sends.
    charge_peer_on_recv: bool,
}

impl TcpChannel {
    /// Wraps an established stream. `side` is this end's role.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the stream cannot be
    /// configured or duplicated.
    pub fn from_stream(stream: TcpStream, side: Side) -> Result<Self> {
        let mut ch = Self::from_stream_with_counter(stream, side, TrafficCounter::new())?;
        ch.charge_peer_on_recv = true;
        Ok(ch)
    }

    /// Wraps an established stream, charging traffic to an existing
    /// counter (used by [`crate::TcpLoopbackTransport`] so both ends of
    /// an in-process loopback pair share one counter, like
    /// [`crate::channel_pair`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the stream cannot be
    /// configured or duplicated.
    pub fn from_stream_with_counter(
        stream: TcpStream,
        side: Side,
        counter: TrafficCounter,
    ) -> Result<Self> {
        stream.set_nodelay(true).map_err(io_error)?;
        let reader = stream.try_clone().map_err(io_error)?;
        Ok(TcpChannel {
            side,
            writer: Mutex::new(stream),
            reader: Mutex::new(reader),
            counter,
            charge_peer_on_recv: false,
        })
    }

    /// Caps how long a [`Channel::recv_bytes`] blocks waiting for the
    /// peer (`None` removes the cap). A timed-out read surfaces as
    /// [`TransportError::Io`], not `Disconnected` — serving loops use
    /// this so a stalled or malicious client cannot wedge a worker
    /// forever.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the socket rejects the
    /// option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.reader
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .set_read_timeout(timeout)
            .map_err(io_error)
    }

    /// Write-side twin of [`TcpChannel::set_read_timeout`]: caps how
    /// long a [`Channel::send_bytes`] blocks when the peer stops
    /// draining its receive buffer (`None` removes the cap). Without
    /// it a stalled client wedges a serving worker mid-send once the
    /// kernel buffers fill; serving loops set both timeouts.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the socket rejects the
    /// option.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .set_write_timeout(timeout)
            .map_err(io_error)
    }

    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs, side: Side) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(io_error)?;
        Self::from_stream(stream, side)
    }

    /// Connects to a listening peer, retrying until `timeout` elapses —
    /// the convenient form for demos and CI where the peer process is
    /// racing to bind its listener.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the timeout is exhausted.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        side: Side,
        timeout: Duration,
    ) -> Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr.clone(), side) {
                Ok(ch) => return Ok(ch),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

/// A bound-but-not-yet-connected TCP listener that hands channels to a
/// serving loop.
///
/// The two things this type exists for:
///
/// * **ephemeral ports** — bind `"127.0.0.1:0"` and read the
///   kernel-assigned port back with [`TcpListenerTransport::local_addr`]
///   / [`TcpListenerTransport::port`], so tests, examples and CI never
///   race on a fixed port number;
/// * **accept loops** — [`TcpListenerTransport::accept`] yields one
///   framed [`TcpChannel`] per client connection (the `two_party`
///   demo server), and [`TcpListenerTransport::try_accept`] feeds a
///   readiness loop (`c2pi-core`'s `ReactorServer`).
///
/// ```no_run
/// use c2pi_transport::{Side, TcpChannel, TcpListenerTransport};
/// # fn main() -> c2pi_transport::Result<()> {
/// let listener = TcpListenerTransport::bind("127.0.0.1:0")?;
/// let addr = listener.local_addr(); // tell the client out of band
/// # let _ = addr;
/// let channel = listener.accept(Side::Server)?; // one client connected
/// # let _ = channel;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TcpListenerTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpListenerTransport {
    /// Binds `addr`. Use port 0 for a kernel-assigned ephemeral port and
    /// read it back via [`TcpListenerTransport::local_addr`].
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when binding fails.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(io_error)?;
        let addr = listener.local_addr().map_err(io_error)?;
        Ok(TcpListenerTransport { listener, addr })
    }

    /// The actually-bound address (with the real port even when the bind
    /// address asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Blocks until one client connects, returning the framed channel
    /// for it. `side` is *this* end's protocol role (a serving loop
    /// passes [`Side::Server`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when accepting or configuring the
    /// stream fails.
    pub fn accept(&self, side: Side) -> Result<TcpChannel> {
        let (stream, _peer) = self.listener.accept().map_err(io_error)?;
        TcpChannel::from_stream(stream, side)
    }

    /// Switches the listener between blocking and nonblocking accepts.
    /// A readiness-driven accept loop (the `c2pi-core` reactor) sets
    /// nonblocking once and then drains connections with
    /// [`TcpListenerTransport::try_accept`] on every tick.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the socket rejects the mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        self.listener.set_nonblocking(nonblocking).map_err(io_error)
    }

    /// The underlying OS listener socket. A readiness-driven accept
    /// loop registers this with its poller (e.g. `polling`'s
    /// `add_listener`) so pending connections surface as events instead
    /// of being discovered by periodic `try_accept` polling.
    pub fn as_tcp_listener(&self) -> &TcpListener {
        &self.listener
    }

    /// Nonblocking accept: the raw stream of one pending connection, or
    /// `None` when nothing is queued (`WouldBlock`). Returns the bare
    /// [`TcpStream`] — a reactor registers it for readiness first and
    /// only wraps it into a [`TcpChannel`] once a worker takes it over.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on real accept failures (interrupted
    /// accepts are reported as `None`, like `WouldBlock`).
    pub fn try_accept(&self) -> Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => Ok(Some(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                Ok(None)
            }
            Err(e) => Err(io_error(e)),
        }
    }
}

impl Channel for TcpChannel {
    fn side(&self) -> Side {
        self.side
    }

    fn send_bytes(&self, data: &[u8]) -> Result<()> {
        check_frame_len(data.len(), MAX_FRAME_BYTES)?;
        self.counter.record_send(self.side, data.len() as u64);
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Small frames coalesce prefix + payload into one write (one
        // packet under TCP_NODELAY); large frames skip the O(n) copy.
        if data.len() <= 8192 {
            let frame = encode_frame(data)?;
            writer.write_all(&frame).map_err(io_error)
        } else {
            writer.write_all(&(data.len() as u32).to_le_bytes()).map_err(io_error)?;
            writer.write_all(data).map_err(io_error)
        }
    }

    fn recv_bytes(&self) -> Result<Vec<u8>> {
        self.recv_bytes_capped(MAX_FRAME_BYTES)
    }

    /// Reads the frame straight off the stream: a length prefix above
    /// `cap` (or [`MAX_FRAME_BYTES`]) is rejected **before** the payload
    /// is allocated or read. A server reads an unauthenticated peer's
    /// first frame this way, so the peer's four bytes cannot size the
    /// server's allocation.
    fn recv_bytes_capped(&self, cap: usize) -> Result<Vec<u8>> {
        let mut reader = self.reader.lock().unwrap_or_else(PoisonError::into_inner);
        let mut prefix = [0u8; 4];
        reader.read_exact(&mut prefix).map_err(io_error)?;
        let len = u32::from_le_bytes(prefix) as usize;
        check_frame_len(len, cap.min(MAX_FRAME_BYTES))?;
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload).map_err(io_error)?;
        drop(reader);
        if self.charge_peer_on_recv {
            self.counter.record_send(self.side.peer(), len as u64);
        }
        Ok(payload)
    }

    fn counter(&self) -> TrafficCounter {
        self.counter.clone()
    }
}

/// Creates a connected (client, server) [`TcpChannel`] pair over an
/// ephemeral loopback port, sharing one traffic counter — TCP framing
/// with [`crate::channel_pair`] ergonomics, used by the conformance
/// suite and the loopback transport.
///
/// # Errors
///
/// Returns [`TransportError::Io`] when the loopback sockets cannot be
/// created.
pub fn tcp_loopback_pair() -> Result<(TcpChannel, TcpChannel, TrafficCounter)> {
    let listener = TcpListenerTransport::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr();
    // Loopback connects complete against the kernel backlog, so a
    // single-threaded connect-then-accept cannot deadlock.
    let client_stream = TcpStream::connect(addr).map_err(io_error)?;
    let (server_stream, _peer) = listener.listener.accept().map_err(io_error)?;
    let counter = TrafficCounter::new();
    let client =
        TcpChannel::from_stream_with_counter(client_stream, Side::Client, counter.clone())?;
    let server =
        TcpChannel::from_stream_with_counter(server_stream, Side::Server, counter.clone())?;
    Ok((client, server, counter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_cap_admits_the_cap_and_rejects_one_more() {
        assert!(check_frame_len(6, 6).is_ok());
        assert!(matches!(check_frame_len(7, 6), Err(TransportError::Decode(_))));
    }

    #[test]
    fn capped_read_rejects_an_oversized_prefix_before_the_payload_exists() {
        let (c, s, _) = tcp_loopback_pair().unwrap();
        // The prefix alone, claiming a gigabyte that is never sent: an
        // uncapped read would allocate it and block on the payload.
        c.writer.lock().unwrap().write_all(&0x3FFF_FFFFu32.to_le_bytes()).unwrap();
        assert!(matches!(s.recv_bytes_capped(6), Err(TransportError::Decode(_))));
        // A frame of exactly the cap still arrives whole.
        s.send_bytes(b"sixby!").unwrap();
        assert_eq!(c.recv_bytes_capped(6).unwrap(), b"sixby!");
    }

    #[test]
    fn loopback_pair_round_trips() {
        let (c, s, counter) = tcp_loopback_pair().unwrap();
        c.send_u64s(&[1, 2, 3]).unwrap();
        assert_eq!(s.recv_u64s().unwrap(), vec![1, 2, 3]);
        s.send_bytes(b"ok").unwrap();
        assert_eq!(c.recv_bytes().unwrap(), b"ok");
        let snap = counter.snapshot();
        assert_eq!(snap.bytes_client_to_server, 24);
        assert_eq!(snap.bytes_server_to_client, 2);
        assert_eq!(snap.flights, 2);
    }

    #[test]
    fn dropped_peer_surfaces_on_recv() {
        let (c, s, _) = tcp_loopback_pair().unwrap();
        drop(s);
        assert_eq!(c.recv_bytes().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn listener_reports_ephemeral_port_and_serves_connections() {
        let listener = TcpListenerTransport::bind("127.0.0.1:0").unwrap();
        assert_ne!(listener.port(), 0, "kernel assigns a real port");
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let c = TcpChannel::connect_retry(addr, Side::Client, Duration::from_secs(5)).unwrap();
            c.send_u64s(&[9]).unwrap();
            c.recv_u64s().unwrap()
        });
        let s = listener.accept(Side::Server).unwrap();
        assert_eq!(s.recv_u64s().unwrap(), vec![9]);
        s.send_u64s(&[10]).unwrap();
        assert_eq!(t.join().unwrap(), vec![10]);
        // The listener stays usable for the next client.
        let t = std::thread::spawn(move || {
            TcpChannel::connect_retry(addr, Side::Client, Duration::from_secs(5))
                .unwrap()
                .send_bytes(b"x")
                .unwrap()
        });
        let s = listener.accept(Side::Server).unwrap();
        assert_eq!(s.recv_bytes().unwrap(), b"x");
        t.join().unwrap();
    }

    #[test]
    fn write_timeout_unwedges_a_sender_with_a_stalled_peer() {
        // The peer never reads: our sends land in the kernel buffers
        // until they fill, at which point an uncapped write would block
        // forever. With a write timeout the send surfaces an error.
        let (c, _s, _) = tcp_loopback_pair().unwrap();
        c.set_write_timeout(Some(Duration::from_millis(100))).unwrap();
        let chunk = vec![0u8; 1 << 20];
        let start = Instant::now();
        let mut result = Ok(());
        // 64 MiB is far past loopback's combined socket buffering.
        for _ in 0..64 {
            result = c.send_bytes(&chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(result.is_err(), "send into a stalled peer must time out");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "write timeout must bound the stall, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn nonblocking_listener_reports_empty_then_pending_accepts() {
        let listener = TcpListenerTransport::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(listener.try_accept().unwrap().is_none(), "no client yet");
        let _client = TcpStream::connect(listener.local_addr()).unwrap();
        // Loopback connects complete against the backlog immediately,
        // but give a slow kernel a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(stream) = listener.try_accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline, "pending connection never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(
            accepted.peer_addr().unwrap().ip(),
            listener.local_addr().ip(),
            "accepted the loopback client"
        );
    }

    #[test]
    fn empty_frames_are_legal() {
        let (c, s, _) = tcp_loopback_pair().unwrap();
        c.send_bytes(&[]).unwrap();
        assert_eq!(s.recv_bytes().unwrap(), Vec::<u8>::new());
    }
}
