//! # c2pi-transport
//!
//! The transport-generic protocol substrate of the workspace: the
//! [`Channel`] trait (blocking framed send/recv of typed messages plus
//! exact byte, message and flight accounting), three implementations
//! behind one conformance contract, and the LAN/WAN network models that
//! price traffic into the latency numbers of the paper's Table II.
//!
//! * [`MemChannel`] — the in-memory pair ([`channel_pair`]) used when
//!   both parties are threads of one process;
//! * [`SimChannel`] — wraps any channel and injects a [`NetModel`]'s
//!   bandwidth and RTT delays *in line*, so LAN/WAN latency shows up on
//!   the wall clock instead of only in post-hoc estimates;
//! * [`TcpChannel`] — length-prefixed frames over
//!   [`std::net::TcpStream`], letting client and server run as separate
//!   OS processes (see the `two_party` example binaries).
//!
//! Sessions pick a channel flavour through the [`Transport`] factory
//! trait ([`MemTransport`], [`SimTransport`], [`TcpLoopbackTransport`]).
//!
//! Every MPC protocol in `c2pi-mpc` and the PI engine in `c2pi-pi` is
//! generic over [`Channel`]; afterwards the shared [`TrafficCounter`]
//! holds the exact communication profile, and a [`NetModel`] prices it
//! under the paper's network settings (LAN: 384 MBps / 0.3 ms RTT,
//! WAN: 44 MBps / 40 ms RTT).
//!
//! ## Example
//!
//! ```
//! use c2pi_transport::{channel_pair, Channel, NetModel};
//!
//! let (a, b, counter) = channel_pair();
//! a.send_bytes(&[1, 2, 3])?;
//! assert_eq!(b.recv_bytes()?, vec![1, 2, 3]);
//! let snap = counter.snapshot();
//! assert_eq!(snap.bytes_total(), 3);
//! let lat = NetModel::lan().latency_seconds(&snap, 0.0);
//! assert!(lat > 0.0);
//! # Ok::<(), c2pi_transport::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod mem;
pub mod netmodel;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use channel::{Channel, Side, TrafficCounter, TrafficSnapshot};
pub use error::TransportError;
pub use mem::{channel_pair, MemChannel};
pub use netmodel::NetModel;
pub use sim::SimChannel;
pub use tcp::{encode_frame, tcp_loopback_pair, TcpChannel, TcpListenerTransport, MAX_FRAME_BYTES};
pub use transport::{BoxedChannel, MemTransport, SimTransport, TcpLoopbackTransport, Transport};

/// Convenience result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;
