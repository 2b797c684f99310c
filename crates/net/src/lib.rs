//! The simulated open network the agent servers live on.
//!
//! The paper's threat model (Section 2) is defined over an open network
//! where *"the adversary can arbitrarily intercept and modify network-level
//! messages, or even delete them altogether and insert forged ones"*. A
//! simulator — rather than real sockets — is what lets this reproduction
//! *inject* those attacks deterministically and measure that the defenses
//! detect them, while also giving machine-independent byte and latency
//! accounting for the communication-volume experiments (X9, X10).
//!
//! Components:
//!
//! * [`time`] — a virtual clock; experiments report virtual nanoseconds.
//! * [`link`] — per-link latency/bandwidth/loss models.
//! * [`sim`] — [`SimNet`]: named endpoints, message delivery (threaded via
//!   crossbeam channels), per-link statistics.
//! * [`adversary`] — pluggable interceptors: eavesdropper, tamperer,
//!   forger, replayer, dropper — one per attack class in the paper.
//! * [`secure`] — [`secure::SecureChannel`]: mutually authenticated
//!   sessions (signed ephemeral Diffie–Hellman over the `ajanta-crypto`
//!   group) carrying confidential (SHA-CTR), integrity-protected
//!   (HMAC-SHA256), replay-protected (sequence windows) frames. This is
//!   the "privacy and integrity of communication" + "mutual
//!   authentication" layer of the paper's requirements list.
//! * [`transport`] — the [`Transport`] seam the runtime is generic
//!   over: the simulation and real sockets behind one object-safe
//!   contract.
//! * [`frame`] — varint length framing for byte streams, with typed
//!   (never panicking) decode errors.
//! * [`datagram`] — [`SealedDatagram`]: the sealed frame every
//!   server-to-server message travels in, on per-peer [`Session`]s set
//!   up from a signed ticket, with a [`ReplayGuard`] on the receiving
//!   side.
//! * [`socket`] — [`SocketTransport`]: real TCP / Unix-domain
//!   listeners and dialers whose connections are admitted by the
//!   secure-channel handshake, for worlds that span OS processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod datagram;
pub mod frame;
pub mod link;
pub mod secure;
pub mod sim;
pub mod socket;
pub mod time;
pub mod transport;

pub use adversary::{
    Adversary, Dropper, Eavesdropper, Forger, LinkFault, Replayer, ServerCrash, Tamperer,
    TransitAction,
};
pub use datagram::{DatagramError, Opened, ReplayGuard, SealedDatagram, Session};
pub use frame::{ChannelFrame, FrameBuffer, FrameError, MAX_FRAME};
pub use link::LinkModel;
pub use secure::{ChannelError, ChannelIdentity, PendingInitiation, SecureChannel};
pub use sim::{Delivery, Endpoint, NetError, NetStats, SimNet};
pub use socket::{Listener, NetAddr, SocketConfig, SocketTransport, Stream};
pub use time::{fmt_ns, VClock};
pub use transport::{FrameRejectHook, NetEndpoint, Transport, TransportKind, WriteBatchHook};
