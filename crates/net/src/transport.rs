//! The transport seam: what an agent server needs from a network.
//!
//! [`crate::sim::SimNet`] was the only network this repo had, and the
//! runtime held it by value. This module extracts the contract the
//! runtime actually relies on — named endpoints, best-effort
//! datagram delivery with an unauthenticated claimed origin, a shared
//! virtual clock, traffic stats, and an adversary hook — into an
//! object-safe [`Transport`] trait, so the same server loop runs
//! unchanged over the in-process simulation or over real sockets
//! ([`crate::socket::SocketTransport`]).
//!
//! Semantics every implementation must preserve:
//!
//! - **Unreliable, unordered datagrams.** `send_as` may silently drop
//!   (adversary, link loss, connection failure) and still return `Ok`;
//!   the runtime's ack/retry layer is what makes delivery reliable.
//!   Errors are reserved for *local* misconfiguration (unknown
//!   destination, transport shut down).
//! - **Unauthenticated origins.** The `from` name on a delivery is a
//!   claim; authentication happens above, in the sealed-datagram layer.
//! - **Virtual-time arrivals.** Every [`Delivery`] carries `arrival_ns`
//!   on the transport's [`VClock`]; receivers advance the clock to it
//!   when they consume the message. The simulation computes arrivals
//!   from a link model; socket transports stamp real wall-clock
//!   nanoseconds on a clock shared (via the UNIX epoch) across
//!   processes on the same machine.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;

use ajanta_naming::Urn;

use crate::adversary::Adversary;
use crate::link::LinkModel;
use crate::sim::{Delivery, Endpoint, NetError, NetStats, SimNet};
use crate::time::VClock;

/// Which concrete transport a [`Transport`] object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process simulation ([`SimNet`]).
    Sim,
    /// Real TCP sockets ([`crate::socket::SocketTransport`]).
    Tcp,
    /// Unix-domain sockets ([`crate::socket::SocketTransport`]).
    Uds,
}

impl TransportKind {
    /// A short lowercase label (`"sim"`, `"tcp"`, `"uds"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Callback a transport invokes when it discards an inbound frame that
/// never made it to a [`Delivery`] — malformed framing, a handshake
/// failure, an unroutable destination. The argument is a short
/// human-readable reason. Servers use this to journal a rejection
/// event; the simulation never calls it (nothing malformed can enter a
/// channel that only ever carries well-formed sends).
pub type FrameRejectHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Callback a socket transport invokes after each coalesced stream
/// write, with the number of frames the write carried. Servers use
/// this to feed the frames-per-write histogram and coalescing
/// counters; the simulation never calls it (it has no write path).
pub type WriteBatchHook = Arc<dyn Fn(u64) + Send + Sync>;

/// One attached endpoint: the receive side of a name on some transport.
///
/// The trait mirrors [`Endpoint`]'s inherent API so the server loop can
/// `select!` over [`NetEndpoint::receiver`] exactly as it always did.
/// `recv`/`try_recv`/`recv_timeout` leave the transport clock at or past
/// the delivery's arrival instant; draining `receiver()` directly does
/// not advance a virtual clock (the caller must `advance_to` itself). A
/// wall clock has already passed every arrival it stamped.
pub trait NetEndpoint: Send {
    /// The endpoint's global name.
    fn name(&self) -> &Urn;

    /// Sends `payload` to `to` with this endpoint's name as origin.
    fn send(&self, to: &Urn, payload: Vec<u8>) -> Result<(), NetError>;

    /// The raw delivery channel, for `select!`-style event loops.
    fn receiver(&self) -> &Receiver<Delivery>;

    /// Blocking receive; advances the clock to the arrival time.
    fn recv(&self) -> Result<Delivery, NetError>;

    /// Non-blocking receive; advances the clock on success.
    fn try_recv(&self) -> Result<Delivery, NetError>;

    /// Blocking receive with a real-time timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, NetError>;
}

/// A network a world of agent servers can run over.
///
/// Object-safe on purpose: the runtime holds `Arc<dyn Transport>` so a
/// single compiled server loop serves both the simulation and sockets.
pub trait Transport: Send + Sync {
    /// Which concrete transport this is.
    fn kind(&self) -> TransportKind;

    /// The transport's shared clock (virtual ns for the simulation,
    /// wall-clock ns since the UNIX epoch for socket transports).
    fn clock(&self) -> &VClock;

    /// Attaches a new endpoint named `name`.
    fn attach(&self, name: Urn) -> Result<Box<dyn NetEndpoint>, NetError>;

    /// Removes an endpoint (its queued messages are discarded).
    fn detach(&self, name: &Urn);

    /// Sends on behalf of `from` without holding its endpoint — the
    /// path worker threads that share a server's NIC use.
    fn send_as(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError>;

    /// A snapshot of the traffic counters. On a multi-process socket
    /// transport these count this process's traffic only.
    fn stats(&self) -> NetStats;

    /// Resets the traffic counters (between experiment trials).
    fn reset_stats(&self);

    /// Installs (or clears) the network adversary. Socket transports
    /// apply it on the send path (before framing), so `Tamper` and
    /// `Drop` behave exactly as on the simulation; what cannot be
    /// modeled is an adversary on the far side of a real wire.
    fn set_adversary(&self, adversary: Option<Arc<dyn Adversary>>);

    /// Overrides the model for the directed link `from → to`. Only the
    /// simulation models links; socket transports ignore this (the real
    /// wire *is* the link model) — see DESIGN.md's transport-seam notes.
    fn set_link(&self, from: Urn, to: Urn, model: LinkModel) {
        let _ = (from, to, model);
    }

    /// Installs the inbound-frame rejection hook (see
    /// [`FrameRejectHook`]). Default: discarded silently, which is what
    /// the simulation does since it cannot produce malformed frames.
    fn on_frame_reject(&self, hook: FrameRejectHook) {
        let _ = hook;
    }

    /// Installs the per-write batch hook (see [`WriteBatchHook`]).
    /// Default: no observation — only socket transports issue writes.
    fn on_write_batch(&self, hook: WriteBatchHook) {
        let _ = hook;
    }

    /// Releases listener/connection resources. Idempotent. The
    /// simulation has nothing to release.
    fn shutdown(&self) {}
}

impl Transport for SimNet {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn clock(&self) -> &VClock {
        SimNet::clock(self)
    }

    fn attach(&self, name: Urn) -> Result<Box<dyn NetEndpoint>, NetError> {
        SimNet::attach(self, name).map(|ep| Box::new(ep) as Box<dyn NetEndpoint>)
    }

    fn detach(&self, name: &Urn) {
        SimNet::detach(self, name);
    }

    fn send_as(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        SimNet::send_as(self, from, to, payload)
    }

    fn stats(&self) -> NetStats {
        SimNet::stats(self)
    }

    fn reset_stats(&self) {
        SimNet::reset_stats(self);
    }

    fn set_adversary(&self, adversary: Option<Arc<dyn Adversary>>) {
        SimNet::set_adversary(self, adversary);
    }

    fn set_link(&self, from: Urn, to: Urn, model: LinkModel) {
        SimNet::set_link(self, from, to, model);
    }
}

impl NetEndpoint for Endpoint {
    fn name(&self) -> &Urn {
        Endpoint::name(self)
    }

    fn send(&self, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        Endpoint::send(self, to, payload)
    }

    fn receiver(&self) -> &Receiver<Delivery> {
        Endpoint::receiver(self)
    }

    fn recv(&self) -> Result<Delivery, NetError> {
        Endpoint::recv(self)
    }

    fn try_recv(&self) -> Result<Delivery, NetError> {
        Endpoint::try_recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, NetError> {
        Endpoint::recv_timeout(self, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Dropper;

    fn server(n: &str) -> Urn {
        Urn::server("seam.test", [n]).unwrap()
    }

    /// The whole point of the seam: code written against `dyn Transport`
    /// runs unchanged over the simulation.
    #[test]
    fn simnet_behind_the_trait_delivers() {
        let net: Arc<dyn Transport> = Arc::new(SimNet::new(LinkModel::local(), 7));
        assert_eq!(net.kind(), TransportKind::Sim);
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"over the seam".to_vec()).unwrap();
        let d = b.recv().unwrap();
        assert_eq!(d.from, *a.name());
        assert_eq!(d.payload, b"over the seam");
        assert_eq!(net.stats().messages_delivered, 1);

        // send_as works without holding the endpoint.
        net.send_as(a.name(), b.name(), vec![9]).unwrap();
        assert_eq!(b.recv().unwrap().payload, vec![9]);

        // Adversary and link hooks pass through.
        net.set_adversary(Some(Arc::new(Dropper::new(1, 1.0))));
        a.send(b.name(), vec![0]).unwrap();
        assert!(b.try_recv().is_err());
        net.set_adversary(None);
        net.set_link(
            server("a"),
            server("b"),
            LinkModel {
                latency_ns: 123,
                bandwidth_bps: 0,
                drop_prob: 0.0,
            },
        );
        net.reset_stats();
        a.send(b.name(), vec![1]).unwrap();
        assert_eq!(b.recv().unwrap().arrival_ns, net.clock().now());
        net.shutdown(); // no-op for the simulation
    }

    /// Dropping a boxed endpoint frees its name, same as the concrete type.
    #[test]
    fn boxed_endpoint_detaches_on_drop() {
        let net: Arc<dyn Transport> = Arc::new(SimNet::new(LinkModel::local(), 7));
        {
            let _e = net.attach(server("x")).unwrap();
            assert!(matches!(
                net.attach(server("x")),
                Err(NetError::NameInUse(_))
            ));
        }
        let _e2 = net.attach(server("x")).unwrap();
    }
}
