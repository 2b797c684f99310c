//! The simulated network: named endpoints, modeled links, adversaries,
//! and byte/latency accounting.
//!
//! Delivery is via crossbeam channels so agent servers can run as real
//! threads; *timing* is virtual (see [`crate::time`]): each delivery
//! carries the virtual arrival instant computed from the link model, and
//! every receive on an [`Endpoint`] advances the shared clock to that
//! instant. Single-threaded drivers (the experiment harness) therefore
//! get fully deterministic byte counts and virtual completion times.

use std::collections::BTreeMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use ajanta_crypto::DetRng;
use ajanta_naming::Urn;

use crate::adversary::{Adversary, TransitAction};
use crate::link::LinkModel;
use crate::time::VClock;

/// One received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Claimed sender. **Unauthenticated** at this layer — adversaries can
    /// spoof it; the secure channel is what authenticates.
    pub from: Urn,
    /// Virtual arrival instant (ns).
    pub arrival_ns: u64,
    /// Raw payload.
    pub payload: Vec<u8>,
}

/// Network operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination endpoint is not registered.
    UnknownEndpoint(Urn),
    /// An endpoint with this name is already attached.
    NameInUse(Urn),
    /// The endpoint's queue is gone (endpoint dropped).
    Disconnected,
    /// No message available (non-blocking receive).
    Empty,
    /// A socket-transport I/O failure (dial, handshake, or write). The
    /// simulation never produces this.
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownEndpoint(u) => write!(f, "unknown endpoint {u}"),
            NetError::NameInUse(u) => write!(f, "endpoint name in use: {u}"),
            NetError::Disconnected => f.write_str("endpoint disconnected"),
            NetError::Empty => f.write_str("no message available"),
            NetError::Io(detail) => write!(f, "transport i/o error: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Aggregate traffic statistics (the raw material for experiment X9).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages successfully delivered.
    pub messages_delivered: u64,
    /// Messages dropped by links or adversaries.
    pub messages_dropped: u64,
    /// Messages injected by adversaries.
    pub messages_injected: u64,
    /// Payload bytes that entered the network (before drops).
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Frames pushed through coalesced socket writes (SimNet has no
    /// write path, so this stays 0 on the simulated transport).
    pub frames_coalesced: u64,
    /// Actual `write` calls issued on socket streams (0 on SimNet).
    pub write_syscalls: u64,
}

struct Inner {
    clock: VClock,
    endpoints: Mutex<BTreeMap<Urn, Sender<Delivery>>>,
    /// Directed link overrides; anything absent uses `default_link`.
    links: Mutex<BTreeMap<(Urn, Urn), LinkModel>>,
    default_link: LinkModel,
    adversary: Mutex<Option<Arc<dyn Adversary>>>,
    stats: Mutex<NetStats>,
    rng: Mutex<DetRng>,
}

/// A handle to the shared simulated network. Cloning is cheap.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Inner>,
}

impl SimNet {
    /// A network with the given default link model; `seed` drives loss
    /// sampling.
    pub fn new(default_link: LinkModel, seed: u64) -> Self {
        SimNet {
            inner: Arc::new(Inner {
                clock: VClock::new(),
                endpoints: Mutex::new(BTreeMap::new()),
                links: Mutex::new(BTreeMap::new()),
                default_link,
                adversary: Mutex::new(None),
                stats: Mutex::new(NetStats::default()),
                rng: Mutex::new(DetRng::new(seed)),
            }),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VClock {
        &self.inner.clock
    }

    /// Attaches a new endpoint named `name`.
    pub fn attach(&self, name: Urn) -> Result<Endpoint, NetError> {
        let (tx, rx) = unbounded();
        let mut eps = self.inner.endpoints.lock();
        if eps.contains_key(&name) {
            return Err(NetError::NameInUse(name));
        }
        eps.insert(name.clone(), tx);
        Ok(Endpoint {
            name,
            net: self.clone(),
            rx,
        })
    }

    /// Removes an endpoint: sends to the name fail from now on, and the
    /// endpoint's receives return what was already delivered, then
    /// [`NetError::Disconnected`].
    pub fn detach(&self, name: &Urn) {
        self.inner.endpoints.lock().remove(name);
    }

    /// Overrides the model for the directed link `from → to`.
    pub fn set_link(&self, from: Urn, to: Urn, model: LinkModel) {
        self.inner.links.lock().insert((from, to), model);
    }

    /// Installs (or clears) the network adversary.
    pub fn set_adversary(&self, adversary: Option<Arc<dyn Adversary>>) {
        *self.inner.adversary.lock() = adversary;
    }

    /// Sends on behalf of `from` without holding its [`Endpoint`] — the
    /// path used by worker threads that share a server's NIC. (Claimed
    /// origins are unauthenticated at this layer anyway; authentication
    /// is the secure channel's and sealed datagram's job.)
    pub fn send_as(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        self.transmit(from, to, payload)
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.lock().clone()
    }

    /// Resets the traffic counters (between experiment trials).
    pub fn reset_stats(&self) {
        *self.inner.stats.lock() = NetStats::default();
    }

    fn link_for(&self, from: &Urn, to: &Urn) -> LinkModel {
        self.inner
            .links
            .lock()
            .get(&(from.clone(), to.clone()))
            .copied()
            .unwrap_or(self.inner.default_link)
    }

    /// Core transmit path: adversary, loss, latency, stats, enqueue.
    fn transmit(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        {
            let mut stats = self.inner.stats.lock();
            stats.bytes_sent += payload.len() as u64;
        }

        // Adversary first: it sits on the wire.
        let adversary = self.inner.adversary.lock().clone();
        let mut to_deliver: Vec<(Urn, Vec<u8>)> = Vec::with_capacity(1);
        match adversary.as_ref().map(|a| a.on_transit(from, to, &payload)) {
            None | Some(TransitAction::Pass) => to_deliver.push((from.clone(), payload)),
            Some(TransitAction::Tamper(modified)) => to_deliver.push((from.clone(), modified)),
            Some(TransitAction::Drop) => {
                self.inner.stats.lock().messages_dropped += 1;
                return Ok(()); // silently lost, as on a real network
            }
            Some(TransitAction::InjectAfter(extra)) => {
                to_deliver.push((from.clone(), payload));
                self.inner.stats.lock().messages_injected += extra.len() as u64;
                to_deliver.extend(extra);
            }
        }

        let link = self.link_for(from, to);
        for (claimed_from, bytes) in to_deliver {
            // Link loss model.
            if link.drop_prob > 0.0 && self.inner.rng.lock().unit_f64() < link.drop_prob {
                self.inner.stats.lock().messages_dropped += 1;
                continue;
            }
            let arrival_ns = self.inner.clock.now() + link.transit_ns(bytes.len());
            let sender = {
                let eps = self.inner.endpoints.lock();
                eps.get(to)
                    .cloned()
                    .ok_or_else(|| NetError::UnknownEndpoint(to.clone()))?
            };
            let size = bytes.len() as u64;
            // Hold the stats lock across the enqueue: once the receiver
            // can observe the delivery, anyone reading `stats()` must
            // already see it counted.
            let mut stats = self.inner.stats.lock();
            sender
                .send(Delivery {
                    from: claimed_from,
                    arrival_ns,
                    payload: bytes,
                })
                .map_err(|_| NetError::Disconnected)?;
            stats.messages_delivered += 1;
            stats.bytes_delivered += size;
        }
        Ok(())
    }
}

/// One attached network endpoint (an agent server's NIC).
pub struct Endpoint {
    name: Urn,
    net: SimNet,
    rx: Receiver<Delivery>,
}

impl Endpoint {
    /// This endpoint's global name.
    pub fn name(&self) -> &Urn {
        &self.name
    }

    /// The network this endpoint is attached to.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Sends `payload` to `to`.
    pub fn send(&self, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        self.net.transmit(&self.name, to, payload)
    }

    /// Blocking receive; advances the virtual clock to the arrival time.
    pub fn recv(&self) -> Result<Delivery, NetError> {
        let d = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        self.net.clock().advance_to(d.arrival_ns);
        Ok(d)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Delivery, NetError> {
        match self.rx.try_recv() {
            Ok(d) => {
                self.net.clock().advance_to(d.arrival_ns);
                Ok(d)
            }
            Err(TryRecvError::Empty) => Err(NetError::Empty),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Blocking receive with a real-time timeout: [`NetError::Empty`]
    /// when nothing arrived in time, [`NetError::Disconnected`] once the
    /// endpoint is detached and its queue drained.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Delivery, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(d) => {
                self.net.clock().advance_to(d.arrival_ns);
                Ok(d)
            }
            Err(RecvTimeoutError::Timeout) => Err(NetError::Empty),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.net.detach(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Dropper, Eavesdropper, Replayer, Tamperer};
    use crate::time::MILLIS;

    fn server(n: &str) -> Urn {
        Urn::server("net.test", [n]).unwrap()
    }

    fn net() -> SimNet {
        SimNet::new(LinkModel::default(), 42)
    }

    #[test]
    fn point_to_point_delivery() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"hello".to_vec()).unwrap();
        let d = b.recv().unwrap();
        assert_eq!(d.from, *a.name());
        assert_eq!(d.payload, b"hello");
        assert!(d.arrival_ns > 0);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        assert_eq!(
            a.send(&server("ghost"), vec![]),
            Err(NetError::UnknownEndpoint(server("ghost")))
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let net = net();
        let _a = net.attach(server("a")).unwrap();
        assert!(matches!(
            net.attach(server("a")),
            Err(NetError::NameInUse(_))
        ));
    }

    #[test]
    fn detach_on_drop_frees_name() {
        let net = net();
        {
            let _a = net.attach(server("a")).unwrap();
        }
        // Name is free again.
        let _a2 = net.attach(server("a")).unwrap();
    }

    #[test]
    fn virtual_clock_advances_with_link_model() {
        let net = SimNet::new(
            LinkModel {
                latency_ns: 10 * MILLIS,
                bandwidth_bps: 0,
                drop_prob: 0.0,
            },
            1,
        );
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), vec![0; 100]).unwrap();
        let d = b.recv().unwrap();
        assert_eq!(d.arrival_ns, 10 * MILLIS);
        assert_eq!(net.clock().now(), 10 * MILLIS);
    }

    #[test]
    fn per_link_override_beats_default() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        net.set_link(
            a.name().clone(),
            b.name().clone(),
            LinkModel {
                latency_ns: 77,
                bandwidth_bps: 0,
                drop_prob: 0.0,
            },
        );
        a.send(b.name(), vec![]).unwrap();
        assert_eq!(b.recv().unwrap().arrival_ns, 77);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), vec![0; 10]).unwrap();
        a.send(b.name(), vec![0; 30]).unwrap();
        let s = net.stats();
        assert_eq!(s.messages_delivered, 2);
        assert_eq!(s.bytes_sent, 40);
        assert_eq!(s.bytes_delivered, 40);
        net.reset_stats();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let net = SimNet::new(LinkModel::default().with_loss(1.0), 7);
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), vec![1, 2, 3]).unwrap();
        assert_eq!(b.try_recv(), Err(NetError::Empty));
        let s = net.stats();
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.messages_delivered, 0);
        assert_eq!(s.bytes_sent, 3);
        assert_eq!(s.bytes_delivered, 0);
    }

    #[test]
    fn eavesdropper_sees_raw_frames() {
        let net = net();
        let eve = Arc::new(Eavesdropper::new());
        net.set_adversary(Some(eve.clone()));
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"plaintext password".to_vec()).unwrap();
        b.recv().unwrap();
        assert!(eve.saw_plaintext(b"password"));
    }

    #[test]
    fn tamperer_corrupts_delivered_bytes() {
        let net = net();
        net.set_adversary(Some(Arc::new(Tamperer::new(5, 1.0))));
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), vec![0u8; 64]).unwrap();
        let d = b.recv().unwrap();
        assert_ne!(d.payload, vec![0u8; 64]);
    }

    #[test]
    fn replayer_duplicates_messages() {
        let net = net();
        net.set_adversary(Some(Arc::new(Replayer::new())));
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"once".to_vec()).unwrap();
        let d1 = b.recv().unwrap();
        let d2 = b.recv().unwrap();
        assert_eq!(d1.payload, d2.payload);
        assert_eq!(net.stats().messages_injected, 1);
    }

    #[test]
    fn dropper_adversary_deletes() {
        let net = net();
        let dropper = Arc::new(Dropper::new(3, 1.0));
        net.set_adversary(Some(dropper.clone()));
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"gone".to_vec()).unwrap();
        assert_eq!(b.try_recv(), Err(NetError::Empty));
        assert_eq!(dropper.dropped_count(), 1);
        // Clearing the adversary restores delivery.
        net.set_adversary(None);
        a.send(b.name(), b"back".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap().payload, b"back");
    }

    #[test]
    fn threaded_ping_pong() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        let a_name = a.name().clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..100 {
                    let d = b.recv().unwrap();
                    b.send(&d.from, d.payload).unwrap();
                }
            });
            for i in 0..100u32 {
                a.send(&server("b"), i.to_be_bytes().to_vec()).unwrap();
                let d = a.recv().unwrap();
                assert_eq!(d.payload, i.to_be_bytes());
            }
            let _ = a_name;
        });
        assert_eq!(net.stats().messages_delivered, 200);
    }

    /// `Empty` means "nothing yet", `Disconnected` "never again": a
    /// detached endpoint still reads what was delivered before the
    /// detach, then reports the detach at once, even to a receiver
    /// already blocked with a timeout past the clock's range.
    #[test]
    fn recv_timeout_tells_a_detached_endpoint_from_a_quiet_one() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        let b = net.attach(server("b")).unwrap();
        a.send(b.name(), b"before".to_vec()).unwrap();
        net.detach(b.name());
        assert_eq!(
            a.send(b.name(), vec![]),
            Err(NetError::UnknownEndpoint(server("b")))
        );
        let forever = std::time::Duration::MAX;
        assert_eq!(b.recv_timeout(forever).unwrap().payload, b"before");
        assert_eq!(b.recv_timeout(forever), Err(NetError::Disconnected));

        let c = net.attach(server("c")).unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| c.recv_timeout(forever));
            std::thread::sleep(std::time::Duration::from_millis(20));
            net.detach(&server("c"));
            assert_eq!(blocked.join().unwrap(), Err(NetError::Disconnected));
        });
    }

    #[test]
    fn recv_timeout_returns_empty_when_silent() {
        let net = net();
        let a = net.attach(server("a")).unwrap();
        assert_eq!(
            a.recv_timeout(std::time::Duration::from_millis(10)),
            Err(NetError::Empty)
        );
    }
}
