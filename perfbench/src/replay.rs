//! The hop replay: one agent's whole tour pushed, on one thread, through
//! each layer's public functions, with a span around every call.
//!
//! A replayed agent makes the workload's legs — the launch and the moves
//! between stops as `Transfer` frames, then the `Report` home — each
//! acked, exactly as the servers exchange them: encode, seal, datagram
//! codec, open, decode, credential and code verification, and, on the
//! `access` workload, the bind and the proxied calls at every stop. The
//! inputs are the workload's own: its agent image, owner-signed
//! credentials, cargo size and resource. Stages the workload's tour never
//! reaches are measured by separate probes with the same inputs.

use std::time::Duration;

use ajanta_core::telemetry::{SpanContext, SpanId, SpanKind, TraceId};
use ajanta_core::{
    BoundedBuffer, DomainId, Guarded, HostMonitor, ProxyPolicy, Requester, ResourceProxy,
    ResourceRegistry, Rights,
};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust, Sha256};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{
    NetAddr, ReplayGuard, SealedDatagram, SecureChannel, SocketConfig, SocketTransport, Transport,
};
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{Event, Journal, Message, Owner, Report, ReportStatus};
use ajanta_vm::AgentImage;
use ajanta_wire::Wire;

use crate::load::{self, Spec, PAIRS_PER_STOP, STOPS};
use crate::stats::median;
use crate::trace::Tracer;

/// Every stage span the replay records, whatever the workload.
pub const STAGES: [&str; 16] = [
    "wire.encode",
    "wire.decode",
    "wire.datagram_codec",
    "net.datagram.seal",
    "net.datagram.open",
    "net.datagram.ack",
    "net.secure.seal_open",
    "net.secure.small_seal_open",
    "net.socket.oneway",
    "core.credentials.verify",
    "vm.verify",
    "core.registry.bind",
    "core.proxy.invoke",
    "core.telemetry.span",
    "runtime.report_leg",
    "crypto.sha256",
];

/// The stage spans whose medians are CPU work, with how many times one
/// agent's tour runs each. `net.socket.oneway` is a wait, not work, and
/// stays out of the sum.
pub fn stages_per_agent(spec: &Spec) -> Vec<(&'static str, f64)> {
    let legs = STOPS as f64;
    let mut v = vec![
        ("wire.encode", legs),
        ("net.datagram.seal", legs),
        ("wire.datagram_codec", legs),
        ("net.datagram.open", legs),
        ("wire.decode", legs),
        ("core.credentials.verify", legs),
        ("vm.verify", legs),
        ("runtime.report_leg", 1.0),
        ("net.datagram.ack", legs + 1.0),
    ];
    if spec.sockets() {
        v.push(("net.secure.seal_open", legs));
        // The report and the four acks cross the channel too.
        v.push(("net.secure.small_seal_open", legs + 2.0));
    }
    if spec.access {
        let calls = (STOPS * PAIRS_PER_STOP) as f64;
        v.push(("core.registry.bind", legs));
        v.push(("core.proxy.invoke", calls));
        v.push(("core.telemetry.span", 2.0 * calls));
    }
    v
}

/// A CA with two certified servers and a certified owner, separate from
/// any world.
struct Parties {
    roots: RootOfTrust,
    home: (ChannelIdentity, KeyPair),
    stop: (ChannelIdentity, KeyPair),
    owner: Owner,
}

fn certify(ca: &KeyPair, name: &Urn, serial: u64, rng: &mut DetRng) -> (ChannelIdentity, KeyPair) {
    let keys = KeyPair::generate(rng);
    let cert = Certificate::issue(
        name.to_string(),
        keys.public,
        "ca",
        ca,
        u64::MAX,
        serial,
        rng,
    );
    (
        ChannelIdentity {
            name: name.clone(),
            keys: keys.clone(),
            chain: vec![cert],
        },
        keys,
    )
}

impl Parties {
    fn new(seed: u64) -> Parties {
        let mut rng = DetRng::new(load::derive(seed, 3));
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let server =
            |tag: &str| Urn::server(format!("{tag}.replay.org"), ["s"]).expect("canonical");
        let home = certify(&ca, &server("home"), 1, &mut rng);
        let stop = certify(&ca, &server("stop"), 2, &mut rng);
        let owner_name = Urn::owner("users.org", ["bench"]).expect("canonical owner");
        let (owner_id, owner_keys) = certify(&ca, &owner_name, 3, &mut rng);
        let owner = Owner::new(owner_name, owner_keys, owner_id.chain, rng.next_u64());
        Parties {
            roots,
            home,
            stop,
            owner,
        }
    }
}

/// Two UDS transports with a warm connection from `a` to `b`.
struct SocketPair {
    a: SocketTransport,
    b: SocketTransport,
    a_name: Urn,
    b_name: Urn,
    b_end: Box<dyn ajanta_net::NetEndpoint>,
}

impl SocketPair {
    fn new(parties: &Parties, dir: &std::path::Path, seed: u64) -> SocketPair {
        let bind = |(id, _): &(ChannelIdentity, KeyPair), tag: &str, seed: u64| {
            let path = dir.join(format!("replay-{tag}-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            SocketTransport::bind(
                &NetAddr::Uds(path),
                SocketConfig {
                    identity: id.clone(),
                    roots: parties.roots.clone(),
                    seed,
                },
            )
            .expect("binding a replay socket")
        };
        let a = bind(&parties.home, "a", seed);
        let b = bind(&parties.stop, "b", seed ^ 1);
        let (a_name, b_name) = (parties.home.0.name.clone(), parties.stop.0.name.clone());
        a.add_route(b_name.clone(), b.local_addr());
        let b_end = b
            .attach(b_name.clone())
            .expect("attaching the replay receiver");
        let pair = SocketPair {
            a,
            b,
            a_name,
            b_name,
            b_end,
        };
        // Dial and handshake once, outside any span.
        pair.oneway(vec![0u8; 16]);
        pair
    }

    fn oneway(&self, payload: Vec<u8>) {
        self.a
            .send_as(&self.a_name, &self.b_name, payload)
            .expect("replay send");
        self.b_end
            .recv_timeout(Duration::from_secs(5))
            .expect("replay frame arrives");
    }

    fn shutdown(self) {
        drop(self.b_end);
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// Per-run state the replayed hops share.
struct Replay<'a> {
    spec: &'a Spec,
    parties: Parties,
    rng: DetRng,
    guard: ReplayGuard,
    credentials: ajanta_core::Credentials,
    image: AgentImage,
    channel: (SecureChannel, SecureChannel),
    sockets: SocketPair,
    registry: ResourceRegistry,
    journal: Journal,
}

/// Virtual time every replayed frame is stamped with.
const NOW: u64 = 1_000_000;

impl<'a> Replay<'a> {
    fn new(spec: &'a Spec, seed: u64, dir: &std::path::Path) -> Replay<'a> {
        let mut parties = Parties::new(seed);
        let mut rng = DetRng::new(load::derive(seed, 4));
        // What the agent carries after its first stop: the names of the
        // other two, spelled as a world names its servers.
        let carried =
            Itinerary::new((2..=STOPS).map(|i| {
                Urn::server(format!("site{i}.org"), ["s"]).expect("canonical server name")
            }));
        let image = load::agent_image(spec, seed, &carried);
        let agent = parties.owner.next_agent_name("a");
        let credentials =
            parties
                .owner
                .credentials(agent, parties.home.0.name.clone(), Rights::all(), u64::MAX);
        let sockets = SocketPair::new(&parties, dir, rng.next_u64());
        let (hello, pending) =
            SecureChannel::initiate(&parties.home.0, &parties.stop.0.name, &mut rng);
        let (ack, responder) =
            SecureChannel::respond(&parties.stop.0, &parties.roots, &hello, NOW, &mut rng)
                .expect("replay handshake");
        let initiator = pending
            .finish(&parties.roots, &ack, NOW)
            .expect("replay handshake");
        let registry = ResourceRegistry::new();
        let buffer = BoundedBuffer::new(
            load::buffer_name(),
            Urn::owner("bench.org", ["admin"]).expect("canonical owner"),
            4 * spec.in_flight,
        );
        registry
            .register(
                &HostMonitor::new(),
                DomainId::SERVER,
                &parties.stop.0.name,
                Guarded::new(buffer, ProxyPolicy::default()),
            )
            .expect("registering the replay buffer");
        // A journal already at capacity, as a server's is in steady
        // state: each append then also evicts.
        let journal = Journal::new();
        for _ in 0..journal.capacity() {
            journal.append(Event::AgentLog {
                agent: credentials.agent.clone(),
                text: String::new(),
            });
        }
        Replay {
            spec,
            parties,
            rng,
            guard: ReplayGuard::new(u64::MAX / 4),
            credentials,
            image,
            channel: (initiator, responder),
            sockets,
            registry,
            journal,
        }
    }

    fn transfer(&self, hop: u64) -> Message {
        Message::Transfer {
            credentials: self.credentials.clone(),
            image: self.image.clone(),
            hop,
            run_as: self.credentials.agent.clone(),
            arg: Vec::new(),
            ctx: SpanContext::root(TraceId(1), SpanId(hop + 2)),
            sent_ns: NOW,
        }
    }

    /// Seals `payload` home → stop as a server does.
    fn seal(&mut self, payload: &[u8]) -> SealedDatagram {
        let (from, _) = &self.parties.home;
        let (to, to_keys) = &self.parties.stop;
        SealedDatagram::seal(from, &to.name, to_keys.public, payload, NOW, &mut self.rng)
    }

    fn open(&mut self, d: &SealedDatagram) -> Vec<u8> {
        let (to, to_keys) = &self.parties.stop;
        d.open(to, to_keys, &self.parties.roots, NOW, &mut self.guard)
            .expect("replayed datagram opens")
            .1
    }

    /// Crosses the secure channel once with `frame`.
    fn channel_round(&mut self, frame: &[u8]) {
        let (tx, rx) = &mut self.channel;
        let mut sealed = Vec::with_capacity(tx.sealed_len(frame.len()));
        tx.seal_into(frame, &mut sealed);
        let mut plain = Vec::with_capacity(frame.len());
        rx.open_into(&sealed, &mut plain)
            .expect("channel frame opens");
    }

    fn ack(&mut self, t: &mut Tracer, parent: u64, seq: u64, small_frames: bool) {
        let ack = Message::Ack {
            kind: 0,
            agent: self.credentials.agent.clone(),
            seq,
        };
        let wire = t.span("net.datagram.ack", Some(parent), |_, _| {
            let d = self.seal(&ack.to_bytes());
            let wire = d.to_bytes();
            let d = SealedDatagram::from_bytes(&wire).expect("ack decodes");
            self.open(&d);
            wire
        });
        if small_frames {
            t.span("net.secure.small_seal_open", Some(parent), |_, _| {
                self.channel_round(&wire)
            });
        }
    }

    /// A sealed transfer crossing a socket: the channel's seal and open,
    /// then one framed send→recv between two UDS transports.
    fn socket_crossing(&mut self, t: &mut Tracer, parent: u64, wire: &[u8]) {
        t.span("net.secure.seal_open", Some(parent), |_, _| {
            self.channel_round(wire)
        });
        let payload = wire.to_vec();
        let pair = &self.sockets;
        t.span("net.socket.oneway", Some(parent), |_, _| {
            pair.oneway(payload)
        });
    }

    /// One `Transfer` leg: sender to admission, then the stay.
    fn transfer_leg(&mut self, t: &mut Tracer, parent: u64, hop: u64) {
        let msg = self.transfer(hop);
        let module = self.image.module.clone();
        let sockets = self.spec.sockets();
        let bytes = t.span("wire.encode", Some(parent), |_, _| msg.to_bytes());
        let sealed = t.span("net.datagram.seal", Some(parent), |_, _| self.seal(&bytes));
        let (wire, received) = t.span("wire.datagram_codec", Some(parent), |_, _| {
            let wire = sealed.to_bytes();
            let d = SealedDatagram::from_bytes(&wire).expect("datagram decodes");
            (wire, d)
        });
        if sockets {
            self.socket_crossing(t, parent, &wire);
        }
        let plain = t.span("net.datagram.open", Some(parent), |_, _| {
            self.open(&received)
        });
        let decoded = t.span("wire.decode", Some(parent), |_, _| {
            Message::from_bytes(&plain).expect("transfer decodes")
        });
        let Message::Transfer { credentials, .. } = decoded else {
            panic!("replayed transfer decoded as another message");
        };
        t.span("core.credentials.verify", Some(parent), |_, _| {
            credentials
                .verify(&self.parties.roots, NOW)
                .expect("replayed credentials verify")
        });
        t.span("vm.verify", Some(parent), |_, _| {
            ajanta_vm::verify(module).expect("agent module verifies")
        });
        self.ack(t, parent, hop, sockets);
        if self.spec.access {
            self.stay(t, parent);
        }
    }

    /// The `access` agent's stay at one stop: bind, then the proxied
    /// `put`/`get` pairs, each call journaled as an Access span the way
    /// `env.invoke` does.
    fn stay(&mut self, t: &mut Tracer, parent: u64) {
        let requester = Requester {
            agent: self.credentials.agent.clone(),
            owner: self.credentials.owner.clone(),
            domain: DomainId(7),
            rights: Rights::all(),
        };
        let proxy: ResourceProxy = t.span("core.registry.bind", Some(parent), |_, _| {
            self.registry
                .bind(&requester, &load::buffer_name(), NOW)
                .expect("replay bind")
        });
        let item = self.image.globals[1].clone();
        for _ in 0..PAIRS_PER_STOP {
            let args = vec![item.clone()];
            t.span("core.proxy.invoke", Some(parent), |_, _| {
                proxy
                    .invoke(requester.domain, "put", &args, NOW)
                    .expect("replayed put");
                proxy
                    .invoke(requester.domain, "get", &[], NOW)
                    .expect("replayed get")
            });
            for method in ["put", "get"] {
                t.span("core.telemetry.span", Some(parent), |_, _| {
                    let span = SpanContext {
                        trace: TraceId(1),
                        span: self.journal.mint_span(),
                        parent: Some(SpanId(2)),
                    };
                    self.journal.append(Event::Span {
                        ctx: span,
                        kind: SpanKind::Access,
                        agent: requester.agent.clone(),
                        detail: format!("{} {} {}", proxy.resource_name(), method, "ok"),
                        start_ns: NOW,
                        dur_ns: 500,
                    })
                });
            }
        }
    }

    /// The last leg: the report home, and its ack.
    fn report_leg(&mut self, t: &mut Tracer, parent: u64) {
        let msg = Message::Report {
            report: Report {
                agent: self.credentials.agent.clone(),
                server: self.parties.stop.0.name.clone(),
                status: ReportStatus::Completed(self.spec.expected.into()),
                at: NOW,
            },
            seq: 1,
            ctx: SpanContext::root(TraceId(1), SpanId(9)),
        };
        t.span("runtime.report_leg", Some(parent), |_, _| {
            let d = self.seal(&msg.to_bytes());
            let d = SealedDatagram::from_bytes(&d.to_bytes()).expect("report decodes");
            Message::from_bytes(&self.open(&d)).expect("report message decodes")
        });
        self.ack(t, parent, 1, self.spec.sockets());
    }
}

/// Replayed stage figures for one workload.
#[derive(Debug)]
pub struct ReplayResult {
    /// `(stage, median µs)` for every name in [`STAGES`].
    pub stages: Vec<(&'static str, f64)>,
    /// Σ median × runs-per-agent over [`stages_per_agent`], µs.
    pub us_per_agent: f64,
    /// SHA-256 throughput over the transfer size, MB/s.
    pub sha256_mb_per_s: f64,
    /// Size of the workload's encoded `Transfer`, bytes.
    pub transfer_bytes: usize,
}

/// Replays `agents` whole tours of `spec`'s agent, then as many probes of
/// SHA-256 and of the stages its tour never reaches, recording every span
/// in `tracer`.
pub fn run(
    spec: &Spec,
    seed: u64,
    agents: usize,
    dir: &std::path::Path,
    tracer: &mut Tracer,
) -> ReplayResult {
    let mut r = Replay::new(spec, seed, dir);
    for _ in 0..agents {
        tracer.span("replay.agent", None, |t, agent| {
            for hop in 0..STOPS as u64 {
                t.span("replay.hop", Some(agent), |t, id| {
                    r.transfer_leg(t, id, hop)
                });
            }
            t.span("replay.hop", Some(agent), |t, id| r.report_leg(t, id));
        });
    }
    // Layers this workload's tour never reaches are measured on their
    // own, with its inputs, so every layer has a number on every workload;
    // they stay out of the replayed sum.
    let transfer = r.transfer(0).to_bytes();
    let sealed = r.seal(&transfer).to_bytes();
    for _ in 0..agents {
        tracer.span("replay.probe", None, |t, id| {
            if !spec.sockets() {
                r.socket_crossing(t, id, &sealed);
            }
            if !spec.access {
                r.stay(t, id);
            }
            t.span("crypto.sha256", Some(id), |_, _| {
                let mut h = Sha256::new();
                h.update(&transfer);
                std::hint::black_box(h.finalize())
            });
        });
    }
    r.sockets.shutdown();
    let median_us = |name: &str| {
        let d = tracer.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e3
        }
    };
    let stages: Vec<(&'static str, f64)> = STAGES.iter().map(|n| (*n, median_us(n))).collect();
    let us_per_agent = stages_per_agent(spec)
        .iter()
        .map(|(name, runs)| median_us(name) * runs)
        .sum();
    let sha_us = median_us("crypto.sha256");
    ReplayResult {
        stages,
        us_per_agent,
        sha256_mb_per_s: transfer.len() as f64 / sha_us,
        transfer_bytes: transfer.len(),
    }
}
