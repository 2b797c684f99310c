//! Integration tests for the real socket transport: authenticated
//! delivery over TCP and Unix-domain sockets, reconnect after a peer
//! restart, hostile-bytes rejection, handshake enforcement, and a clock
//! that keeps wall time on an idle network.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::frame::encode_frame;
use ajanta_net::secure::{ChannelIdentity, HelloAck};
use ajanta_net::time::MILLIS;
use ajanta_net::{
    FrameBuffer, NetAddr, NetError, SecureChannel, SocketConfig, SocketTransport, Stream, Transport,
};
use ajanta_wire::Wire;

struct TestWorld {
    roots: RootOfTrust,
    ca: KeyPair,
    rng: DetRng,
    serial: u64,
}

impl TestWorld {
    fn new(seed: u64) -> TestWorld {
        let mut rng = DetRng::new(seed);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        TestWorld {
            roots,
            ca,
            rng,
            serial: 0,
        }
    }

    fn identity(&mut self, name: &Urn) -> ChannelIdentity {
        let keys = KeyPair::generate(&mut self.rng);
        self.serial += 1;
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            "ca",
            &self.ca,
            u64::MAX,
            self.serial,
            &mut self.rng,
        );
        ChannelIdentity {
            name: name.clone(),
            keys,
            chain: vec![cert],
        }
    }

    fn bind(&mut self, name: &Urn, addr: &NetAddr) -> SocketTransport {
        let identity = self.identity(name);
        let seed = self.rng.next_u64();
        SocketTransport::bind(
            addr,
            SocketConfig {
                identity,
                roots: self.roots.clone(),
                seed,
            },
        )
        .expect("bind")
    }
}

fn server(n: &str) -> Urn {
    Urn::server(format!("{n}.test"), ["s"]).unwrap()
}

fn tcp_any() -> NetAddr {
    "tcp:127.0.0.1:0".parse().unwrap()
}

fn uds_path(tag: &str) -> NetAddr {
    let path = std::env::temp_dir().join(format!("ajanta-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    NetAddr::Uds(path)
}

#[test]
fn tcp_transports_deliver_both_ways() {
    let mut w = TestWorld::new(1);
    let (a_name, b_name) = (server("a"), server("b"));
    let ta = w.bind(&a_name, &tcp_any());
    let tb = w.bind(&b_name, &tcp_any());
    ta.add_route(b_name.clone(), tb.local_addr());
    tb.add_route(a_name.clone(), ta.local_addr());

    let ea = ta.attach(a_name.clone()).unwrap();
    let eb = tb.attach(b_name.clone()).unwrap();

    ea.send(&b_name, b"ping over tcp".to_vec()).unwrap();
    let d = eb.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(d.from, a_name);
    assert_eq!(d.payload, b"ping over tcp");
    assert!(d.arrival_ns > 0, "arrivals carry the wall-epoch clock");

    // Reply dials back through b's own route table.
    eb.send(&d.from, b"pong".to_vec()).unwrap();
    let d = ea.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(d.payload, b"pong");

    // Many frames over the cached connections, in order per direction.
    for i in 0..50u32 {
        ea.send(&b_name, i.to_be_bytes().to_vec()).unwrap();
    }
    for i in 0..50u32 {
        let d = eb.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(d.payload, i.to_be_bytes());
    }
    assert!(tb.stats().messages_delivered >= 51);

    ta.shutdown();
    tb.shutdown();
}

#[cfg(unix)]
#[test]
fn uds_reconnects_after_peer_restart() {
    let mut w = TestWorld::new(2);
    let (a_name, b_name) = (server("ra"), server("rb"));
    let addr_b = uds_path("reconnect");
    let ta = w.bind(&a_name, &uds_path("reconnect-a"));
    let tb = w.bind(&b_name, &addr_b);
    ta.add_route(b_name.clone(), tb.local_addr());

    let ea = ta.attach(a_name.clone()).unwrap();
    let eb = tb.attach(b_name.clone()).unwrap();
    ea.send(&b_name, b"before restart".to_vec()).unwrap();
    assert_eq!(
        eb.recv_timeout(Duration::from_secs(10)).unwrap().payload,
        b"before restart"
    );
    drop(eb);

    // Restart b at the same path: a's cached connection is now dead;
    // the next send must detect the failure and redial.
    tb.shutdown();
    let tb2 = w.bind(&b_name, &addr_b);
    let eb2 = tb2.attach(b_name.clone()).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut delivered = false;
    while std::time::Instant::now() < deadline {
        ea.send(&b_name, b"after restart".to_vec()).unwrap();
        if let Ok(d) = eb2.recv_timeout(Duration::from_millis(500)) {
            assert_eq!(d.payload, b"after restart");
            delivered = true;
            break;
        }
    }
    assert!(delivered, "sends never reconnected to the restarted peer");

    ta.shutdown();
    tb2.shutdown();
}

#[test]
fn unrouted_destination_errors_and_local_loopback_works() {
    let mut w = TestWorld::new(3);
    let a_name = server("solo");
    let ta = w.bind(&a_name, &tcp_any());
    let ea = ta.attach(a_name.clone()).unwrap();

    let ghost = server("ghost");
    assert_eq!(
        ea.send(&ghost, vec![1]),
        Err(NetError::UnknownEndpoint(ghost.clone()))
    );

    // Two endpoints on one transport short-circuit in-process.
    let other = server("other");
    let eo = ta.attach(other.clone()).unwrap();
    ea.send(&other, b"local".to_vec()).unwrap();
    assert_eq!(
        eo.recv_timeout(Duration::from_secs(5)).unwrap().payload,
        b"local"
    );
    ta.shutdown();
}

#[test]
fn garbage_bytes_are_rejected_not_panicked_on() {
    let mut w = TestWorld::new(4);
    let a_name = server("victim");
    let ta = w.bind(&a_name, &tcp_any());
    let rejects = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&rejects);
    ta.on_frame_reject(Arc::new(move |_reason| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let _ea = ta.attach(a_name.clone()).unwrap();

    let NetAddr::Tcp(addr) = ta.local_addr() else {
        panic!("tcp transport");
    };

    // A hostile peer that speaks no handshake at all: an oversize
    // length prefix (10 × 0xFF varint bytes) then junk.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    let mut junk = vec![0xFFu8; 10];
    junk.extend_from_slice(&[0u8; 256]);
    let _ = s.write_all(&junk);
    drop(s);

    // A second hostile peer that closes mid-handshake.
    let s = std::net::TcpStream::connect(addr).unwrap();
    drop(s);

    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while rejects.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        rejects.load(Ordering::SeqCst) >= 2,
        "hostile connections must surface as rejections"
    );
    assert!(ta.stats().messages_delivered == 0);
    ta.shutdown();
}

#[test]
fn untrusted_peers_fail_the_handshake() {
    let mut honest = TestWorld::new(5);
    let b_name = server("guarded");
    let tb = honest.bind(&b_name, &tcp_any());
    let eb = tb.attach(b_name.clone()).unwrap();

    // Mallory has a self-signed world: her CA is not in b's roots.
    let mut mallory = TestWorld::new(6);
    let m_name = server("mallory");
    let tm = mallory.bind(&m_name, &tcp_any());
    tm.add_route(b_name.clone(), tb.local_addr());
    let em = tm.attach(m_name.clone()).unwrap();

    // Send succeeds locally (best-effort datagram semantics) but
    // nothing is ever delivered: the responder rejects the chain.
    em.send(&b_name, b"let me in".to_vec()).unwrap();
    assert!(
        eb.recv_timeout(Duration::from_secs(3)).is_err(),
        "unauthenticated frames must never be delivered"
    );
    tm.shutdown();
    tb.shutdown();
}

/// A bound transport's clock reads the wall: it passes while no frame
/// moves, so proxy leases expire and journal stamps advance on a quiet
/// network.
#[test]
fn idle_transport_clock_keeps_wall_time() {
    let mut w = TestWorld::new(61);
    let t = w.bind(&server("idle"), &tcp_any());
    let before = t.clock().now();
    std::thread::sleep(Duration::from_millis(50));
    let advanced = t.clock().now() - before;
    assert!(
        advanced >= 45 * MILLIS,
        "the clock advanced {:.2} ms over a 50 ms idle sleep",
        advanced as f64 / MILLIS as f64
    );
    t.shutdown();
}

/// `Empty` means "nothing yet", `Disconnected` "never again": a
/// detached socket endpoint still reads what was delivered before the
/// detach, then reports the detach at once, even to a receiver already
/// blocked with a timeout past the clock's range.
#[test]
fn recv_timeout_tells_a_detached_endpoint_from_a_quiet_one() {
    let mut w = TestWorld::new(71);
    let (a_name, b_name, c_name) = (server("det-a"), server("det-b"), server("det-c"));
    let t = w.bind(&a_name, &uds_path("detach"));
    let ea = t.attach(a_name.clone()).unwrap();
    let eb = t.attach(b_name.clone()).unwrap();
    ea.send(&b_name, b"before".to_vec()).unwrap();
    t.detach(&b_name);
    let forever = Duration::MAX;
    assert_eq!(eb.recv_timeout(forever).unwrap().payload, b"before");
    assert_eq!(eb.recv_timeout(forever), Err(NetError::Disconnected));

    let ec = t.attach(c_name.clone()).unwrap();
    std::thread::scope(|s| {
        let blocked = s.spawn(move || ec.recv_timeout(forever));
        std::thread::sleep(Duration::from_millis(20));
        t.detach(&c_name);
        assert_eq!(blocked.join().unwrap(), Err(NetError::Disconnected));
    });
    t.shutdown();
}

/// A transport bound again with its predecessor's seed, as a killed and
/// restarted process is, answers a handshake with fresh randomness: the
/// same Schnorr nonce under two transcripts would give the signing key
/// away.
#[test]
fn rebinding_with_one_seed_answers_with_fresh_handshake_randomness() {
    let mut w = TestWorld::new(81);
    let (a_name, b_name) = (server("reseed-a"), server("reseed-b"));
    let initiator = w.identity(&a_name);
    let responder = w.identity(&b_name);
    let addr = uds_path("reseed");
    let (hello, _) = SecureChannel::initiate(&initiator, &b_name, &mut DetRng::new(3));
    let mut answers = Vec::new();
    for _ in 0..2 {
        let config = SocketConfig {
            identity: responder.clone(),
            roots: w.roots.clone(),
            seed: 7,
        };
        let t = SocketTransport::bind(&addr, config).expect("bind");
        let mut stream = Stream::connect(&t.local_addr()).expect("dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&encode_frame(&hello)).unwrap();
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 4096];
        let ack = loop {
            if let Some(frame) = fb.next_frame().unwrap() {
                break frame;
            }
            let n = stream.read(&mut buf).expect("reading the HelloAck");
            assert!(n > 0, "the responder closed without answering");
            fb.extend(&buf[..n]);
        };
        answers.push(HelloAck::from_bytes(&ack).expect("a HelloAck"));
        t.shutdown();
    }
    assert_ne!(answers[0].dh, answers[1].dh, "DH share repeated");
    assert_ne!(answers[0].sig, answers[1].sig, "signature repeated");
}
