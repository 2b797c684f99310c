//! X18 — wire data plane: the coalescing socket send path under a burst.
//!
//! A 32-sender burst pushes small frames from one [`SocketTransport`]
//! to another over a real loopback connection; the per-peer writer
//! coalesces everything queued into one stream write per wakeup.
//! EXPERIMENTS.md records what that bought over one write per frame
//! (2.15–2.18× the frames/s).
//!
//! Reported per row: wall time for the burst, frames/s, the write()
//! count, and the mean frames-per-write the transport's own coalescing
//! counters observed. All numbers are wall-clock and machine-dependent.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{NetAddr, NetStats, SocketConfig, SocketTransport, Transport, TransportKind};

/// One burst measurement over one transport.
#[derive(Debug, Clone)]
pub struct WirePathRow {
    /// TCP loopback or Unix-domain.
    pub kind: TransportKind,
    /// Concurrent sender threads.
    pub senders: usize,
    /// Frames the burst sent.
    pub frames_sent: u64,
    /// Frames the far side received before the deadline.
    pub frames_received: u64,
    /// Wall time from first send to last receive, ns.
    pub wall_ns: u64,
    /// Stream writes the sending transport issued for the burst.
    pub write_syscalls: u64,
    /// Frames those writes carried in total.
    pub frames_coalesced: u64,
}

impl WirePathRow {
    /// Received frames per wall-clock second.
    pub fn frames_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.frames_received as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Mean frames carried per stream write.
    pub fn mean_frames_per_write(&self) -> f64 {
        if self.write_syscalls == 0 {
            return 0.0;
        }
        self.frames_coalesced as f64 / self.write_syscalls as f64
    }
}

/// Mints certified channel identities off one deterministic CA, same
/// shape as the runtime's world builder.
struct Authority {
    roots: RootOfTrust,
    ca: KeyPair,
    rng: DetRng,
    serial: u64,
}

impl Authority {
    fn new(seed: u64) -> Authority {
        let mut rng = DetRng::new(seed);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        Authority {
            roots,
            ca,
            rng,
            serial: 0,
        }
    }

    fn bind(&mut self, name: &Urn, addr: &NetAddr) -> SocketTransport {
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
        let identity = ChannelIdentity {
            name: name.clone(),
            keys,
            chain: vec![cert],
        };
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

/// A fresh listen address; UDS paths carry a per-process counter so
/// trials running at once (parallel tests) never share a socket file.
fn listen_addr(kind: TransportKind, tag: &str) -> NetAddr {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TRIAL: AtomicU64 = AtomicU64::new(0);
    match kind {
        TransportKind::Tcp => "tcp:127.0.0.1:0".parse().unwrap(),
        TransportKind::Uds => {
            let n = TRIAL.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("ajanta-x18-{tag}-{}-{n}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            NetAddr::Uds(path)
        }
        TransportKind::Sim => unreachable!("x18 measures real sockets"),
    }
}

/// One burst: `senders` threads each fire `per_sender` sealed frames of
/// `payload_len` bytes at the far transport; the receiver drains until
/// all arrive (or a generous deadline passes — the transport is lossy
/// by contract, so the row records what actually landed).
fn trial(kind: TransportKind, senders: usize, per_sender: u64, payload_len: usize) -> WirePathRow {
    let mut auth = Authority::new(0x18_00 + kind as u64);
    let a_name = Urn::server("x18-a.test", ["s"]).unwrap();
    let b_name = Urn::server("x18-b.test", ["s"]).unwrap();
    let ta = Arc::new(auth.bind(&a_name, &listen_addr(kind, "a")));
    let tb = auth.bind(&b_name, &listen_addr(kind, "b"));
    ta.add_route(b_name.clone(), tb.local_addr());
    tb.add_route(a_name.clone(), ta.local_addr());
    let eb = tb.attach(b_name.clone()).unwrap();

    // Warm the connection: dial + handshake happen once, outside the
    // timed region, exactly as a long-lived server pair would have them.
    ta.send_as(&a_name, &b_name, vec![0u8; payload_len])
        .unwrap();
    eb.recv_timeout(Duration::from_secs(10)).expect("warmup");
    settled_stats(&ta, 1);
    ta.reset_stats();

    let total = senders as u64 * per_sender;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..senders)
        .map(|_| {
            let ta = Arc::clone(&ta);
            let (from, to) = (a_name.clone(), b_name.clone());
            std::thread::spawn(move || {
                for _ in 0..per_sender {
                    ta.send_as(&from, &to, vec![7u8; payload_len]).unwrap();
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut received = 0u64;
    while received < total {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match eb.recv_timeout(left.min(Duration::from_millis(500))) {
            Ok(_) => received += 1,
            Err(_) if Instant::now() >= deadline => break,
            Err(_) => {}
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    for h in handles {
        let _ = h.join();
    }
    let stats = settled_stats(&ta, received);
    ta.shutdown();
    tb.shutdown();

    WirePathRow {
        kind,
        senders,
        frames_sent: total,
        frames_received: received,
        wall_ns,
        write_syscalls: stats.write_syscalls,
        frames_coalesced: stats.frames_coalesced,
    }
}

/// `t`'s counters once they account for `frames` written frames. The
/// writer thread counts a batch after its write returns, which can be
/// after the far side has already read it; reading at once could miss
/// the batch (or, after the warmup, count it in the burst).
fn settled_stats(t: &SocketTransport, frames: u64) -> NetStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = t.stats();
        if stats.frames_coalesced >= frames || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs the burst over TCP (and UDS where available).
pub fn run(senders: usize, per_sender: u64, payload_len: usize) -> Vec<WirePathRow> {
    let kinds: &[TransportKind] = if cfg!(unix) {
        &[TransportKind::Tcp, TransportKind::Uds]
    } else {
        &[TransportKind::Tcp]
    };
    kinds
        .iter()
        .map(|&kind| trial(kind, senders, per_sender, payload_len))
        .collect()
}

/// Renders the table.
pub fn table(rows: &[WirePathRow], senders: usize, per_sender: u64, payload_len: usize) -> String {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kind.as_str().to_string(),
                format!("{}/{}", r.frames_received, r.frames_sent),
                crate::fmt_ns(r.wall_ns as f64),
                format!("{:.0}", r.frames_per_s()),
                r.write_syscalls.to_string(),
                format!("{:.1}", r.mean_frames_per_write()),
            ]
        })
        .collect();
    crate::render_table(
        &format!(
            "X18 — wire data plane, {senders} senders × {per_sender} frames × \
             {payload_len} B payload (wall time)"
        ),
        &[
            "transport",
            "received",
            "burst wall",
            "frames/s",
            "writes",
            "frames/write",
        ],
        &rendered,
    )
}

/// Machine-readable summary for the CI artifact (`X18_JSON=<path>`).
pub fn json_summary(rows: &[WirePathRow]) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"senders\": {}, \
             \"frames_sent\": {}, \"frames_received\": {}, \"wall_ms\": {:.3}, \
             \"frames_per_s\": {:.1}, \"write_syscalls\": {}, \
             \"mean_frames_per_write\": {:.2}}}{}\n",
            r.kind.as_str(),
            r.senders,
            r.frames_sent,
            r.frames_received,
            r.wall_ns as f64 / 1e6,
            r.frames_per_s(),
            r.write_syscalls,
            r.mean_frames_per_write(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Small burst: everything lands, the counters account for every
    /// frame, and no write carries less than one frame.
    #[test]
    fn burst_lands_and_counters_balance() {
        for row in run(4, 16, 64) {
            let label = row.kind.as_str();
            assert_eq!(
                row.frames_received, row.frames_sent,
                "{label}: frames lost on loopback"
            );
            assert!(row.write_syscalls > 0, "{label}: no writes observed");
            assert_eq!(
                row.frames_coalesced, row.frames_sent,
                "{label}: coalescing counters missed frames"
            );
            assert!(
                row.write_syscalls <= row.frames_sent,
                "{label}: more writes than frames"
            );
        }
    }

    #[test]
    fn distinct_transports_reported() {
        let rows = run(2, 4, 32);
        let kinds: HashSet<&str> = rows.iter().map(|r| r.kind.as_str()).collect();
        assert!(kinds.contains("tcp"));
        if cfg!(unix) {
            assert!(kinds.contains("uds"));
        }
        let json = json_summary(&rows);
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"mean_frames_per_write\""));
    }
}
