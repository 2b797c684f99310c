//! Substrate costs: hash, MAC, signatures, VM dispatch and the wire
//! codec — the building blocks every experiment's cost decomposes into
//! — and what a sealed datagram costs, one-shot and on a session.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{sha256, DetRng, HmacSha256, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{ReplayGuard, SealedDatagram, Session};
use ajanta_vm::{
    verify, Interpreter, Limits, Module, ModuleBuilder, NoHost, Op, Ty, Value, VerifiedModule,
};
use ajanta_wire::Wire;

/// Iterations of the VM probe's countdown loop per call.
pub const VM_LOOP_ITERS: i64 = 1_000;

/// One operation's cost.
#[derive(Debug, Clone)]
pub struct SubstrateRow {
    /// Operation.
    pub op: String,
    /// Bytes one call processes (0 where size does not apply).
    pub bytes: usize,
    /// Mean cost, ns.
    pub ns: f64,
}

/// Mean ns per call of `f` over `iters` calls.
fn mean_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `run(n)`: count `n` down to zero, return 0.
fn countdown_module() -> Arc<VerifiedModule> {
    let mut mb = ModuleBuilder::new("loop");
    mb.function(
        "run",
        [Ty::Int],
        [Ty::Int],
        Ty::Int,
        vec![
            Op::Load(0),
            Op::Store(1),
            Op::Load(1),
            Op::JumpIfZero(9),
            Op::Load(1),
            Op::PushI(1),
            Op::Sub,
            Op::Store(1),
            Op::Jump(2),
            Op::PushI(0),
            Op::Ret,
        ],
    );
    Arc::new(verify(mb.build()).expect("countdown verifies"))
}

/// Measures each operation `iters` times.
pub fn run(iters: u64) -> Vec<SubstrateRow> {
    let row = |op: &str, bytes: usize, ns: f64| SubstrateRow {
        op: op.to_string(),
        bytes,
        ns,
    };
    let mut rows = Vec::new();
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        rows.push(row("sha256", size, mean_ns(iters, || sha256(&data))));
        rows.push(row(
            "hmac-sha256",
            size,
            mean_ns(iters, || HmacSha256::mac(b"key", &data)),
        ));
    }

    let mut rng = DetRng::new(1);
    let kp = KeyPair::generate(&mut rng);
    let sig = kp.sign(b"msg", &mut rng);
    rows.push(row("sign", 0, mean_ns(iters, || kp.sign(b"msg", &mut rng))));
    rows.push(row(
        "verify",
        0,
        mean_ns(iters, || {
            ajanta_crypto::sig::verify(&kp.public, b"msg", &sig).expect("signature verifies")
        }),
    ));

    let vm = countdown_module();
    rows.push(row(
        &format!("vm loop ({VM_LOOP_ITERS} iterations)"),
        0,
        mean_ns(iters, || {
            Interpreter::new(Arc::clone(&vm), Limits::default()).run(
                "run",
                vec![Value::Int(VM_LOOP_ITERS)],
                &mut NoHost,
            )
        }),
    ));

    let module = vm.module().clone();
    rows.push(row(
        "module wire round trip",
        module.to_bytes().len(),
        mean_ns(iters, || {
            Module::from_bytes(&module.to_bytes()).expect("module decodes")
        }),
    ));
    rows
}

/// Two certified server identities, `a` and `b`, and the roots that
/// trust their CA: the parties of a datagram measurement.
pub fn datagram_parties(rng: &mut DetRng) -> (RootOfTrust, ChannelIdentity, ChannelIdentity) {
    let ca = KeyPair::generate(rng);
    let mut roots = RootOfTrust::new();
    roots.trust("ca", ca.public);
    let mut party = |host: &str, serial| {
        let name = Urn::server(host, [host]).expect("canonical server name");
        let keys = KeyPair::generate(rng);
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            "ca",
            &ca,
            u64::MAX,
            serial,
            rng,
        );
        ChannelIdentity {
            name,
            keys,
            chain: vec![cert],
        }
    };
    let a = party("a.org", 1);
    let b = party("b.org", 2);
    (roots, a, b)
}

/// Payload sizes the datagram rows seal: an ack, a `tour` transfer and
/// a `uds` transfer.
pub const DATAGRAM_SIZES: [usize; 3] = [60, 675, 4_500];

/// Seal + encode + decode + open of one datagram, per [`DATAGRAM_SIZES`]
/// entry: as a session of one frame (a fresh Diffie–Hellman share,
/// signature, chain check and signature check each time), and as the
/// next frame of a session the receiver has cached.
pub fn datagram_rows(iters: u64) -> Vec<SubstrateRow> {
    let mut rng = DetRng::new(2);
    let (roots, a, b) = datagram_parties(&mut rng);
    let mut rows = Vec::new();
    for size in DATAGRAM_SIZES {
        let payload = vec![0x5Au8; size];
        let round = |guard: &mut ReplayGuard, d: SealedDatagram| {
            let d = SealedDatagram::from_bytes(&d.to_bytes()).expect("datagram decodes");
            guard
                .open(&d, &b, &b.keys, &roots, 1)
                .expect("datagram opens")
        };
        let mut guard = ReplayGuard::since(0);
        let one_shot = mean_ns(iters, || {
            let d = SealedDatagram::seal(&a, &b.name, b.keys.public, &payload, 1, &mut rng);
            round(&mut guard, d)
        });
        let mut guard = ReplayGuard::since(0);
        let session = Session::new(&a, &b.name, b.keys.public, 0, 1, u64::MAX, &mut rng);
        round(&mut guard, session.seal(&payload, 1));
        let on_session = mean_ns(iters, || round(&mut guard, session.seal(&payload, 1)));
        rows.push(SubstrateRow {
            op: "datagram seal+open, one-shot".into(),
            bytes: size,
            ns: one_shot,
        });
        rows.push(SubstrateRow {
            op: "datagram seal+open, on a session".into(),
            bytes: size,
            ns: on_session,
        });
    }
    rows
}

/// Renders the tables: the primitives, then the datagram rows.
pub fn table(iters: u64) -> String {
    let mut out = render("Substrate — primitive costs", iters, &run(iters));
    out.push_str(&render(
        "Substrate — datagram seal+open",
        iters,
        &datagram_rows(iters),
    ));
    out
}

fn render(title: &str, iters: u64, rows: &[SubstrateRow]) -> String {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (input, throughput) = if r.bytes == 0 {
                ("-".to_string(), "-".to_string())
            } else {
                // Bytes per ns is GB/s.
                let mb_per_s = r.bytes as f64 / r.ns * 1_000.0;
                (
                    crate::fmt_bytes(r.bytes as u64),
                    format!("{mb_per_s:.0} MB/s"),
                )
            };
            vec![r.op.clone(), input, crate::fmt_ns(r.ns), throughput]
        })
        .collect();
    crate::render_table(
        &format!("{title} ({iters} iterations)"),
        &["operation", "input", "mean cost", "throughput"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_is_timed_and_hashing_scales_with_input() {
        let rows = run(20);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.ns > 0.0), "{rows:?}");
        let sha = |bytes| {
            rows.iter()
                .find(|r| r.op == "sha256" && r.bytes == bytes)
                .expect("sha256 row")
                .ns
        };
        assert!(sha(65536) > sha(64), "{rows:?}");
        let text = table(5);
        assert!(text.contains("module wire round trip"));
    }

    /// Every size gets a one-shot and a session row, and a small frame
    /// on a cached session costs less than a one-shot, which pays the
    /// public-key operations. (At 4.5 KB the keystream and MAC dominate
    /// a debug build, so only the smallest size is compared.)
    #[test]
    fn session_frames_skip_the_public_key_cost() {
        // Retry a few times: wall-clock comparisons are noisy while the
        // rest of the workspace's tests share the CPUs.
        let mut last = Vec::new();
        for _ in 0..4 {
            let rows = datagram_rows(50);
            assert_eq!(rows.len(), 2 * DATAGRAM_SIZES.len());
            for (pair, size) in rows.chunks(2).zip(DATAGRAM_SIZES) {
                assert_eq!((pair[0].bytes, pair[1].bytes), (size, size));
                assert!(pair.iter().all(|r| r.ns > 0.0), "{pair:?}");
            }
            if rows[1].ns < rows[0].ns {
                return;
            }
            last = rows;
        }
        panic!("a 60 B session frame never undercut a one-shot: {last:?}");
    }
}
