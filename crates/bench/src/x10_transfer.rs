//! X10 — agent transfer cost vs. mobile-state size.
//!
//! The transfer pipeline per hop: image serialization → sealing
//! (SHA-CTR + HMAC, after a session's one ephemeral DH and signature) →
//! link transit →
//! open → credential re-verification → byte-code re-verification →
//! admission. This experiment sweeps the carried state size and also
//! micro-measures the crypto share so EXPERIMENTS.md can report how the
//! security cost amortizes as agents grow.

use std::time::Instant;

use ajanta_crypto::DetRng;
use ajanta_net::{LinkModel, ReplayGuard, SealedDatagram};
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::World;
use ajanta_wire::Wire;
use ajanta_workloads::payload_agent;

/// One state size's measurements.
#[derive(Debug, Clone)]
pub struct TransferRow {
    /// Carried state bytes.
    pub state_bytes: usize,
    /// Encoded image size.
    pub image_bytes: usize,
    /// Bytes on the wire for the full round (launch + hop + report).
    pub wire_bytes: u64,
    /// Virtual end-to-end time, ms.
    pub virtual_ms: f64,
    /// Real (wall) end-to-end time, ms — includes crypto & verification.
    pub wall_ms: f64,
    /// Micro: seal+open cost for a payload of the image's size, ns.
    pub crypto_ns: f64,
}

/// Sweeps the given state sizes (one hop each).
pub fn run(sizes: &[usize]) -> Vec<TransferRow> {
    sizes
        .iter()
        .map(|&state_bytes| {
            let mut world = World::builder(2).link(LinkModel::wan()).build();
            let mut owner = world.owner("carrier");
            let agent = owner.next_agent_name("payload");
            let home = world.server(0).name().clone();
            let creds = owner.credentials(agent, home, ajanta_core::Rights::all(), u64::MAX);
            let itinerary = Itinerary::default(); // land at server 1, stop
            let image = payload_agent(state_bytes, &itinerary);
            let image_bytes = image.encoded_len();

            world.net.reset_stats();
            let t0v = world.net.clock().now();
            let t0w = Instant::now();
            world
                .server(0)
                .launch(world.server(1).name().clone(), creds, image);
            let reports = world
                .server(0)
                .wait_reports(1, std::time::Duration::from_secs(30));
            assert_eq!(reports.len(), 1);
            let wall_ms = t0w.elapsed().as_secs_f64() * 1e3;
            let virtual_ms = (world.net.clock().now() - t0v) as f64 / 1e6;
            let stats = world.net.stats();
            world.shutdown();

            TransferRow {
                state_bytes,
                image_bytes,
                wire_bytes: stats.bytes_delivered,
                virtual_ms,
                wall_ms,
                crypto_ns: crypto_cost_ns(image_bytes),
            }
        })
        .collect()
}

/// Micro: seal + open for a payload of `size` bytes, one-shot: each
/// datagram is a session of one frame, so this is the cost of a
/// session's first frame.
pub fn crypto_cost_ns(size: usize) -> f64 {
    let mut rng = DetRng::new(0xC0DE);
    let (roots, a, b) = crate::substrate::datagram_parties(&mut rng);
    let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();

    let iters = 20u32;
    let start = Instant::now();
    for i in 0..iters {
        let d = SealedDatagram::seal(&a, &b.name, b.keys.public, &payload, u64::from(i), &mut rng);
        let bytes = d.to_bytes();
        let d2 = SealedDatagram::from_bytes(&bytes).unwrap();
        let mut guard = ReplayGuard::new(u64::MAX / 4);
        d2.open(&b, &b.keys, &roots, u64::from(i), &mut guard)
            .unwrap();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Renders the table.
pub fn table(sizes: &[usize]) -> String {
    let rows = run(sizes);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                crate::fmt_bytes(r.state_bytes as u64),
                crate::fmt_bytes(r.image_bytes as u64),
                crate::fmt_bytes(r.wire_bytes),
                format!("{:.2} ms", r.virtual_ms),
                format!("{:.2} ms", r.wall_ms),
                crate::fmt_ns(r.crypto_ns),
            ]
        })
        .collect();
    crate::render_table(
        "X10 — transfer cost vs mobile-state size (one hop, WAN link)",
        &[
            "carried state",
            "image size",
            "bytes on wire",
            "virtual time",
            "wall time",
            "seal+open (crypto share)",
        ],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_linearly_with_state() {
        let rows = run(&[0, 50_000]);
        assert!(rows[1].image_bytes > rows[0].image_bytes + 49_000);
        assert!(rows[1].wire_bytes > rows[0].wire_bytes + 49_000);
        // Virtual time grows with serialization over the WAN's bandwidth.
        assert!(rows[1].virtual_ms > rows[0].virtual_ms);
    }

    #[test]
    fn crypto_share_shrinks_relatively() {
        // Per-byte crypto cost is roughly flat, so the crypto share of a
        // bigger transfer is not disproportionately larger.
        let small = crypto_cost_ns(1_000);
        let large = crypto_cost_ns(100_000);
        assert!(
            large < small * 300.0,
            "crypto cost blew up: {small} -> {large}"
        );
    }
}
