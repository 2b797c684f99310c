//! X17 — transport comparison: hop latency over the simulation vs real
//! sockets on the same machine.
//!
//! The same seeded tour runs over three transports behind the seam:
//! the in-process [`SimNet`](ajanta_net::SimNet), TCP on localhost, and
//! Unix-domain sockets. The simulation reports *virtual* nanoseconds
//! from its link model — exact and machine-independent; the socket
//! rows report *wall-clock* nanoseconds for the identical protocol work
//! (seal, frame, handshake-cached socket write, open, admit), so the
//! two columns answer different questions: the sim row is the modeled
//! cost, the socket rows are what this hardware actually pays. Lossless
//! links: this experiment measures the transport floor, not the retry
//! tail (X15 covers that).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ajanta_core::{HistoPath, HistoSnapshot};
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{RetryPolicy, TransportMode, World};
use ajanta_workloads::payload_agent;

/// Hop-latency measurements for one transport.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// Which transport the world ran over.
    pub mode: TransportMode,
    /// Merged end-to-end hop-latency histogram (virtual ns for sim,
    /// wall ns for sockets).
    pub hop: HistoSnapshot,
    /// Merged transfer-RTT histogram (same units as `hop`).
    pub rtt: HistoSnapshot,
    /// Distinct agents that reported home.
    pub reported: usize,
    /// Wall-clock time for the whole tour, ns.
    pub wall_ns: u64,
}

/// One trial: `agents` agents on a `stops`-stop lossless tour over
/// `mode`; returns the world-merged histograms.
fn trial(agents: usize, stops: usize, mode: TransportMode, seed: u64) -> TransportRow {
    let mut world = World::builder(stops + 1)
        .seed(seed)
        .transport(mode)
        .journal_capacity(1 << 16)
        // Wall-clock ack grace large enough that a loaded host never
        // fires a spurious retry into the latency numbers.
        .retry(RetryPolicy {
            ack_grace: Duration::from_millis(500),
            ..RetryPolicy::default()
        })
        .build();

    let mut owner = world.owner("fleet");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new((1..=stops).map(|i| world.server(i).name().clone()));
    let (_, carried) = tour.clone().next_stop();
    let t0 = Instant::now();
    for _ in 0..agents {
        let agent = owner.next_agent_name("tourist");
        let creds = owner.credentials(agent, home.clone(), ajanta_core::Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, payload_agent(64, &carried));
    }

    let reports = world
        .server(0)
        .wait_agents(agents, Duration::from_secs(120));
    let reported = reports
        .iter()
        .map(|r| &r.agent)
        .collect::<HashSet<_>>()
        .len();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    // The last report can land before the acks of earlier legs, which
    // ride other connections: read the histograms once every reliable
    // frame is acked, so the RTT column counts every leg.
    let deadline = Instant::now() + Duration::from_secs(5);
    while world.servers.iter().any(|s| s.pending_send_count() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let row = TransportRow {
        mode,
        hop: world.merged_histos(HistoPath::HopLatency),
        rtt: world.merged_histos(HistoPath::TransferRtt),
        reported,
        wall_ns,
    };
    world.shutdown();
    row
}

/// Runs the tour over every transport mode.
pub fn run(agents: usize, stops: usize) -> Vec<TransportRow> {
    let modes: &[TransportMode] = if cfg!(unix) {
        &[TransportMode::Sim, TransportMode::Tcp, TransportMode::Uds]
    } else {
        &[TransportMode::Sim, TransportMode::Tcp]
    };
    modes
        .iter()
        .map(|&mode| trial(agents, stops, mode, 0x17_00))
        .collect()
}

fn label(mode: TransportMode) -> &'static str {
    match mode {
        TransportMode::Sim => "sim (virtual ns)",
        TransportMode::Tcp => "tcp loopback",
        TransportMode::Uds => "uds",
    }
}

/// Renders the table.
pub fn table(agents: usize, stops: usize) -> String {
    let rows = run(agents, stops);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                label(r.mode).to_string(),
                format!("{}/{agents}", r.reported),
                crate::fmt_ns(r.hop.mean()),
                crate::fmt_ns(r.hop.quantile(0.50) as f64),
                crate::fmt_ns(r.hop.quantile(0.99) as f64),
                crate::fmt_ns(r.hop.max as f64),
                crate::fmt_ns(r.rtt.mean()),
                crate::fmt_ns(r.rtt.quantile(0.99) as f64),
                crate::fmt_ns(r.wall_ns as f64),
            ]
        })
        .collect();
    crate::render_table(
        &format!(
            "X17 — transport comparison, {agents} agents × {stops}-stop tour, lossless \
             (sim row: virtual time; socket rows: wall time)"
        ),
        &[
            "transport",
            "reported",
            "hop mean",
            "hop p50",
            "hop p99",
            "hop max",
            "rtt mean",
            "rtt p99",
            "tour wall",
        ],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_transport_resolves_the_tour_and_measures_hops() {
        for row in run(4, 2) {
            assert_eq!(row.reported, 4, "{}: agents lost", label(row.mode));
            assert!(row.hop.count > 0, "{}: no hops measured", label(row.mode));
            assert!(row.rtt.count > 0, "{}: no rtts measured", label(row.mode));
            assert!(
                row.hop.quantile(0.99) >= row.hop.quantile(0.50),
                "{}: quantiles out of order",
                label(row.mode)
            );
        }
    }
}
