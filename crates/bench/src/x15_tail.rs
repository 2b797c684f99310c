//! X15 — the retry tail: mean vs p99 hop latency under frame loss.
//!
//! The X13f sweep showed the recovery layer keeps *resolution* at 100%
//! under loss; this experiment shows what that resolution costs in the
//! latency *distribution*. A mean hides the price almost completely —
//! the retried minority of hops pay one or more full `ack_grace`
//! doublings while the majority are untouched — so the story only
//! appears in the tail: p99 hop latency grows several times faster
//! than the mean. The numbers come from the lock-free
//! log₂ histograms every server keeps (`HistoPath::HopLatency`,
//! `TransferRtt`, `RetryBackoff`), merged across the world — exactly
//! what a deployment's metrics scrape would see.
//!
//! Virtual-time quantities: exact and seed-reproducible.

use std::sync::Arc;
use std::time::Duration;

use ajanta_core::{HistoPath, HistoSnapshot};
use ajanta_net::LinkFault;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{RetryPolicy, World};
use ajanta_workloads::payload_agent;

/// Latency-tail measurements for one drop probability.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// Per-frame drop probability.
    pub drop_prob: f64,
    /// Merged end-to-end hop-latency histogram (virtual ns).
    pub hop: HistoSnapshot,
    /// Merged transfer-RTT histogram (virtual ns).
    pub rtt: HistoSnapshot,
    /// Merged retry-backoff histogram (virtual ns).
    pub backoff: HistoSnapshot,
}

/// One trial: `agents` agents on a `stops`-stop tour at `drop_prob`,
/// retries on; returns the world-merged histograms.
fn trial(agents: usize, stops: usize, drop_prob: f64, seed: u64) -> TailRow {
    let mut world = World::builder(stops + 1)
        .journal_capacity(1 << 16)
        .retry(RetryPolicy {
            max_attempts: 14,
            ack_grace: Duration::from_millis(10),
        })
        .build();
    let fault = Arc::new(LinkFault::new(seed, drop_prob));
    world.net.set_adversary(Some(fault));

    let mut owner = world.owner("fleet");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new((1..=stops).map(|i| world.server(i).name().clone()));
    let (_, carried) = tour.clone().next_stop();
    for _ in 0..agents {
        let agent = owner.next_agent_name("tourist");
        let creds = owner.credentials(agent, home.clone(), ajanta_core::Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, payload_agent(64, &carried));
    }

    world
        .server(0)
        .wait_agents(agents, Duration::from_secs(120));

    let row = TailRow {
        drop_prob,
        hop: world.merged_histos(HistoPath::HopLatency),
        rtt: world.merged_histos(HistoPath::TransferRtt),
        backoff: world.merged_histos(HistoPath::RetryBackoff),
    };
    world.shutdown();
    row
}

/// Each drop probability runs this many rounds on one seed, and the
/// round with the fewest retry backoffs is kept. The ack grace is real
/// time, so a loaded host can fire a spurious retry in any round; the
/// quietest round shows what the link alone costs.
pub const ROUNDS: usize = 3;

/// Sweeps drop probabilities (retries always on — the tail of a working
/// system, not a broken one), keeping the quietest of [`ROUNDS`] rounds
/// per probability.
pub fn run(agents: usize, stops: usize, drop_probs: &[f64]) -> Vec<TailRow> {
    drop_probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            (0..ROUNDS)
                .map(|_| trial(agents, stops, p, 0x15_00 + i as u64))
                .min_by_key(|row| row.backoff.count)
                .expect("at least one round")
        })
        .collect()
}

fn cell(s: &HistoSnapshot) -> [String; 3] {
    [
        crate::fmt_ns(s.mean()),
        crate::fmt_ns(s.quantile(0.99) as f64),
        crate::fmt_ns(s.max as f64),
    ]
}

/// Renders the table.
pub fn table(agents: usize, stops: usize, drop_probs: &[f64]) -> String {
    let rows = run(agents, stops, drop_probs);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let hop = cell(&r.hop);
            let rtt = cell(&r.rtt);
            let mut v = vec![format!("{:.0}%", r.drop_prob * 100.0)];
            v.extend(hop);
            v.extend(rtt);
            v.push(r.backoff.count.to_string());
            v.push(crate::fmt_ns(r.backoff.sum as f64));
            v
        })
        .collect();
    crate::render_table(
        &format!(
            "X15 — retry tail (virtual time), {agents} agents × {stops}-stop tour, retries on, quietest of {ROUNDS} rounds"
        ),
        &[
            "drop",
            "hop mean",
            "hop p99",
            "hop max",
            "rtt mean",
            "rtt p99",
            "rtt max",
            "backoffs",
            "backoff total",
        ],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_inflates_the_tail_much_more_than_the_mean() {
        let rows = run(8, 3, &[0.0, 0.25]);
        let clean = &rows[0];
        let lossy = &rows[1];

        // Both trials measured real hops (counts can differ slightly:
        // a dead-stopped leg skips its stop's admission).
        assert!(clean.hop.count > 0);
        assert!(lossy.hop.count > 0);

        // A lossy link must back off. (A clean link *mostly* doesn't,
        // but the ack grace is real time while delivery latency is
        // virtual, so a heavily loaded host can fire spurious retries —
        // don't assert zero.)
        assert!(lossy.backoff.count > 0, "25% loss must retry");

        // The tail story: under loss p99 hop latency strictly exceeds
        // the clean p99 (each retry adds ≥ one 10ms ack_grace to a
        // ~1ms hop), and the lossy distribution is visibly skewed —
        // p99 well above its own mean.
        assert!(
            lossy.hop.quantile(0.99) > clean.hop.quantile(0.99),
            "lossy p99 {} !> clean p99 {}",
            lossy.hop.quantile(0.99),
            clean.hop.quantile(0.99)
        );
        assert!(
            (lossy.hop.quantile(0.99) as f64) > 2.0 * lossy.hop.mean(),
            "retry tail should dominate the mean: p99 {} mean {}",
            lossy.hop.quantile(0.99),
            lossy.hop.mean()
        );
    }
}
