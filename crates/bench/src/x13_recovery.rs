//! X13f — fault-tolerant migration under injected frame loss.
//!
//! A fleet of touring agents crosses a link that drops each frame with
//! probability `p`. Measured: how many agents' fates *resolve* at the
//! home server (a completion or a `Failed(hop)` recovery report), plus
//! the recovery machinery's own counters — retries, skipped hops,
//! recovered agents — straight from the typed journals.
//!
//! The headline: resolution stays at 100% while the retry counters
//! absorb the loss.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_net::LinkFault;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{Counter, ReportStatus, RetryPolicy, World};
use ajanta_workloads::payload_agent;

/// One drop-probability trial.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Per-frame drop probability.
    pub drop_prob: f64,
    /// Agents launched on the tour.
    pub launched: u64,
    /// Agents whose fate resolved at home (any report at all).
    pub resolved: u64,
    /// Resolved as completed tours.
    pub completed: u64,
    /// Resolved as `Failed(hop)` recoveries.
    pub failed: u64,
    /// `TransfersRetried` summed over all servers.
    pub transfers_retried: u64,
    /// `HopsSkipped` summed over all servers.
    pub hops_skipped: u64,
    /// `AgentsRecovered` summed over all servers.
    pub agents_recovered: u64,
    /// Frames the adversary deleted.
    pub frames_dropped: u64,
    /// Wall-clock time for the trial, ms.
    pub wall_ms: f64,
}

/// Runs one trial: `agents` agents over a `stops`-stop tour at `drop_prob`.
fn trial(agents: usize, stops: usize, drop_prob: f64, seed: u64) -> RecoveryRow {
    let mut world = World::builder(stops + 1)
        .journal_capacity(1 << 16)
        .retry(RetryPolicy {
            max_attempts: 12,
            ack_grace: Duration::from_millis(10),
        })
        .build();
    let fault = Arc::new(LinkFault::new(seed, drop_prob));
    world.net.set_adversary(Some(fault.clone()));

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

    // Every fate resolves, so wait for all agents.
    let reports = world
        .server(0)
        .wait_agents(agents, Duration::from_secs(120));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut seen = HashSet::new();
    let (mut completed, mut failed) = (0u64, 0u64);
    for r in &reports {
        if !seen.insert(r.agent.clone()) {
            continue;
        }
        match &r.status {
            ReportStatus::Completed(_) => completed += 1,
            ReportStatus::Failed(_) => failed += 1,
            _ => {}
        }
    }
    let sum = |c: Counter| -> u64 { world.servers.iter().map(|s| s.journal().counter(c)).sum() };
    let row = RecoveryRow {
        drop_prob,
        launched: agents as u64,
        resolved: seen.len() as u64,
        completed,
        failed,
        transfers_retried: sum(Counter::TransfersRetried),
        hops_skipped: sum(Counter::HopsSkipped),
        agents_recovered: sum(Counter::AgentsRecovered),
        frames_dropped: fault.dropped_count(),
        wall_ms,
    };
    world.shutdown();
    row
}

/// Sweeps drop probabilities.
pub fn run(agents: usize, stops: usize, drop_probs: &[f64]) -> Vec<RecoveryRow> {
    drop_probs
        .iter()
        .enumerate()
        .map(|(i, &p)| trial(agents, stops, p, 0x13F0 + i as u64))
        .collect()
}

/// Renders the table.
pub fn table(agents: usize, stops: usize, drop_probs: &[f64]) -> String {
    let rows = run(agents, stops, drop_probs);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.drop_prob * 100.0),
                r.launched.to_string(),
                format!(
                    "{} ({:.0}%)",
                    r.resolved,
                    100.0 * r.resolved as f64 / r.launched as f64
                ),
                r.completed.to_string(),
                r.failed.to_string(),
                r.transfers_retried.to_string(),
                r.hops_skipped.to_string(),
                r.agents_recovered.to_string(),
                r.frames_dropped.to_string(),
                format!("{:.0} ms", r.wall_ms),
            ]
        })
        .collect();
    crate::render_table(
        &format!("X13f — fault recovery, {agents} agents × {stops}-stop tour"),
        &[
            "drop",
            "launched",
            "resolved",
            "completed",
            "failed",
            "retried",
            "skipped",
            "recovered",
            "dropped",
            "wall",
        ],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_restores_full_resolution_under_loss() {
        let rows = run(8, 3, &[0.0, 0.2]);
        let (clean, lossy) = (&rows[0], &rows[1]);

        assert_eq!(clean.resolved, 8, "{clean:?}");
        assert_eq!(clean.frames_dropped, 0);

        // Lossy link: every fate resolves and the journals show the
        // machinery that did it.
        assert_eq!(lossy.resolved, lossy.launched, "{lossy:?}");
        assert!(lossy.frames_dropped > 0);
        assert!(lossy.transfers_retried > 0);
    }
}
