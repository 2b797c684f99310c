//! X16 — cooperative scheduler capacity: resident agents and worker
//! scaling.
//!
//! Before the fuel-sliced scheduler, every executing agent held an OS
//! thread, so "agents resident on one server" was bounded by thread
//! limits long before memory. Now a parked agent is a heap object —
//! cold until its first slice, a suspended interpreter after — and the
//! world runs on a fixed pool. Two sweeps quantify that:
//!
//! * **Resident sweep** (`resident_sweep`): launch N agents at one
//!   server (1k → 100k) and record wall time, throughput normalized per
//!   worker core (**agents/core/s**), peak ready-queue depth, OS thread
//!   count at peak, and — on Linux — RSS growth per agent. The
//!   flat-memory assertion lives here: per-agent memory must stay
//!   bounded (an idle agent costs its image, not a stack), and the OS
//!   thread count must track `workers + servers`, not the agent count.
//! * **Worker sweep** (`worker_sweep`): fixed agent batch, varying pool
//!   width; reports agents/core/s and the p99 ready-queue dwell from
//!   the merged [`HistoPath::ReadyDwell`] histograms — the scheduling
//!   tail X15 covers for the network.
//!
//! Real-time numbers are machine-dependent; the structural assertions
//! (residency, threads, memory slope) are what the in-tree test pins.

use std::time::{Duration, Instant};

use ajanta_core::Rights;
use ajanta_runtime::{HistoPath, RetryPolicy, World};
use ajanta_vm::{assemble, AgentImage, Value};

/// One resident-count measurement.
#[derive(Debug, Clone)]
pub struct ResidentRow {
    /// Agents launched at the single hosting server.
    pub agents: usize,
    /// Scheduler pool width.
    pub workers: usize,
    /// Wall time until every agent reported, ms.
    pub wall_ms: f64,
    /// Completed agents per worker-core per second.
    pub agents_per_core_s: f64,
    /// Peak ready-queue depth observed (sampled during the run).
    pub peak_ready: usize,
    /// OS threads in this process at peak (`/proc/self/status`; 0 when
    /// unavailable).
    pub threads: usize,
    /// RSS growth divided by agent count (`/proc/self/statm`; 0 when
    /// unavailable). The flat-memory-per-idle-agent figure.
    pub bytes_per_agent: f64,
    /// Resident agents left after completion (must be 0).
    pub residue: usize,
}

/// One pool-width measurement.
#[derive(Debug, Clone)]
pub struct WorkerRow {
    /// Scheduler pool width.
    pub workers: usize,
    /// Agents launched.
    pub agents: usize,
    /// Wall time until every agent reported, ms.
    pub wall_ms: f64,
    /// Completed agents per worker-core per second.
    pub agents_per_core_s: f64,
    /// p99 ready-queue dwell (real ns) across the world's servers.
    pub p99_dwell_ns: u64,
}

/// A two-server world on a `workers`-wide pool. The receiving loop acks
/// a launch burst only after admitting all of it, so under the default
/// grace the sender would dead-stop agents that were in fact admitted.
fn two_server_world(workers: usize) -> World {
    World::builder(2)
        .workers(workers)
        .retry(RetryPolicy {
            max_attempts: 5,
            ack_grace: Duration::from_secs(60),
        })
        .build()
}

/// A minimal self-contained agent: burn `iters` loop iterations, return
/// the count. Cheap enough that admission outpaces execution, so the
/// ready queue actually fills with parked agents.
fn spin_agent(iters: i64) -> AgentImage {
    let src = r#"
        module spin
        global iters: int

        func run(arg: bytes) -> int
          locals i: int
          gload iters
          store i
        loop:
          load i
          jz done
          load i
          push 1
          sub
          store i
          jump loop
        done:
          gload iters
          ret
    "#;
    let module = assemble(src).unwrap();
    AgentImage {
        globals: vec![Value::Int(iters)],
        module,
        entry: "run".into(),
    }
}

/// Current resident-set size in bytes, Linux only.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// OS thread count of this process, Linux only.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Launches `n` spin agents from server 0 toward server 1 of `world`,
/// waits for all reports, and samples scheduler depth/threads at peak.
/// Returns (wall_ms, peak_ready, peak_threads, rss_delta_bytes, residue).
fn run_batch(world: &mut World, n: usize, iters: i64) -> (f64, usize, usize, u64, usize) {
    let mut owner = world.owner("sched");
    let home = world.server(0).name().clone();
    let dest = world.server(1).name().clone();
    let rss0 = rss_bytes().unwrap_or(0);
    let t0 = Instant::now();
    let mut peak_ready = 0usize;
    let mut peak_rss = rss0;
    for i in 0..n {
        let agent = owner.next_agent_name("spin");
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch(dest.clone(), creds, spin_agent(iters));
        // Sample occasionally; the launch loop runs concurrently with
        // execution, so this sees the queue near its fullest.
        if i % 256 == 0 {
            peak_ready = peak_ready.max(world.scheduler().depths().ready);
            peak_rss = peak_rss.max(rss_bytes().unwrap_or(0));
        }
    }
    peak_ready = peak_ready.max(world.scheduler().depths().ready);
    peak_rss = peak_rss.max(rss_bytes().unwrap_or(0));
    let threads = os_threads().unwrap_or(0);
    let reports = world.server(0).wait_reports(n, Duration::from_secs(300));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reports.len(), n, "not all agents reported");
    let residue = world.server(1).resident_agents();
    (
        wall_ms,
        peak_ready,
        threads,
        peak_rss.saturating_sub(rss0),
        residue,
    )
}

/// Sweeps the resident-agent count on a fixed-width pool.
pub fn resident_sweep(counts: &[usize], workers: usize, iters: i64) -> Vec<ResidentRow> {
    counts
        .iter()
        .map(|&n| {
            let mut world = two_server_world(workers);
            let (wall_ms, peak_ready, threads, rss_delta, residue) =
                run_batch(&mut world, n, iters);
            world.shutdown();
            ResidentRow {
                agents: n,
                workers,
                wall_ms,
                agents_per_core_s: n as f64 / (wall_ms / 1e3) / workers as f64,
                peak_ready,
                threads,
                bytes_per_agent: rss_delta as f64 / n as f64,
                residue,
            }
        })
        .collect()
}

/// Sweeps the pool width on a fixed agent batch.
pub fn worker_sweep(worker_counts: &[usize], agents: usize, iters: i64) -> Vec<WorkerRow> {
    worker_counts
        .iter()
        .map(|&w| {
            let mut world = two_server_world(w);
            let (wall_ms, _, _, _, residue) = run_batch(&mut world, agents, iters);
            let p99_dwell_ns = world.merged_histos(HistoPath::ReadyDwell).quantile(0.99);
            world.shutdown();
            assert_eq!(residue, 0, "residue after worker sweep");
            WorkerRow {
                workers: w,
                agents,
                wall_ms,
                agents_per_core_s: agents as f64 / (wall_ms / 1e3) / w as f64,
                p99_dwell_ns,
            }
        })
        .collect()
}

/// Renders the resident-count table from measured rows.
pub fn resident_table(rows: &[ResidentRow], iters: i64) -> String {
    let workers = rows.first().map(|r| r.workers).unwrap_or(0);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.agents.to_string(),
                format!("{:.1} ms", r.wall_ms),
                format!("{:.0}", r.agents_per_core_s),
                r.peak_ready.to_string(),
                if r.threads == 0 {
                    "n/a".into()
                } else {
                    r.threads.to_string()
                },
                if r.bytes_per_agent == 0.0 {
                    "n/a".into()
                } else {
                    crate::fmt_bytes(r.bytes_per_agent as u64)
                },
                r.residue.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &format!("X16 — resident agents on {workers} workers ({iters} loop iterations each)"),
        &[
            "agents",
            "wall time",
            "agents/core/s",
            "peak ready",
            "OS threads",
            "mem/agent",
            "residue",
        ],
        &rendered,
    )
}

/// Renders the worker-scaling table from measured rows.
pub fn worker_table(rows: &[WorkerRow], iters: i64) -> String {
    let agents = rows.first().map(|r| r.agents).unwrap_or(0);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{:.1} ms", r.wall_ms),
                format!("{:.0}", r.agents_per_core_s),
                crate::fmt_ns(r.p99_dwell_ns as f64),
            ]
        })
        .collect();
    crate::render_table(
        &format!("X16 — worker scaling ({agents} agents, {iters} loop iterations each)"),
        &["workers", "wall time", "agents/core/s", "p99 ready dwell"],
        &rendered,
    )
}

/// JSON summary of both sweeps, for the CI artifact. Hand-rolled: the
/// repo vendors no serde.
pub fn json_summary(resident: &[ResidentRow], workers: &[WorkerRow]) -> String {
    let mut out = String::from("{\n  \"resident\": [\n");
    for (i, r) in resident.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"agents\": {}, \"workers\": {}, \"wall_ms\": {:.3}, \
             \"agents_per_core_s\": {:.1}, \"peak_ready\": {}, \"threads\": {}, \
             \"bytes_per_agent\": {:.1}, \"residue\": {}}}{}\n",
            r.agents,
            r.workers,
            r.wall_ms,
            r.agents_per_core_s,
            r.peak_ready,
            r.threads,
            r.bytes_per_agent,
            r.residue,
            if i + 1 < resident.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"workers\": [\n");
    for (i, r) in workers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"agents\": {}, \"wall_ms\": {:.3}, \
             \"agents_per_core_s\": {:.1}, \"p99_dwell_ns\": {}}}{}\n",
            r.workers,
            r.agents,
            r.wall_ms,
            r.agents_per_core_s,
            r.p99_dwell_ns,
            if i + 1 < workers.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_agents_stay_cheap() {
        let rows = resident_sweep(&[256, 1024, 4096], 2, 200);
        for r in &rows {
            assert_eq!(r.residue, 0, "{} agents left residue", r.agents);
            // OS threads are bounded by pool + servers + bookkeeping —
            // never by the agent count.
            if r.threads > 0 {
                assert!(
                    r.threads < 64,
                    "{} agents grew the process to {} threads",
                    r.agents,
                    r.threads
                );
            }
        }
        // Flat memory per idle agent: the largest batch must not cost
        // (amortized) more than a loose per-agent ceiling — an OS thread
        // stack alone would blow this by an order of magnitude.
        if let Some(last) = rows.last() {
            if last.bytes_per_agent > 0.0 {
                assert!(
                    last.bytes_per_agent < 64.0 * 1024.0,
                    "{} bytes per resident agent",
                    last.bytes_per_agent
                );
            }
        }
    }

    #[test]
    fn worker_sweep_reports_dwell() {
        let rows = worker_sweep(&[1, 2], 64, 200);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.agents_per_core_s > 0.0);
        }
        let json = json_summary(&[], &rows);
        assert!(json.contains("\"p99_dwell_ns\""));
    }
}
