//! X11 — the threat model exercised end-to-end (paper Section 2).
//!
//! Each attack class from the paper gets a trial: launch `n` agents
//! across an adversarial network and count what got through, what was
//! detected, and what leaked. Expected: tampering/forgery/replay are
//! detected 100%; dropping is silent loss (detectable only by timeout,
//! as the paper notes active deletion "is difficult to prevent
//! altogether"); the eavesdropper captures frames but never the agent's
//! carried secret. The same trials run over Unix-domain sockets, where
//! the sealed datagram is the only protection a frame gets.
//!
//! One more trial replays traffic across a restart: frames captured on
//! their way into server 1 are sent again after server 1 resolved their
//! agents and restarted from its WAL. They must be refused when they
//! are opened, as replays, not left to the custody layer's bounded
//! dedup memory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_net::{Dropper, Eavesdropper, Forger, Replayer, Tamperer};
use ajanta_runtime::{
    Counter, Event, RejectKind, ReportStatus, ServerHandle, TransportMode, World,
};
use ajanta_vm::{assemble, AgentImage, Value};

/// One attack trial's outcome.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Attack class.
    pub attack: &'static str,
    /// Agents launched.
    pub launched: u64,
    /// Agents that completed normally.
    pub completed: u64,
    /// Rejections journaled across both servers (the `Rejections`
    /// counter — exact even past the journal's retention bound).
    pub detections: u64,
    /// Rejections classified as replay-class ([`RejectKind::Replay`])
    /// by the typed journal.
    pub replays: u64,
    /// Attack-specific note.
    pub note: String,
}

/// The carried secret the eavesdropper must never see in plaintext.
pub const SECRET: &[u8] = b"CARRIED-SECRET-4111111111111111";

fn secret_agent() -> AgentImage {
    let src = r#"
        module secretive
        global secret: bytes
        func run(arg: bytes) -> int
          gload secret
          blen
          ret
    "#;
    let module = assemble(src).unwrap();
    AgentImage {
        globals: vec![Value::Bytes(SECRET.to_vec())],
        module,
        entry: "run".into(),
    }
}

fn trial(
    mode: TransportMode,
    attack: &'static str,
    n: u64,
    adversary: Option<Arc<dyn ajanta_net::Adversary>>,
    note_fn: impl FnOnce(&World, u64) -> String,
) -> AttackRow {
    let mut world = World::builder(2).transport(mode).build();
    world.set_adversary(adversary);
    let mut owner = world.owner("victim");
    let home = world.server(0).name().clone();
    for _ in 0..n {
        let agent = owner.next_agent_name("secretive");
        let creds = owner.credentials(agent, home.clone(), ajanta_core::Rights::all(), u64::MAX);
        world
            .server(0)
            .launch(world.server(1).name().clone(), creds, secret_agent());
    }
    // Let everything settle: either n reports arrive or we time out
    // (expected under active attacks).
    let reports = world
        .server(0)
        .wait_reports(n as usize, Duration::from_secs(5));
    let completed = reports
        .iter()
        .filter(|r| matches!(r.status, ReportStatus::Completed(_)))
        .count() as u64;
    // Typed telemetry instead of string-matched event kinds: the
    // aggregate comes from O(1) counters, the replay classification from
    // matching journal records on their `RejectKind` variant.
    let (mut detections, mut replays) = (0u64, 0u64);
    for i in [0, 1] {
        detections += world.server(i).journal().counter(Counter::Rejections);
        replays += rejected(world.server(i), RejectKind::Replay);
    }
    let note = note_fn(&world, completed);
    world.shutdown();
    AttackRow {
        attack,
        launched: n,
        completed,
        detections,
        replays,
        note,
    }
}

/// Rejections of `kind` in `server`'s journal.
fn rejected(server: &ServerHandle, kind: RejectKind) -> u64 {
    server
        .journal()
        .snapshot()
        .iter()
        .filter(|r| matches!(&r.event, Event::Rejected { kind: k, .. } if *k == kind))
        .count() as u64
}

/// Runs all attack trials with `n` agents each, on the simulation.
pub fn run(n: u64) -> Vec<AttackRow> {
    run_over(TransportMode::Sim, n)
}

/// Runs all attack trials with `n` agents each over `mode`.
pub fn run_over(mode: TransportMode, n: u64) -> Vec<AttackRow> {
    let mut rows = Vec::new();

    rows.push(trial(mode, "none (control)", n, None, |_, _| {
        "all reports arrive".into()
    }));

    let eve = Arc::new(Eavesdropper::new());
    {
        let eve2 = Arc::clone(&eve);
        rows.push(trial(mode, "eavesdrop (passive)", n, Some(eve2), |_, _| {
            String::new()
        }));
        let last = rows.last_mut().expect("just pushed");
        last.note = format!(
            "{} frames captured; carried secret visible: {}",
            eve.frame_count(),
            if eve.saw_plaintext(SECRET) {
                "YES (leak!)"
            } else {
                "no"
            }
        );
    }

    let tamperer = Arc::new(Tamperer::new(0xBAD, 1.0));
    {
        let t2 = Arc::clone(&tamperer);
        rows.push(trial(mode, "tamper (active)", n, Some(t2), |_, _| {
            String::new()
        }));
        let last = rows.last_mut().expect("just pushed");
        last.note = format!("{} frames modified", tamperer.tampered_count());
    }

    let forger = Arc::new(Forger::new(0xF0E));
    {
        let f2 = Arc::clone(&forger);
        rows.push(trial(mode, "forge (active)", n, Some(f2), |_, _| {
            String::new()
        }));
        let last = rows.last_mut().expect("just pushed");
        last.note = format!(
            "{} forgeries injected; genuine traffic still delivered",
            forger.forged_count()
        );
    }

    let replayer = Arc::new(Replayer::new());
    {
        let r2 = Arc::clone(&replayer);
        rows.push(trial(mode, "replay (active)", n, Some(r2), |_, _| {
            String::new()
        }));
        let last = rows.last_mut().expect("just pushed");
        last.note = format!("{} replays injected", replayer.replayed_count());
    }

    let dropper = Arc::new(Dropper::new(0xD0, 1.0));
    {
        let d2 = Arc::clone(&dropper);
        rows.push(trial(
            mode,
            "drop (active deletion)",
            n,
            Some(d2),
            |_, _| String::new(),
        ));
        let last = rows.last_mut().expect("just pushed");
        last.note = format!(
            "{} messages deleted; loss is silent (timeout-detectable only)",
            dropper.dropped_count()
        );
    }

    rows
}

/// Polls `done` every 5 ms until it holds or `limit` passes.
fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Replay across a restart (seeded by `seed`): `n` agents visit server
/// 1 while an eavesdropper captures every frame server 0 sends it (the
/// `Transfer`s and the acks of server 1's reports). Once server 1 has
/// resolved every admission in its WAL, it restarts from the WAL and the
/// captured frames are sent to it again. Each must be refused when it is
/// opened, as a replay; none may reach custody's dedup, admission or the
/// WAL. A fresh agent launched afterwards still completes.
pub fn restart_replay(n: u64, seed: u64) -> AttackRow {
    let dir = std::env::temp_dir().join(format!(
        "ajanta-x11-restart-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the WAL directory");
    let mut world = World::builder(2).seed(seed).wal_dir(&dir).build();
    let eve = Arc::new(Eavesdropper::new());
    world.set_adversary(Some(eve.clone()));
    let mut owner = world.owner("victim");
    let home = world.server(0).name().clone();
    let stop = world.server(1).name().clone();
    let launch = |world: &World, owner: &mut ajanta_runtime::Owner| {
        let agent = owner.next_agent_name("secretive");
        let creds = owner.credentials(agent, home.clone(), ajanta_core::Rights::all(), u64::MAX);
        world.server(0).launch(stop.clone(), creds, secret_agent());
    };
    for _ in 0..n {
        launch(&world, &mut owner);
    }
    let completed = world
        .server(0)
        .wait_reports(n as usize, Duration::from_secs(10))
        .iter()
        .filter(|r| matches!(r.status, ReportStatus::Completed(_)))
        .count() as u64;
    // Every report acked: server 1's WAL resolves every admission.
    wait_until(Duration::from_secs(10), || {
        world.server(1).in_flight_agents().is_empty()
    });
    world.set_adversary(None);
    let captured: Vec<_> = eve
        .captured()
        .into_iter()
        .filter(|(from, to, _)| *from == home && *to == stop)
        .collect();

    world.restart_server(1);
    for (from, to, bytes) in &captured {
        world
            .net
            .send_as(from, to, bytes.clone())
            .expect("replaying a frame");
    }
    let replays = || rejected(world.server(1), RejectKind::Replay);
    wait_until(Duration::from_secs(10), || {
        replays() >= captured.len() as u64
    });
    let server = world.server(1);
    let (replays, duplicates) = (replays(), rejected(server, RejectKind::DuplicateHop));
    let detections = server.journal().counter(Counter::Rejections);
    let (admitted, wal_replayed) = server
        .journal()
        .snapshot()
        .iter()
        .fold((0, 0), |(a, w), r| match r.event {
            Event::AgentAdmitted { .. } => (a + 1, w),
            Event::WalReplayed { .. } => (a, w + 1),
            _ => (a, w),
        });

    // The restarted server still serves: server 0's next launch rides a
    // session server 1 refuses, and the retry opens a fresh one.
    launch(&world, &mut owner);
    let fresh = world
        .server(0)
        .wait_reports(n as usize + 1, Duration::from_secs(10));
    let fresh_done = fresh.len() as u64 > n
        && matches!(
            fresh.last().map(|r| &r.status),
            Some(ReportStatus::Completed(_))
        );
    let sessions = world.server(0).journal().counter(Counter::SessionsOpened);
    world.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    AttackRow {
        attack: "replay across restart",
        launched: n,
        completed,
        detections,
        replays,
        note: format!(
            "{} captured frames replayed into the restarted server: {replays} refused at \
             open as replays, {duplicates} left to custody dedup, {admitted} admitted, \
             {wal_replayed} re-admitted from the WAL; server 0 opened {sessions} sessions \
             to server 1 in all; a fresh agent afterwards {}",
            captured.len(),
            if fresh_done {
                "completes"
            } else {
                "DOES NOT complete"
            }
        ),
    }
}

/// Renders the table: every trial on the simulation, the replay across
/// a restart, then every trial again over Unix-domain sockets.
pub fn table(n: u64) -> String {
    let mut rows: Vec<(&str, AttackRow)> = run(n).into_iter().map(|r| ("sim", r)).collect();
    rows.push(("sim", restart_replay(n, 0x0711)));
    rows.extend(
        run_over(TransportMode::Uds, n)
            .into_iter()
            .map(|r| ("uds", r)),
    );
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|(net, r)| {
            vec![
                net.to_string(),
                r.attack.to_string(),
                r.launched.to_string(),
                r.completed.to_string(),
                r.detections.to_string(),
                r.replays.to_string(),
                r.note.clone(),
            ]
        })
        .collect();
    crate::render_table(
        &format!("X11 — threat model, {n} agents per trial"),
        &[
            "net",
            "attack",
            "launched",
            "completed",
            "rejections",
            "replay-class",
            "notes",
        ],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_completes_and_attacks_are_detected() {
        let rows = run(3);
        let by = |n: &str| rows.iter().find(|r| r.attack.starts_with(n)).unwrap();

        assert_eq!(by("none").completed, 3);
        assert_eq!(by("none").detections, 0);

        // Passive: everything completes, nothing leaks.
        let eve = by("eavesdrop");
        assert_eq!(eve.completed, 3);
        assert!(eve.note.contains("visible: no"), "{}", eve.note);

        // Tampering: nothing completes, every frame detected.
        let tamper = by("tamper");
        assert_eq!(tamper.completed, 0);
        assert!(tamper.detections >= 3);

        // Forgery: genuine agents still complete; forgeries detected.
        let forge = by("forge");
        assert_eq!(forge.completed, 3);
        assert!(forge.detections >= 3);

        // Replay: originals complete; replays rejected as events, and the
        // typed journal files them under the replay class specifically.
        let replay = by("replay");
        assert_eq!(replay.completed, 3);
        assert!(replay.detections >= 3);
        assert!(
            replay.replays >= 3,
            "replay detections should be replay-class, got {replay:?}"
        );

        // The control run journals no replay-class rejections at all.
        assert_eq!(by("none").replays, 0);

        // Dropping: silent loss.
        let drop = by("drop");
        assert_eq!(drop.completed, 0);
    }
}
