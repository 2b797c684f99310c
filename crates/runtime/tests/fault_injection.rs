//! Fault-injection tests for the fault-tolerant migration layer: agent
//! tours under probabilistic frame loss and per-host blackouts.
//!
//! The invariants under test are the paper's "no orphans" obligations:
//! every launched agent eventually produces a home report (success or
//! `Failed(hop)`), no server ever admits the same (agent, hop) twice no
//! matter how many retry copies arrive, and unreachable itinerary stops
//! are skipped or the agent is recovered home — all visible in the typed
//! telemetry journal.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ajanta_core::Rights;
use ajanta_net::LinkFault;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{Counter, Event, ReportStatus, RetryPolicy, TransportMode, World};
use ajanta_vm::{assemble, AgentImage, Value};

/// A touring agent that migrates with `env.go_tour`, so the runtime
/// knows its remaining stops and can skip unreachable ones. Returns its
/// activation (hop) count from the last stop.
const TOURIST: &str = r#"
    module tourist
    import env.go_tour (bytes, bytes) -> int
    import env.itin_tail (bytes) -> bytes
    global itin: bytes
    global hops: int
    data entry = "run"

    func run(arg: bytes) -> int
      locals full: bytes
      gload hops
      push 1
      add
      gstore hops
      gload itin
      blen
      jz done
      gload itin
      store full
      gload itin
      hostcall env.itin_tail
      gstore itin
      load full
      pushd entry
      hostcall env.go_tour
      drop
      push 0
      ret
    done:
      gload hops
      ret
"#;

/// Builds a tourist image whose carried itinerary is everything *after*
/// the launch leg of `tour` (the runtime drives the launch leg itself).
fn tourist_image(tour: &Itinerary) -> AgentImage {
    let (_, rest) = tour.clone().next_stop();
    let module = assemble(TOURIST).expect("tourist assembles");
    let image = AgentImage {
        module,
        globals: vec![Value::Bytes(rest.encode()), Value::Int(0)],
        entry: "run".into(),
    };
    image.validate().expect("tourist image consistent");
    image
}

/// Asserts that `server`'s journal never admitted the same (agent, hop)
/// pair twice — the idempotent-admission invariant.
fn assert_no_duplicate_admissions(server: &ajanta_runtime::ServerHandle) {
    let mut seen = HashSet::new();
    for record in server.journal().snapshot() {
        if let Event::AgentAdmitted { agent, hop, .. } = record.event {
            assert!(
                seen.insert((agent.clone(), hop)),
                "{}: duplicate admission of {agent} hop {hop}",
                server.name()
            );
        }
    }
}

/// The acceptance scenario: 32 agents tour 5 stops over a link dropping
/// 20% of all frames. Every agent must still report home, no server may
/// double-admit a hop, and the journals must show the recovery machinery
/// actually firing.
#[test]
fn tour_survives_twenty_percent_frame_loss() {
    const AGENTS: usize = 32;
    let mut world = World::builder(6)
        .retry(RetryPolicy {
            // Deep retry budget: with 20% loss an attempt goes unacked
            // with p = 0.36, so 14 attempts make a spurious dead-stop
            // astronomically unlikely while the grace doubling keeps the
            // common path fast.
            max_attempts: 14,
            ack_grace: Duration::from_millis(10),
        })
        .journal_capacity(1 << 16)
        .build();
    let fault = Arc::new(LinkFault::new(0xFA17_0001, 0.20));
    world.net.set_adversary(Some(fault.clone()));

    let mut owner = world.owner("traveler");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new((1..=5).map(|i| world.server(i).name().clone()));
    let mut launched = HashSet::new();
    for _ in 0..AGENTS {
        let agent = owner.next_agent_name("tourist");
        launched.insert(agent.clone());
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, tourist_image(&tour));
    }

    let reports = world
        .server(0)
        .wait_agents(AGENTS, Duration::from_secs(120));
    let reported: HashSet<_> = reports.iter().map(|r| r.agent.clone()).collect();
    assert_eq!(
        reported,
        launched,
        "every launched agent must report home (got {}/{AGENTS})",
        reported.len()
    );

    // The fault actually fired, and the recovery layer visibly worked.
    assert!(fault.dropped_count() > 0, "adversary never dropped a frame");
    let retried: u64 = world
        .servers
        .iter()
        .map(|s| s.journal().counter(Counter::TransfersRetried))
        .sum();
    assert!(retried > 0, "20% loss must force transfer retries");

    // Idempotent admission: no server ever admitted an (agent, hop) twice.
    for server in &world.servers {
        assert_no_duplicate_admissions(server);
    }
    world.shutdown();
}

/// A blacked-out stop in the middle of the tour is skipped: the transfer
/// dead-stops after its retry budget and the agent is forwarded to the
/// next itinerary stop instead of orphaning.
#[test]
fn blackout_stop_is_skipped_not_fatal() {
    const AGENTS: usize = 4;
    let mut world = World::builder(4)
        .retry(RetryPolicy {
            max_attempts: 4,
            ack_grace: Duration::from_millis(10),
        })
        .journal_capacity(1 << 14)
        .build();
    let fault = Arc::new(LinkFault::new(0xFA17_0002, 0.0).with_clock(world.net.clock().clone()));
    // Server 2 is unreachable for the whole run (both directions).
    fault.blackout(world.server(2).name().clone(), 0, u64::MAX);
    world.net.set_adversary(Some(fault.clone()));

    let mut owner = world.owner("detour");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new([
        world.server(1).name().clone(),
        world.server(2).name().clone(),
        world.server(3).name().clone(),
    ]);
    let mut launched = HashSet::new();
    for _ in 0..AGENTS {
        let agent = owner.next_agent_name("tourist");
        launched.insert(agent.clone());
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, tourist_image(&tour));
    }

    let reports = world.server(0).wait_agents(AGENTS, Duration::from_secs(60));
    let reported: HashSet<_> = reports.iter().map(|r| r.agent.clone()).collect();
    assert_eq!(
        reported, launched,
        "every agent reports despite the blackout"
    );

    // The dead stop admitted nobody; the skip machinery journaled.
    assert_eq!(
        world.server(2).journal().counter(Counter::AgentsAdmitted),
        0,
        "blacked-out server must not admit agents"
    );
    assert!(fault.blackout_dropped_count() > 0);
    let skipped: u64 = world
        .servers
        .iter()
        .map(|s| s.journal().counter(Counter::HopsSkipped))
        .sum();
    let recovered: u64 = world
        .servers
        .iter()
        .map(|s| s.journal().counter(Counter::AgentsRecovered))
        .sum();
    assert!(skipped >= AGENTS as u64, "each agent skips the dead stop");
    assert!(recovered >= AGENTS as u64, "each skip journals a recovery");
    for server in &world.servers {
        assert_no_duplicate_admissions(server);
    }
    world.shutdown();
}

/// When the unreachable stop is the *last* one there is nothing to skip
/// to: the agent is recovered home with `Failed(hop)` naming the leg.
#[test]
fn unreachable_final_stop_reports_failed_home() {
    let mut world = World::builder(3)
        .retry(RetryPolicy {
            max_attempts: 3,
            ack_grace: Duration::from_millis(10),
        })
        .build();
    let fault = Arc::new(LinkFault::new(0xFA17_0003, 0.0).with_clock(world.net.clock().clone()));
    fault.blackout(world.server(2).name().clone(), 0, u64::MAX);
    world.net.set_adversary(Some(fault));

    let mut owner = world.owner("stranded");
    let home = world.server(0).name().clone();
    let agent = owner.next_agent_name("tourist");
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    let tour = Itinerary::new([
        world.server(1).name().clone(),
        world.server(2).name().clone(),
    ]);
    world
        .server(0)
        .launch_tour(&tour, creds, tourist_image(&tour));

    let reports = world.server(0).wait_reports(1, Duration::from_secs(30));
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].agent, agent);
    match &reports[0].status {
        ReportStatus::Failed(detail) => {
            assert!(
                detail.contains("hop 1") && detail.contains("lost after"),
                "failure names the dead leg: {detail}"
            );
        }
        other => panic!("expected Failed(hop) report, got {other:?}"),
    }
    // The recovery was journaled where the dead-stop happened (server 1).
    assert_eq!(
        world.server(1).journal().counter(Counter::AgentsRecovered),
        1
    );
    world.shutdown();
}

/// Total loss on the launch leg: every agent's fate still resolves, as
/// a `Failed(hop 0)` report recorded at the home server itself.
#[test]
fn total_loss_resolves_as_failed_hop_zero() {
    const AGENTS: usize = 4;
    let mut world = World::builder(2)
        .retry(RetryPolicy {
            max_attempts: 3,
            ack_grace: Duration::from_millis(10),
        })
        .build();
    let fault = Arc::new(LinkFault::new(0xFA17_0005, 1.0));
    world.net.set_adversary(Some(fault.clone()));
    let mut owner = world.owner("phoenix");
    let home = world.server(0).name().clone();
    let mut launched = HashSet::new();
    for _ in 0..AGENTS {
        let agent = owner.next_agent_name("noop");
        launched.insert(agent.clone());
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world.server(0).launch(
            world.server(1).name().clone(),
            creds,
            tourist_image(&Itinerary::new([world.server(1).name().clone()])),
        );
    }
    let reports = world.server(0).wait_agents(AGENTS, Duration::from_secs(30));
    let reported: HashSet<_> = reports.iter().map(|r| r.agent.clone()).collect();
    assert_eq!(reported, launched);
    for report in &reports {
        assert!(
            matches!(&report.status, ReportStatus::Failed(d) if d.contains("hop 0")),
            "total loss resolves as Failed(hop 0): {:?}",
            report.status
        );
    }
    assert!(fault.dropped_count() >= 3 * AGENTS as u64);
    assert_eq!(world.server(1).resident_agents(), 0);
    assert_eq!(
        world.server(0).journal().counter(Counter::AgentsRecovered),
        AGENTS as u64
    );
    world.shutdown();
}

/// Regression: a socket transport's clock is its wall anchor, and a
/// retry used to push it to a modeled backoff instant later than the
/// grace actually waited — so every timestamp the server stamped
/// afterwards lay in the future. Here the launch's first attempt is
/// lost, the retry gets through, and once the report is home no
/// transport's clock may lead wall time.
#[test]
fn retries_keep_socket_clocks_at_wall_time() {
    let mut world = World::builder(2)
        .transport(TransportMode::Uds)
        .retry(RetryPolicy {
            max_attempts: 5,
            ack_grace: Duration::from_millis(10),
        })
        .build();
    // Server 1 is blacked out until its first frame has been lost.
    let fault = Arc::new(LinkFault::new(0xFA17_0006, 0.0).with_clock(world.net.clock().clone()));
    fault.blackout(world.server(1).name().clone(), 0, u64::MAX);
    world.set_adversary(Some(fault.clone()));

    let mut owner = world.owner("clockwatch");
    let home = world.server(0).name().clone();
    let stop = world.server(1).name().clone();
    let agent = owner.next_agent_name("tourist");
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world
        .server(0)
        .launch(stop.clone(), creds, tourist_image(&Itinerary::new([stop])));
    let deadline = Instant::now() + Duration::from_secs(10);
    while fault.blackout_dropped_count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    world.set_adversary(None);

    let reports = world.server(0).wait_reports(1, Duration::from_secs(30));
    assert_eq!(reports.len(), 1);
    assert!(
        matches!(reports[0].status, ReportStatus::Completed(_)),
        "{:?}",
        reports[0].status
    );
    assert!(world.server(0).journal().counter(Counter::TransfersRetried) >= 1);
    let wall = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64;
    for (i, transport) in world.transports().iter().enumerate() {
        let lead = transport.clock().now().saturating_sub(wall);
        assert!(
            lead <= 2_000_000,
            "transport {i}'s clock leads wall time by {:.2} ms",
            lead as f64 / 1e6
        );
    }
    world.shutdown();
}
