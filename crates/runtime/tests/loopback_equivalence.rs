//! Transport-seam equivalence: the same seeded tour produces identical
//! agent outcomes and equivalent journal lifecycles whether the world
//! runs over the in-process simulation or over real TCP sockets on
//! localhost. Timing (virtual vs wall nanoseconds) differs by design;
//! *what happened* must not.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use ajanta_core::{BoundedBuffer, Guarded, ProxyPolicy, Rights};
use ajanta_naming::Urn;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::multiproc::tourist_image;
use ajanta_runtime::{Event, RetryPolicy, TransportMode, World};

const AGENTS: usize = 8;
const STOPS: usize = 3;
const SEED: u64 = 0x10_0B_AC_4E;

/// What one world run *did*, stripped of all timing: per-agent report
/// statuses, and per-agent sorted lifecycle events tagged with the
/// server that journaled them.
struct RunShape {
    outcomes: BTreeMap<String, Vec<String>>,
    lifecycle: BTreeMap<String, BTreeSet<String>>,
}

fn run_tour(mode: TransportMode) -> RunShape {
    let mut world = World::builder(STOPS + 1)
        .seed(SEED)
        .transport(mode)
        // Generous ack grace: neither virtual nor wall-clock latency
        // should ever trip a spurious dead-stop in a lossless run.
        .retry(RetryPolicy {
            ack_grace: Duration::from_millis(500),
            ..RetryPolicy::default()
        })
        .journal_capacity(1 << 14)
        .build();

    for i in 1..=STOPS {
        let buf = BoundedBuffer::new(
            Urn::resource("tour.org", ["jobs"]).unwrap(),
            Urn::owner("tour.org", ["admin"]).unwrap(),
            2 * AGENTS,
        );
        world
            .server(i)
            .register_resource(Guarded::new(buf, ProxyPolicy::default()))
            .unwrap();
    }

    let mut owner = world.owner("traveler");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new((1..=STOPS).map(|i| world.server(i).name().clone()));
    let mut launched = BTreeSet::new();
    for _ in 0..AGENTS {
        let agent = owner.next_agent_name("hopper");
        launched.insert(agent.clone());
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, tourist_image(&tour));
    }

    let reports = world.server(0).wait_agents(AGENTS, Duration::from_secs(90));

    let mut outcomes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in &reports {
        outcomes
            .entry(r.agent.to_string())
            .or_default()
            .push(format!("{:?}", r.status));
    }
    for statuses in outcomes.values_mut() {
        statuses.sort();
    }

    // Project every server's journal down to the mode-independent
    // lifecycle facts: who was dispatched where, who was admitted at
    // which hop, who reported — each tagged with the journaling server.
    let mut lifecycle: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut push = |agent: &Urn, what: String| {
        lifecycle.entry(agent.to_string()).or_default().insert(what);
    };
    for server in &world.servers {
        let at = server.name().clone();
        for record in server.journal().snapshot() {
            match &record.event {
                Event::AgentDispatched { agent, dest } => {
                    push(agent, format!("{at} dispatched toward {dest}"));
                }
                Event::AgentAdmitted { agent, hop, .. } => {
                    push(agent, format!("{at} admitted hop {hop}"));
                }
                Event::AgentReported { agent, .. } => {
                    push(agent, format!("{at} recorded report"));
                }
                _ => {}
            }
        }
    }
    lifecycle.retain(|agent, _| launched.contains(&agent.parse::<Urn>().unwrap()));

    world.shutdown();
    RunShape {
        outcomes,
        lifecycle,
    }
}

#[test]
fn sim_and_tcp_worlds_agree_on_the_same_seeded_tour() {
    let sim = run_tour(TransportMode::Sim);
    let tcp = run_tour(TransportMode::Tcp);

    assert_eq!(sim.outcomes.len(), AGENTS, "sim world lost reports");
    assert_eq!(
        sim.outcomes, tcp.outcomes,
        "agent outcomes must not depend on the transport"
    );
    assert_eq!(
        sim.lifecycle, tcp.lifecycle,
        "journal lifecycles must not depend on the transport"
    );
    // And the shape is the expected one: every agent admitted once per
    // stop, dispatched from home, reported back home.
    for (agent, events) in &sim.lifecycle {
        let admissions = events.iter().filter(|e| e.contains("admitted")).count();
        assert_eq!(admissions, STOPS, "{agent}: {events:?}");
        assert!(events.iter().any(|e| e.contains("recorded report")));
    }
}
