//! In-process control-plane integration: a two-server `World` fronted
//! by one `ControlServer` on an ephemeral TCP port. Every answer
//! obtained over the socket must match `serve_request` computed
//! directly on the same views, the journal must page through the
//! cursor protocol without unexplained gaps, and a revocation issued
//! through `revoke_everywhere` must land in every server's journal.
//! (The UDS flavor of the listener is exercised end-to-end by the
//! cross-process suite.)

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

use ajanta_core::Rights;
use ajanta_naming::Urn;
use ajanta_net::NetAddr;
use ajanta_runtime::control::serve_request;
use ajanta_runtime::{
    AgentState, ControlClient, ControlRequest, ControlResponse, ControlServer, Counter,
    JournalFollower, World, CONTROL_VERSION,
};
use ajanta_vm::{assemble, AgentImage};

const WAIT: Duration = Duration::from_secs(20);

/// Polls its mailbox until something arrives — idle enough to
/// auto-hibernate under the world's miss threshold, and the subject of
/// the remote hibernate/wake round trip either way.
const WAITER: &str = r#"
    module waiter
    import env.recv () -> bytes

    func run(arg: bytes) -> int
      wait:
      hostcall env.recv
      blen
      jz wait
      push 0
      ret
"#;

fn waiter_image() -> AgentImage {
    let module = assemble(WAITER).expect("waiter assembles");
    let image = AgentImage {
        globals: module.initial_globals(),
        module,
        entry: "run".into(),
    };
    image.validate().expect("waiter image is consistent");
    image
}

#[test]
fn control_socket_over_tcp_matches_in_process_answers() {
    let mut world = World::builder(2).hibernation(16).build();
    let mut owner = world.owner("ops");
    let agent = owner.next_agent_name("waiter");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, waiter_image());

    let views = world.control_views();
    let ctl = ControlServer::serve(
        &NetAddr::Tcp(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
        views.clone(),
    )
    .expect("bind control socket on an ephemeral port");
    let mut client = ControlClient::connect(ctl.addr()).expect("connect to control socket");

    // Health names every server behind the socket.
    match client.call(&ControlRequest::Health).unwrap() {
        ControlResponse::Health { version, servers } => {
            assert_eq!(version, CONTROL_VERSION);
            assert_eq!(servers.len(), 2);
            assert!(servers.contains(world.server(0).name()));
            assert!(servers.contains(world.server(1).name()));
        }
        other => panic!("unexpected health response {other:?}"),
    }

    // The waiter idles through the miss threshold and spills; once
    // hibernated the world is quiescent and answers are stable.
    let deadline = Instant::now() + WAIT;
    loop {
        let listed = match client.call(&ControlRequest::ListAgents).unwrap() {
            ControlResponse::Agents(list) => list,
            other => panic!("unexpected list response {other:?}"),
        };
        if listed
            .iter()
            .any(|a| a.agent == agent && a.state == AgentState::Hibernated)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "waiter never hibernated; last listing: {listed:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Remote answers equal local `serve_request` answers verbatim.
    for req in [
        ControlRequest::ListAgents,
        ControlRequest::Status,
        ControlRequest::Metrics,
        ControlRequest::AgentInfo {
            agent: agent.clone(),
        },
        ControlRequest::JournalTail {
            cursor: None,
            max: 1000,
        },
        ControlRequest::Logs { tail: 10 },
    ] {
        let remote = client.call(&req).unwrap();
        let local = serve_request(&views, &req);
        assert_eq!(remote, local, "remote/local mismatch for {req:?}");
    }

    // The detail record reflects the launch.
    match client
        .call(&ControlRequest::AgentInfo {
            agent: agent.clone(),
        })
        .unwrap()
    {
        ControlResponse::Agent(Some(detail)) => {
            assert_eq!(detail.entry.agent, agent);
            assert_eq!(detail.entry.server, *world.server(1).name());
        }
        other => panic!("unexpected info response {other:?}"),
    }
    let ghost: Urn = "ajn://users.org/agent/ops/nobody".parse().unwrap();
    assert_eq!(
        client
            .call(&ControlRequest::AgentInfo { agent: ghost })
            .unwrap(),
        ControlResponse::Agent(None)
    );

    // Page the whole journal through the cursor protocol: dense seq
    // per server, zero unexplained gaps, and the next page after
    // exhaustion is empty.
    let mut follower = JournalFollower::new();
    let mut entries = 0usize;
    loop {
        let pages = match client.call(&follower.request(64)).unwrap() {
            ControlResponse::Journal(pages) => pages,
            other => panic!("unexpected journal response {other:?}"),
        };
        let mut fresh = 0usize;
        for page in &pages {
            fresh += follower.ingest(page).len();
        }
        if fresh == 0 {
            break;
        }
        entries += fresh;
    }
    assert_eq!(follower.unexplained_gaps, 0, "journal seq must be dense");
    assert!(entries > 0, "the launch must have journaled something");

    // Hibernate is idempotent on an already-spilled agent; wake restores
    // residency.
    assert_eq!(
        client
            .call(&ControlRequest::Hibernate {
                agent: agent.clone(),
            })
            .unwrap(),
        ControlResponse::Ack(true)
    );
    assert_eq!(
        client
            .call(&ControlRequest::Wake {
                agent: agent.clone(),
            })
            .unwrap(),
        ControlResponse::Ack(true)
    );
    // The wake revived the bundle. The idle waiter may spill again at
    // once (this world hibernates after 16 empty polls), so the bundle
    // store's size right now is not part of the check.
    assert_eq!(
        world.server(1).journal().counter(Counter::AgentsWoken),
        1,
        "the wake must revive the stored bundle"
    );
    assert_eq!(world.server(1).resident_agents(), 1);

    // Fleet-wide revocation reaches every server's journal, live grants
    // or not.
    let resource: Urn = "ajn://tour.org/resource/jobs".parse().unwrap();
    let (_proxies, servers) =
        ajanta_runtime::control::revoke_everywhere(std::slice::from_ref(ctl.addr()), &resource)
            .expect("revocation fan-out");
    assert_eq!(servers, 2, "both servers must process the revocation");
    let pages = match client
        .call(&ControlRequest::JournalTail {
            cursor: None,
            max: 100,
        })
        .unwrap()
    {
        ControlResponse::Journal(pages) => pages,
        other => panic!("unexpected journal response {other:?}"),
    };
    assert_eq!(pages.len(), 2);
    for page in &pages {
        assert!(
            page.entries.iter().any(|e| e.label == "proxy-revoke"),
            "server {} journal must record the revocation",
            page.server
        );
    }

    ctl.shutdown();
    world.shutdown();
}
