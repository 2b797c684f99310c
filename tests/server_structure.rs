//! X1 — the Ajanta server structure of paper Fig. 1, exercised as a
//! whole: agent environment, domain database, resource registry, agent
//! transfer, proxies, and the host monitor all cooperating.

use std::sync::Arc;
use std::time::Duration;

use ajanta::core::{BoundedBuffer, Guarded, ProxyPolicy, Rights, UsageLimits};
use ajanta::naming::Urn;
use ajanta::runtime::{Counter, ReportStatus, World};
use ajanta::vm::{assemble, AgentImage, Value};

/// An agent that exercises every Fig. 1 component in one visit:
/// environment primitives (log/time/here), registry binding (proxy),
/// resource use, and departure.
const FULL_TOUR: &str = r#"
    module fulltour
    import env.log (bytes) -> int
    import env.here () -> bytes
    import env.time () -> int
    import env.self_name () -> bytes
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes, bytes) -> bytes
    import env.args_b (bytes) -> bytes
    import env.args0 () -> bytes
    import env.res_int (bytes) -> int
    data rname = "ajn://site1.org/resource/jobs"
    data mput = "put"
    data msize = "size"
    data item = "payload"

    func run(arg: bytes) -> int
      locals h: int
      hostcall env.self_name
      hostcall env.log
      drop
      hostcall env.here
      hostcall env.log
      drop
      hostcall env.time
      itoa
      hostcall env.log
      drop
      pushd rname
      hostcall env.get_resource
      store h
      load h
      pushd mput
      pushd item
      hostcall env.args_b
      hostcall env.invoke
      drop
      load h
      pushd msize
      hostcall env.args0
      hostcall env.invoke
      hostcall env.res_int
      ret
"#;

#[test]
fn figure_1_components_cooperate() {
    let mut world = World::builder(2)
        .agent_limits(UsageLimits {
            max_bindings: 4,
            ..Default::default()
        })
        .build();

    // Resource registry (Fig. 1 right side).
    let buffer = BoundedBuffer::new(
        Urn::resource("site1.org", ["jobs"]).unwrap(),
        Urn::owner("site1.org", ["admin"]).unwrap(),
        8,
    );
    world
        .server(1)
        .register_resource(Guarded::new(Arc::clone(&buffer), ProxyPolicy::default()))
        .unwrap();
    assert_eq!(world.server(1).resources().len(), 1);

    // Credentials + agent transfer (Fig. 1 bottom).
    let mut owner = world.owner("alice");
    let agent = owner.next_agent_name("fulltour");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    let module = assemble(FULL_TOUR).unwrap();
    let image = AgentImage {
        globals: module.initial_globals(),
        module,
        entry: "run".into(),
    };
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, image);

    // Completion report through the home site.
    let reports = world.server(0).wait_reports(1, Duration::from_secs(10));
    assert_eq!(reports[0].status, ReportStatus::Completed("1".into()));

    // Agent environment primitives all ran (three log lines).
    let logs = world.server(1).logs_tail(usize::MAX);
    assert_eq!(logs.len(), 3);
    assert_eq!(logs[0].1, agent.to_string());
    assert!(logs[1].1.starts_with("ajn://site1.org/server"));
    // Virtual timestamp parses.
    logs[2].1.parse::<u64>().unwrap();

    // Domain database: admitted exactly one agent; empty after departure.
    let journal = world.server(1).journal();
    assert_eq!(journal.counter(Counter::AgentsAdmitted), 1);
    assert_eq!(world.server(1).resident_agents(), 0);

    // The reference monitor audited system operations (thread creation,
    // registry mutation).
    assert!(journal.counter(Counter::AuditAllowed) + journal.counter(Counter::AuditDenied) >= 2);

    // The host operating system's resources (the buffer) saw the effect.
    use ajanta::core::Buffer;
    assert_eq!(buffer.size(), 1);

    world.shutdown();
}

#[test]
fn status_queries_reflect_live_agents() {
    // An agent blocks in a bounded recv loop while we query the domain DB
    // through the handle.
    let mut world = World::new(2);
    let src = r#"
        module lingerer
        import env.recv () -> bytes
        global tries: int

        func run(arg: bytes) -> int
        loop:
          hostcall env.recv
          blen
          jz again
          push 1
          ret
        again:
          gload tries
          push 1
          add
          gstore tries
          gload tries
          push 300000
          lt
          jz giveup
          jump loop
        giveup:
          push 0
          ret
    "#;
    let mut owner = world.owner("watcher");
    let agent = owner.next_agent_name("lingerer");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    let module = assemble(src).unwrap();
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        AgentImage {
            globals: vec![Value::Int(0)],
            module,
            entry: "run".into(),
        },
    );

    // While resident, the count is visible.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut seen_resident = false;
    while std::time::Instant::now() < deadline {
        if world.server(1).resident_agents() == 1 {
            seen_resident = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(seen_resident, "the agent never showed up in the domain DB");

    // Let it finish (it gives up on its own) and verify eviction.
    let reports = world.server(0).wait_reports(1, Duration::from_secs(30));
    assert_eq!(reports.len(), 1);
    assert_eq!(world.server(1).resident_agents(), 0);
    world.shutdown();
}
