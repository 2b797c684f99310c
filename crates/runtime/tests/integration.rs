//! End-to-end runtime tests: the full pipeline of paper Fig. 1 —
//! launch, secure transfer, admission, protection domains, proxy-mediated
//! resource access, migration, reports, attacks.

use std::sync::Arc;
use std::time::Duration;

use ajanta_core::{
    BoundedBuffer, Buffer, Guarded, PrincipalPattern, ProxyPolicy, Rights, SecurityPolicy,
    UsageLimits,
};
use ajanta_naming::Urn;
use ajanta_net::Tamperer;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{Counter, Event, RejectKind, ReportStatus, TransportMode, World};
use ajanta_vm::{assemble, AgentImage, Limits, Value};
use ajanta_wire::Wire;

const WAIT: Duration = Duration::from_secs(10);

/// The kinds of the rejections server `i` journaled.
fn rejections(world: &World, i: usize) -> Vec<RejectKind> {
    world
        .server(i)
        .journal()
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::Rejected { kind, .. } => Some(kind),
            _ => None,
        })
        .collect()
}

/// Agents server `i` admitted over its lifetime.
fn admitted(world: &World, i: usize) -> u64 {
    world.server(i).journal().counter(Counter::AgentsAdmitted)
}

/// Builds an image from assembly source and initial globals.
fn image(src: &str, globals: Vec<Value>, entry: &str) -> AgentImage {
    let module = assemble(src).expect("test agent assembles");
    let image = AgentImage {
        module,
        globals,
        entry: entry.into(),
    };
    image.validate().expect("test agent image is consistent");
    image
}

/// A trivial agent: logs a greeting and returns 7.
const HELLO: &str = r#"
    module hello
    import env.log (bytes) -> int
    import env.here () -> bytes
    data greeting = "hello from "

    func run(arg: bytes) -> int
      pushd greeting
      hostcall env.here
      bconcat
      hostcall env.log
      drop
      push 7
      ret
"#;

#[test]
fn launch_execute_report() {
    let mut world = World::new(2);
    let mut owner = world.owner("alice");
    let agent = owner.next_agent_name("hello");
    let home = world.server(0).name().clone();
    let dest = world.server(1).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);

    world
        .server(0)
        .launch(dest, creds, image(HELLO, vec![], "run"));

    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].agent, agent);
    assert_eq!(reports[0].server, *world.server(1).name());
    assert_eq!(reports[0].status, ReportStatus::Completed("7".into()));

    // The greeting was logged at server 1 under the agent's name.
    let logs = world.server(1).logs_tail(usize::MAX);
    assert_eq!(logs.len(), 1);
    assert_eq!(logs[0].0, agent);
    assert!(logs[0].1.starts_with("hello from ajn://site1.org"));

    // The visiting agent has departed; no residue.
    assert_eq!(world.server(1).resident_agents(), 0);
    assert_eq!(admitted(&world, 1), 1);
    world.shutdown();
}

/// A touring agent: counts hops, following an itinerary carried in a
/// global, then reports the hop count from the final stop.
const TOUR: &str = r#"
    module tour
    import env.log (bytes) -> int
    import env.here () -> bytes
    import env.go (bytes, bytes) -> int
    import env.itin_head (bytes) -> bytes
    import env.itin_tail (bytes) -> bytes
    global itin: bytes
    global hops: int
    data entry = "run"

    func run(arg: bytes) -> int
      locals next: bytes
      hostcall env.here
      hostcall env.log
      drop
      gload hops
      push 1
      add
      gstore hops
      gload itin
      blen
      jz done
      gload itin
      hostcall env.itin_head
      store next
      gload itin
      hostcall env.itin_tail
      gstore itin
      load next
      pushd entry
      hostcall env.go
      drop
      push 0
      ret
    done:
      gload hops
      ret
"#;

/// After a server's first frame to a peer, sending needs no directory
/// lookup: with the peer's directory entry replaced by one that no
/// longer verifies, a second agent still travels there and back on the
/// sessions the first one opened.
#[test]
fn steady_state_sends_need_no_directory_lookup() {
    let mut world = World::new(2);
    let mut owner = world.owner("olga");
    let home = world.server(0).name().clone();
    let dest = world.server(1).name().clone();
    for round in 1..=2 {
        if round == 2 {
            let wrong = world.directory.certificate(&home).unwrap();
            world.directory.publish(dest.clone(), wrong);
            assert_eq!(world.directory.verified_key(&dest, &world.roots, 0), None);
        }
        let agent = owner.next_agent_name("hello");
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch(dest.clone(), creds, image(HELLO, vec![], "run"));
        let reports = world.server(0).wait_reports(round, WAIT);
        assert_eq!(reports.len(), round);
        assert!(matches!(
            reports[round - 1].status,
            ReportStatus::Completed(_)
        ));
    }
    world.shutdown();
}

#[test]
fn itinerary_tour_visits_every_server() {
    let mut world = World::new(4);
    let mut owner = world.owner("bob");
    let agent = owner.next_agent_name("tour");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);

    // First hop is server 1; the carried itinerary continues 2 → 3.
    let rest = Itinerary::new([
        world.server(2).name().clone(),
        world.server(3).name().clone(),
    ]);
    let globals = vec![Value::Bytes(rest.encode()), Value::Int(0)];
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(TOUR, globals, "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1);
    // Three servers visited → hops == 3, reported from the last stop.
    assert_eq!(reports[0].status, ReportStatus::Completed("3".into()));
    assert_eq!(reports[0].server, *world.server(3).name());

    // Each stop logged exactly once, in order of the tour.
    for i in [1usize, 2, 3] {
        let logs = world.server(i).logs_tail(usize::MAX);
        assert_eq!(logs.len(), 1, "server {i} should have one log line");
    }
    world.shutdown();
}

/// An agent that uses a buffer resource through a proxy.
const BUFFER_USER: &str = r#"
    module bufuser
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes, bytes) -> bytes
    import env.args0 () -> bytes
    import env.args_b (bytes) -> bytes
    import env.res_int (bytes) -> int
    data rname = "ajn://site1.org/resource/jobs"
    data mput = "put"
    data msize = "size"
    data item = "job-payload"

    func run(arg: bytes) -> int
      locals h: int
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

fn buffer_resource(site: &str) -> Arc<Guarded<BoundedBuffer>> {
    let buf = BoundedBuffer::new(
        Urn::resource(site, ["jobs"]).unwrap(),
        Urn::owner(site, ["admin"]).unwrap(),
        16,
    );
    Guarded::new(buf, ProxyPolicy::default())
}

#[test]
fn agent_uses_resource_via_proxy() {
    let mut world = World::new(2);
    let resource = buffer_resource("site1.org");
    world.server(1).register_resource(resource.clone()).unwrap();

    let mut owner = world.owner("carol");
    let agent = owner.next_agent_name("bufuser");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(BUFFER_USER, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    // put succeeded, size == 1.
    assert_eq!(reports[0].status, ReportStatus::Completed("1".into()));
    // The item really landed in the server-side buffer.
    assert_eq!(resource.inner().size(), 1);
    world.shutdown();
}

#[test]
fn delegation_restricts_resource_access() {
    // The owner delegates NO rights: the server policy would allow, but
    // the intersection is empty — get_resource raises the security
    // exception and the agent dies with a Failed report.
    let mut world = World::new(2);
    world
        .server(1)
        .register_resource(buffer_resource("site1.org"))
        .unwrap();

    let mut owner = world.owner("dave");
    let agent = owner.next_agent_name("bufuser");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::none(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(BUFFER_USER, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    match &reports[0].status {
        ReportStatus::Failed(msg) => assert!(msg.contains("security exception"), "{msg}"),
        other => panic!("expected failure, got {other:?}"),
    }
    world.shutdown();
}

#[test]
fn server_policy_restricts_methods_per_agent() {
    // Server policy: anyone may only call `size` — puts are refused even
    // though the owner delegated everything.
    let mut world = World::builder(2)
        .policy(|i, _name| {
            if i == 1 {
                SecurityPolicy::new().allow(
                    PrincipalPattern::Anyone,
                    Rights::none()
                        .grant_method(Urn::resource("site1.org", ["jobs"]).unwrap(), "size"),
                )
            } else {
                SecurityPolicy::new().allow(PrincipalPattern::Anyone, Rights::all())
            }
        })
        .build();
    world
        .server(1)
        .register_resource(buffer_resource("site1.org"))
        .unwrap();

    let mut owner = world.owner("erin");
    let agent = owner.next_agent_name("bufuser");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(BUFFER_USER, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    match &reports[0].status {
        // The agent's `put` hits a disabled method -> security exception.
        ReportStatus::Failed(msg) => assert!(msg.contains("method disabled"), "{msg}"),
        other => panic!("expected failure, got {other:?}"),
    }
    world.shutdown();
}

#[test]
fn dynamic_extension_agent_installs_resource() {
    // Byte-level hex decoding in assembly is painful; instead of the
    // text-embedding route, drive the installation through a tiny agent
    // whose data pool carries the *wire-encoded module bytes directly*.
    use ajanta_vm::{ModuleBuilder, Op, Ty};

    // The service module the agent carries (a stateful counter).
    let mut svc = ModuleBuilder::new("counter-svc");
    let g = svc.global(Ty::Int);
    svc.function(
        "bump",
        [Ty::Int],
        [],
        Ty::Int,
        vec![
            Op::GLoad(g),
            Op::Load(0),
            Op::Add,
            Op::GStore(g),
            Op::GLoad(g),
            Op::Ret,
        ],
    );
    let svc_bytes = svc.build().to_bytes();

    // The installer agent, built with the ModuleBuilder so the raw module
    // bytes can live in the data pool.
    let mut b = ModuleBuilder::new("installer");
    let install = b.import("env.install_resource", [Ty::Bytes, Ty::Bytes], Ty::Int);
    let getres = b.import("env.get_resource", [Ty::Bytes], Ty::Int);
    let invoke = b.import("env.invoke", [Ty::Int, Ty::Bytes, Ty::Bytes], Ty::Bytes);
    let args_i = b.import("env.args_i", [Ty::Int], Ty::Bytes);
    let res_int = b.import("env.res_int", [Ty::Bytes], Ty::Int);
    let svc_name = b.str_data("ajn://site1.org/resource/counter-svc");
    let svc_mod = b.data(svc_bytes);
    let mbump = b.str_data("bump");
    b.function(
        "run",
        [Ty::Bytes],
        [Ty::Int],
        Ty::Int,
        vec![
            Op::PushD(svc_name),
            Op::PushD(svc_mod),
            Op::HostCall(install),
            Op::Drop,
            Op::PushD(svc_name),
            Op::HostCall(getres),
            Op::Store(1),
            Op::Load(1),
            Op::PushD(mbump),
            Op::PushI(5),
            Op::HostCall(args_i),
            Op::HostCall(invoke),
            Op::HostCall(res_int),
            Op::Ret,
        ],
    );
    let installer = b.build();

    let mut world = World::new(2);
    let mut owner = world.owner("frank");
    let agent = owner.next_agent_name("installer");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    let img = AgentImage {
        globals: installer.initial_globals(),
        module: installer,
        entry: "run".into(),
    };
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, img);

    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports[0].status, ReportStatus::Completed("5".into()));

    // The installer is gone but its resource remains registered…
    assert_eq!(world.server(1).resident_agents(), 0);
    let resources = world.server(1).resources();
    assert!(resources
        .iter()
        .any(|r| r.to_string() == "ajn://site1.org/resource/counter-svc"));

    // …and a later agent can keep using it (state persisted: 5 + 3 = 8).
    let mut b = ajanta_vm::ModuleBuilder::new("user2");
    let getres = b.import(
        "env.get_resource",
        [ajanta_vm::Ty::Bytes],
        ajanta_vm::Ty::Int,
    );
    let invoke = b.import(
        "env.invoke",
        [
            ajanta_vm::Ty::Int,
            ajanta_vm::Ty::Bytes,
            ajanta_vm::Ty::Bytes,
        ],
        ajanta_vm::Ty::Bytes,
    );
    let args_i = b.import("env.args_i", [ajanta_vm::Ty::Int], ajanta_vm::Ty::Bytes);
    let res_int = b.import("env.res_int", [ajanta_vm::Ty::Bytes], ajanta_vm::Ty::Int);
    let svc_name = b.str_data("ajn://site1.org/resource/counter-svc");
    let mbump = b.str_data("bump");
    b.function(
        "run",
        [ajanta_vm::Ty::Bytes],
        [ajanta_vm::Ty::Int],
        ajanta_vm::Ty::Int,
        vec![
            ajanta_vm::Op::PushD(svc_name),
            ajanta_vm::Op::HostCall(getres),
            ajanta_vm::Op::Store(1),
            ajanta_vm::Op::Load(1),
            ajanta_vm::Op::PushD(mbump),
            ajanta_vm::Op::PushI(3),
            ajanta_vm::Op::HostCall(args_i),
            ajanta_vm::Op::HostCall(invoke),
            ajanta_vm::Op::HostCall(res_int),
            ajanta_vm::Op::Ret,
        ],
    );
    let user2 = b.build();
    let agent2 = owner.next_agent_name("user2");
    let home = world.server(0).name().clone();
    let creds2 = owner.credentials(agent2, home, Rights::all(), u64::MAX);
    let img2 = AgentImage {
        globals: user2.initial_globals(),
        module: user2,
        entry: "run".into(),
    };
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds2, img2);
    let reports = world.server(0).wait_reports(2, WAIT);
    assert_eq!(reports[1].status, ReportStatus::Completed("8".into()));
    world.shutdown();
}

/// Spins on `env.time` for at most 1,000,000 calls and returns how many
/// nanoseconds it saw pass, stopping early once 10 ms have. (A release
/// build needs tens of thousands of calls to see 10 ms; a debug build a
/// few thousand.)
const CLOCKWATCH: &str = r#"
    module clockwatch
    import env.time () -> int
    func run(arg: bytes) -> int
      locals t0: int, dt: int, n: int
      hostcall env.time
      store t0
      push 1000000
      store n
    loop:
      hostcall env.time
      load t0
      sub
      store dt
      load dt
      push 10000000
      lt
      jz done
      load n
      push 1
      sub
      dup
      store n
      jz done
      jump loop
    done:
      load dt
      ret
"#;

/// On a socket world, time passes while an agent computes: no frame
/// moves during the spin, yet `env.time` must follow the wall.
#[test]
fn agent_sees_wall_time_pass_on_a_quiet_socket_world() {
    let mut world = World::builder(2)
        .transport(TransportMode::Uds)
        .vm_limits(Limits {
            fuel: u64::MAX,
            ..Limits::default()
        })
        .build();
    let mut owner = world.owner("ivan");
    let agent = owner.next_agent_name("clockwatch");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(CLOCKWATCH, vec![], "run"),
    );
    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1);
    let ReportStatus::Completed(seen) = &reports[0].status else {
        panic!("clockwatch did not complete: {:?}", reports[0].status);
    };
    let seen: u64 = seen.parse().unwrap();
    assert!(
        seen >= 10_000_000,
        "1,000,000 env.time calls saw only {seen} ns pass"
    );
    world.shutdown();
}

#[test]
fn runaway_agent_hits_fuel_quota() {
    let mut world = World::builder(2)
        .vm_limits(Limits {
            fuel: 10_000,
            ..Limits::default()
        })
        .build();
    let mut owner = world.owner("grace");
    let agent = owner.next_agent_name("spin");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);

    let src = r#"
        module spin
        func run(arg: bytes) -> int
        loop:
          jump loop
    "#;
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    assert!(matches!(reports[0].status, ReportStatus::QuotaExceeded(_)));
    // The server survived and is still responsive.
    assert_eq!(world.server(1).resident_agents(), 0);
    world.shutdown();
}

#[test]
fn impostor_system_module_refused() {
    use ajanta_vm::{ModuleBuilder, Op, Ty};
    // The world's servers pre-load a system module `sys.lib`.
    let mut sys = ModuleBuilder::new("sys.lib");
    sys.function("id", [Ty::Int], [], Ty::Int, vec![Op::Load(0), Op::Ret]);
    let sys = Arc::new(ajanta_vm::verify(sys.build()).unwrap());

    let mut world = World::builder(2).system_modules(vec![sys]).build();
    let mut owner = world.owner("heidi");
    let agent = owner.next_agent_name("impostor");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);

    // A malicious agent names its module `sys.lib`.
    let mut evil = ModuleBuilder::new("sys.lib");
    evil.function(
        "run",
        [Ty::Bytes],
        [],
        Ty::Int,
        vec![Op::PushI(666), Op::Ret],
    );
    let evil = evil.build();
    let img = AgentImage {
        globals: evil.initial_globals(),
        module: evil,
        entry: "run".into(),
    };
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, img);

    let reports = world.server(0).wait_reports(1, WAIT);
    assert!(matches!(reports[0].status, ReportStatus::Refused(_)));
    let events = rejections(&world, 1);
    assert!(events.contains(&RejectKind::ImpostorModule));
    assert_eq!(admitted(&world, 1), 0);
    world.shutdown();
}

#[test]
fn tampered_transfers_are_rejected() {
    let mut world = World::new(2);
    // Active attacker modifying every message on the wire.
    world
        .net
        .set_adversary(Some(Arc::new(Tamperer::new(7, 1.0))));

    let mut owner = world.owner("ivan");
    let agent = owner.next_agent_name("hello");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(HELLO, vec![], "run"),
    );

    // Give the network a moment; then: no agent hosted, tampering logged.
    let deadline = std::time::Instant::now() + WAIT;
    while rejections(&world, 1).is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let events = rejections(&world, 1);
    assert!(
        events.contains(&RejectKind::BadDatagram),
        "expected tamper detection, got {events:?}"
    );
    assert_eq!(admitted(&world, 1), 0);
    world.shutdown();
}

#[test]
fn expired_credentials_refused() {
    let mut world = World::new(2);
    // Advance virtual time past the credential expiry before launching.
    world.net.clock().advance_to(1_000_000);

    let mut owner = world.owner("judy");
    let agent = owner.next_agent_name("stale");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), 500_000);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(HELLO, vec![], "run"),
    );

    let deadline = std::time::Instant::now() + WAIT;
    while rejections(&world, 1).is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let events = rejections(&world, 1);
    assert!(events.contains(&RejectKind::BadCredentials));
    assert_eq!(admitted(&world, 1), 0);
    world.shutdown();
}

#[test]
fn binding_quota_limits_proxies() {
    let mut world = World::builder(2)
        .agent_limits(UsageLimits {
            max_bindings: 1,
            ..Default::default()
        })
        .build();
    world
        .server(1)
        .register_resource(buffer_resource("site1.org"))
        .unwrap();

    // Agent binds the same resource twice: second bind exceeds the quota.
    let src = r#"
        module greedy
        import env.get_resource (bytes) -> int
        data rname = "ajn://site1.org/resource/jobs"

        func run(arg: bytes) -> int
          pushd rname
          hostcall env.get_resource
          drop
          pushd rname
          hostcall env.get_resource
          ret
    "#;
    let mut owner = world.owner("kim");
    let agent = owner.next_agent_name("greedy");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(1, WAIT);
    match &reports[0].status {
        ReportStatus::Failed(msg) => assert!(msg.contains("quota"), "{msg}"),
        other => panic!("expected quota failure, got {other:?}"),
    }
    world.shutdown();
}

#[test]
fn colocated_agents_exchange_mail() {
    // Two agents meet at server 1: a "greeter" waits for mail in a spin
    // loop (bounded); a "visitor" sends it a message.
    let mut world = World::new(2);
    let mut owner = world.owner("lara");

    let greeter_src = r#"
        module greeter
        import env.recv () -> bytes
        import env.log (bytes) -> int
        global tries: int

        func run(arg: bytes) -> int
          locals msg: bytes
        loop:
          hostcall env.recv
          store msg
          load msg
          blen
          jz again
          load msg
          hostcall env.log
          drop
          load msg
          blen
          ret
        again:
          gload tries
          push 1
          add
          gstore tries
          gload tries
          push 200000
          lt
          jz giveup
          jump loop
        giveup:
          push -1
          ret
    "#;

    let greeter_name = owner.next_agent_name("greeter");
    let home = world.server(0).name().clone();
    let creds_g = owner.credentials(greeter_name.clone(), home.clone(), Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds_g,
        image(greeter_src, vec![Value::Int(0)], "run"),
    );

    // Wait until the greeter is resident.
    let deadline = std::time::Instant::now() + WAIT;
    while world.server(1).resident_agents() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let visitor_src = format!(
        r#"
        module visitor
        import env.send (bytes, bytes) -> int
        data target = "{greeter_name}"
        data payload = "greetings!"

        func run(arg: bytes) -> int
          pushd target
          pushd payload
          hostcall env.send
          ret
    "#
    );
    let visitor_name = owner.next_agent_name("visitor");
    let creds_v = owner.credentials(visitor_name, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds_v,
        image(&visitor_src, vec![], "run"),
    );

    let reports = world.server(0).wait_reports(2, WAIT);
    let statuses: Vec<&ReportStatus> = reports.iter().map(|r| &r.status).collect();
    // Visitor delivered (returns 1); greeter got 10 bytes of mail.
    assert!(
        statuses.contains(&&ReportStatus::Completed("1".into())),
        "{statuses:?}"
    );
    assert!(
        statuses.contains(&&ReportStatus::Completed("10".into())),
        "{statuses:?}"
    );
    let delivered = |i: usize| world.server(i).journal().counter(Counter::MailDelivered);
    assert_eq!((delivered(0), delivered(1)), (0, 1));
    world.shutdown();
}

#[test]
fn status_queries_cross_the_network() {
    use ajanta_runtime::messages::AgentStatus;
    // A lingering agent at server 1; the home server (0) queries the
    // domain database over the wire.
    let mut world = World::new(2);
    let src = r#"
        module idler
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
          push 500000
          lt
          jz giveup
          jump loop
        giveup:
          push 0
          ret
    "#;
    let mut owner = world.owner("mona");
    let agent = owner.next_agent_name("idler");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![Value::Int(0)], "run"),
    );

    // Wait for residence, then query.
    let deadline = std::time::Instant::now() + WAIT;
    while world.server(1).resident_agents() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = world
        .server(0)
        .query_status(world.server(1).name(), &agent, WAIT)
        .expect("status reply arrives");
    match status {
        AgentStatus::Resident { owner: o, .. } => assert_eq!(o, *owner.name()),
        other => panic!("expected resident, got {other:?}"),
    }

    // A query about a ghost returns NotResident.
    let ghost = Urn::agent("users.org", ["nobody", "9"]).unwrap();
    assert_eq!(
        world
            .server(0)
            .query_status(world.server(1).name(), &ghost, WAIT),
        Ok(AgentStatus::NotResident)
    );

    // Let the idler finish and drain.
    world.server(0).wait_reports(1, WAIT);
    world.shutdown();
}

#[test]
fn parent_dispatches_children_that_report_home() {
    // A coordinator lands at server 1 and dispatches two children to
    // server 2 ("map" phase); each child computes from its payload and
    // reports home. The children run under the parent's credentials with
    // subtree names; their creator is the parent.
    let mut world = World::new(3);
    let src = r#"
        module fleet
        import env.dispatch (bytes, bytes, bytes) -> bytes
        global dest: bytes

        func run(arg: bytes) -> int
          gload dest
          pushd entry_child
          pushd payload_a
          hostcall env.dispatch
          drop
          gload dest
          pushd entry_child
          pushd payload_b
          hostcall env.dispatch
          drop
          push 2
          ret

        # children resume here, with the parent-chosen payload as arg
        func child(arg: bytes) -> int
          load arg
          atoi
          push 10
          mul
          ret

        data entry_child = "child"
        data payload_a = "3"
        data payload_b = "4"
    "#;
    let mut owner = world.owner("nina");
    let agent = owner.next_agent_name("fleet");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    let dest2 = world.server(2).name().to_string();
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![Value::str(&dest2)], "run"),
    );

    // Three reports home: the parent (2) and both children (30, 40).
    let reports = world.server(0).wait_reports(3, WAIT);
    assert_eq!(reports.len(), 3, "{reports:?}");
    let mut answers: Vec<String> = reports
        .iter()
        .map(|r| match &r.status {
            ReportStatus::Completed(v) => v.clone(),
            other => panic!("unexpected: {other:?}"),
        })
        .collect();
    answers.sort();
    assert_eq!(answers, ["2", "30", "40"]);

    // Children are named inside the parent's subtree.
    let child_reports: Vec<_> = reports.iter().filter(|r| r.agent != agent).collect();
    assert_eq!(child_reports.len(), 2);
    for r in child_reports {
        assert!(r.agent.is_within(&agent), "{} not within {agent}", r.agent);
        assert_eq!(r.server, *world.server(2).name());
    }
    world.shutdown();
}

#[test]
fn dispatch_is_refused_when_policy_forbids_it() {
    let mut world = World::builder(2).no_agent_dispatch().build();
    let src = r#"
        module sneaky
        import env.dispatch (bytes, bytes, bytes) -> bytes
        data entry = "run"
        data payload = "x"

        func run(arg: bytes) -> int
          load arg
          pushd entry
          pushd payload
          hostcall env.dispatch
          blen
          ret
    "#;
    let mut owner = world.owner("oscar");
    let agent = owner.next_agent_name("sneaky");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![], "run"),
    );
    let reports = world.server(0).wait_reports(1, WAIT);
    match &reports[0].status {
        ReportStatus::Failed(msg) => {
            assert!(msg.contains("security exception"), "{msg}");
            assert!(msg.contains("dispatch"), "{msg}");
        }
        other => panic!("expected dispatch denial, got {other:?}"),
    }
    world.shutdown();
}

#[test]
fn forged_child_identity_outside_subtree_is_rejected() {
    // A certified-but-rogue peer seals a Transfer whose run_as is NOT
    // within the credentialed agent's subtree. The datagram authenticates
    // (the rogue is certified), but the receiving server must refuse the
    // identity claim and record a `bad-identity` event.
    use ajanta_net::SealedDatagram;
    use ajanta_runtime::messages::Message;
    use ajanta_wire::Wire as _;

    let mut world = World::new(2);
    let mut owner = world.owner("pete");
    let agent = owner.next_agent_name("honest");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    let module = assemble("module m\nfunc run(arg: bytes) -> int\n  push 666\n  ret").unwrap();
    let img = AgentImage {
        globals: vec![],
        module,
        entry: "run".into(),
    };
    let msg = Message::Transfer {
        run_as: Urn::agent("evil.org", ["somebody", "else"]).unwrap(),
        credentials: creds,
        image: img,
        hop: 0,
        arg: vec![],
        ctx: ajanta_core::SpanContext::root(ajanta_core::TraceId(1), ajanta_core::SpanId(1)),
        sent_ns: 0,
    };

    let (rogue_id, _rogue_keys) = world.certified_rogue("mitm");
    let endpoint = world.net.attach(rogue_id.name.clone()).unwrap();
    let dest = world.server(1).name().clone();
    let dest_key = world
        .directory
        .verified_key(&dest, &world.roots, 0)
        .unwrap();
    let mut rng = ajanta_crypto::DetRng::new(0xE11);
    let dg = SealedDatagram::seal(
        &rogue_id,
        &dest,
        dest_key,
        &msg.to_bytes(),
        world.net.clock().now(),
        &mut rng,
    );
    endpoint.send(&dest, dg.to_bytes()).unwrap();

    let deadline = std::time::Instant::now() + WAIT;
    while rejections(&world, 1).is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let events = rejections(&world, 1);
    assert!(
        events.contains(&RejectKind::BadIdentity),
        "expected bad-identity, got {events:?}"
    );
    // The forged agent never ran.
    assert_eq!(admitted(&world, 1), 0);
    world.shutdown();
}

/// Binds the guarded buffer, then calls `env.invoke` declared with a
/// signature the server's ABI does not have: `(int, bytes) -> bytes`
/// instead of `(int, bytes, bytes) -> bytes`.
const MISDECLARED_INVOKE: &str = r#"
    module misdeclared
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes) -> bytes
    data rname = "ajn://site1.org/resource/jobs"
    data mput = "put"

    func run(arg: bytes) -> int
      pushd rname
      hostcall env.get_resource
      pushd mput
      hostcall env.invoke
      drop
      push 0
      ret
"#;

/// Calls a host function the server does not provide.
const UNPROVIDED_IMPORT: &str = r#"
    module thief
    import env.steal (bytes) -> int
    data rname = "ajn://site1.org/resource/jobs"

    func run(arg: bytes) -> int
      pushd rname
      hostcall env.steal
      ret
"#;

/// Runs one agent against server 1's guarded buffer and returns the
/// failure text of its report, after checking that the buffer stayed
/// untouched and that server 1 journaled no `Access` span.
fn refused_at_host_call(src: &str) -> String {
    let mut world = World::new(2);
    let resource = buffer_resource("site1.org");
    world.server(1).register_resource(resource.clone()).unwrap();
    let mut owner = world.owner("mallory");
    let agent = owner.next_agent_name("abi");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![], "run"),
    );
    let reports = world.server(0).wait_reports(1, WAIT);
    let ReportStatus::Failed(msg) = &reports[0].status else {
        panic!("expected a failure, got {:?}", reports[0].status);
    };
    assert!(msg.contains("security exception"), "{msg}");
    assert_eq!(resource.inner().size(), 0, "the buffer was touched");
    let accesses = world
        .server(1)
        .journal()
        .snapshot()
        .into_iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::Span {
                    kind: ajanta_core::SpanKind::Access,
                    ..
                }
            )
        })
        .count();
    assert_eq!(accesses, 0, "a refused host call journaled an access");
    world.shutdown();
    msg.clone()
}

#[test]
fn host_call_with_a_non_abi_signature_is_refused() {
    let msg = refused_at_host_call(MISDECLARED_INVOKE);
    assert!(msg.contains("non-ABI signature"), "{msg}");
}

#[test]
fn host_call_the_server_does_not_provide_is_refused() {
    let msg = refused_at_host_call(UNPROVIDED_IMPORT);
    assert!(msg.contains("is not provided by this server"), "{msg}");
}
