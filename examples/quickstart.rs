//! Quickstart: launch one agent across the simulated network, let it use
//! a protected buffer resource through a dynamically created proxy, and
//! collect its report at home — paper Fig. 1 and Fig. 6 end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use ajanta::core::{BoundedBuffer, Buffer, Guarded, ProxyPolicy, Resource, Rights};
use ajanta::naming::Urn;
use ajanta::runtime::World;
use ajanta::vm::{assemble, AgentImage};

fn main() {
    // A world: CA, certificate directory, simulated LAN, two agent
    // servers with their own keys, monitors, registries and policies.
    let mut world = World::new(2);
    println!("servers up:");
    for s in &world.servers {
        println!("  {}", s.name());
    }

    // Server 1 publishes a bounded buffer — the paper's running example —
    // wrapped in the standard access protocol.
    let buffer = BoundedBuffer::new(
        Urn::resource("site1.org", ["jobs"]).unwrap(),
        Urn::owner("site1.org", ["admin"]).unwrap(),
        16,
    );
    world
        .server(1)
        .register_resource(Guarded::new(Arc::clone(&buffer), ProxyPolicy::default()))
        .expect("resource registers");
    println!("\nregistered resource: {}", buffer.name());

    // Alice writes an agent in AgentScript. It binds the buffer by its
    // global name (receiving a proxy), deposits a job, and reports the
    // buffer size.
    let agent_src = r#"
        module depositor
        import env.log (bytes) -> int
        import env.here () -> bytes
        import env.get_resource (bytes) -> int
        import env.invoke (int, bytes, bytes) -> bytes
        import env.args0 () -> bytes
        import env.args_b (bytes) -> bytes
        import env.res_int (bytes) -> int
        data rname = "ajn://site1.org/resource/jobs"
        data mput = "put"
        data msize = "size"
        data job = "job: index the catalog"
        data arrived = "arrived at "

        func run(arg: bytes) -> int
          locals h: int
          pushd arrived
          hostcall env.here
          bconcat
          hostcall env.log
          drop
          pushd rname
          hostcall env.get_resource
          store h
          load h
          pushd mput
          pushd job
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
    let module = assemble(agent_src).expect("agent assembles");
    let image = AgentImage {
        globals: module.initial_globals(),
        module,
        entry: "run".into(),
    };

    // Credentials: tamper-evident, signed by Alice, delegating only
    // access to the jobs buffer (least privilege).
    let mut alice = world.owner("alice");
    let agent_name = alice.next_agent_name("depositor");
    let home = world.server(0).name().clone();
    let rights = Rights::on_resource(Urn::resource("site1.org", ["jobs"]).unwrap());
    let creds = alice.credentials(agent_name.clone(), home, rights, u64::MAX);
    println!("\nlaunching {agent_name}");

    // Launch toward server 1; the image travels in a sealed datagram.
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, image);

    // The completion report arrives back at the home server.
    let reports = world.server(0).wait_reports(1, Duration::from_secs(10));
    println!("\nreport: {:?}", reports[0].status);
    println!("server 1 log:");
    for (agent, line) in world.server(1).logs_tail(usize::MAX) {
        println!("  [{}] {}", agent.leaf(), line);
    }
    println!("\nbuffer size observed server-side: {}", buffer.size());

    // Transport-level accounting, including the wire data plane's
    // coalescing counters. The simulation issues no stream writes, so
    // frames/write stays 0/0 here; run a world over `TransportMode::Tcp`
    // or `Uds` (see X18 in EXPERIMENTS.md) and the same two counters
    // show how many frames each socket write carried.
    let net = world.net.stats();
    println!("\ntransport stats:");
    println!(
        "  delivered {} / dropped {} / injected {}",
        net.messages_delivered, net.messages_dropped, net.messages_injected
    );
    println!(
        "  bytes sent {} / delivered {}",
        net.bytes_sent, net.bytes_delivered
    );
    println!(
        "  coalescing: {} frames over {} writes",
        net.frames_coalesced, net.write_syscalls
    );

    // Everything the server did on the agent's behalf left a typed trace
    // in its telemetry journal: the Prometheus-style metrics snapshot
    // gives counters plus latency-histogram quantiles, the tail of the
    // journal the actual events.
    let journal = world.server(1).journal();
    println!("\nserver 1 telemetry snapshot:");
    for line in journal.metrics_snapshot().lines() {
        if !line.ends_with(" 0") && !line.starts_with('#') {
            println!("  {line}");
        }
    }
    // The cooperative scheduler's own telemetry, from the same snapshot:
    // slices run, yields, steals, and the slice-duration / ready-dwell
    // histograms the worker pool feeds per admitting server.
    println!("\nscheduler (fuel-sliced worker pool):");
    for line in journal.metrics_snapshot().lines() {
        if line.starts_with("ajanta_slices")
            || line.starts_with("ajanta_agent_yields")
            || line.starts_with("ajanta_sched_steals")
            || line.starts_with("ajanta_slice_ns")
            || line.starts_with("ajanta_ready_dwell_ns")
        {
            println!("  {line}");
        }
    }
    println!("last journal events:");
    for record in journal.recent(6) {
        println!(
            "  #{:<3} t={:<12} {:?}",
            record.seq, record.at, record.event
        );
    }
    world.shutdown();
    println!("done.");
}
