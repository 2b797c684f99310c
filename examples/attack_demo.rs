//! The threat model, live: malicious agents and network attackers being
//! stopped by the mechanisms the paper prescribes — credentials,
//! byte-code verification, name-space separation, quotas, proxies, and
//! the sealed transfer protocol.
//!
//! ```text
//! cargo run --example attack_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use ajanta::core::{BoundedBuffer, Guarded, ProxyPolicy, Rights};
use ajanta::naming::Urn;
use ajanta::net::{Eavesdropper, Tamperer};
use ajanta::runtime::{Event, RejectKind, ReportStatus, World};
use ajanta::vm::{assemble, AgentImage, ModuleBuilder, Op, Ty, Value};

/// The rejections `server` journaled, oldest first.
fn rejections(world: &World, server: usize) -> Vec<(RejectKind, String)> {
    world
        .server(server)
        .journal()
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::Rejected { kind, detail } => Some((kind, detail)),
            _ => None,
        })
        .collect()
}

fn wait_events(world: &World, server: usize, n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rejections(world, server).len() < n && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    let mut world = World::builder(2)
        .vm_limits(ajanta::vm::Limits {
            fuel: 200_000,
            ..Default::default()
        })
        .build();
    let buffer = BoundedBuffer::new(
        Urn::resource("site1.org", ["jobs"]).unwrap(),
        Urn::owner("site1.org", ["admin"]).unwrap(),
        4,
    );
    world
        .server(1)
        .register_resource(Guarded::new(Arc::clone(&buffer), ProxyPolicy::default()))
        .unwrap();
    let mut mallory = world.owner("mallory");
    let home = world.server(0).name().clone();
    let dest = world.server(1).name().clone();

    println!("=== attack 1: forged credentials (privilege escalation) ===");
    {
        // Mallory edits her signed credentials to claim Rights::all().
        let agent = mallory.next_agent_name("escalator");
        let mut creds = mallory.credentials(agent, home.clone(), Rights::none(), u64::MAX);
        creds.delegated = Rights::all(); // tamper after signing
        let image = AgentImage {
            globals: vec![],
            module: assemble("module m\nfunc run(arg: bytes) -> int\n  push 1\n  ret").unwrap(),
            entry: "run".into(),
        };
        world.server(0).launch(dest.clone(), creds, image);
        wait_events(&world, 1, 1);
        let events = rejections(&world, 1);
        println!("  server 1 events: {:?}\n", events.last());
    }

    println!("=== attack 2: unverifiable byte-code ===");
    {
        let agent = mallory.next_agent_name("corrupt");
        let creds = mallory.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        // Type-confused code: bytes + int addition.
        let mut b = ModuleBuilder::new("corrupt");
        let d = b.str_data("boom");
        b.function(
            "run",
            [Ty::Bytes],
            [],
            Ty::Int,
            vec![Op::PushD(d), Op::PushI(1), Op::Add, Op::Ret],
        );
        let image = AgentImage {
            globals: vec![],
            module: b.build(),
            entry: "run".into(),
        };
        world.server(0).launch(dest.clone(), creds, image);
        let n = world.server(0).wait_reports(1, Duration::from_secs(5));
        println!("  home report: {:?}\n", n.last().map(|r| &r.status));
    }

    println!("=== attack 3: denial of service (runaway loop) ===");
    {
        let agent = mallory.next_agent_name("spinner");
        let creds = mallory.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        let image = AgentImage {
            globals: vec![],
            module: assemble("module spin\nfunc run(arg: bytes) -> int\nloop:\n  jump loop")
                .unwrap(),
            entry: "run".into(),
        };
        world.server(0).launch(dest.clone(), creds, image);
        let reports = world.server(0).wait_reports(2, Duration::from_secs(10));
        println!("  home report: {:?}", reports.last().map(|r| &r.status));
        println!(
            "  server 1 still alive, {} residents\n",
            world.server(1).resident_agents()
        );
    }

    println!("=== attack 4: stolen capability (proxy confinement) ===");
    {
        // Demonstrated at the library level: a proxy leaked across
        // protection domains refuses to serve the thief.
        use ajanta::core::{AccessError, AccessProtocol, DomainId, Requester};
        let guarded = Guarded::new(Arc::clone(&buffer), ProxyPolicy::default());
        let rightful = Requester {
            agent: Urn::agent("users.org", ["good"]).unwrap(),
            owner: Urn::owner("users.org", ["good"]).unwrap(),
            domain: DomainId(7),
            rights: Rights::all(),
        };
        let proxy = guarded.get_proxy(&rightful, 0).unwrap();
        proxy
            .invoke(DomainId(7), "put", &[Value::str("legit")], 0)
            .unwrap();
        let stolen = proxy.clone(); // handed to another agent
        let outcome = stolen.invoke(DomainId(8), "get", &[], 0);
        println!("  thief's call: {:?}\n", outcome.unwrap_err());
        assert!(matches!(
            stolen.invoke(DomainId(8), "get", &[], 0),
            Err(AccessError::NotHolder { .. })
        ));
    }

    println!("=== attack 5: wire tampering ===");
    {
        world
            .net
            .set_adversary(Some(Arc::new(Tamperer::new(0xBAD, 1.0))));
        let agent = mallory.next_agent_name("innocent");
        let creds = mallory.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        let image = AgentImage {
            globals: vec![],
            module: assemble("module ok\nfunc run(arg: bytes) -> int\n  push 1\n  ret").unwrap(),
            entry: "run".into(),
        };
        let before = rejections(&world, 1).len();
        world.server(0).launch(dest.clone(), creds, image);
        wait_events(&world, 1, before + 1);
        let events = rejections(&world, 1);
        println!("  server 1 events: {:?}\n", events.last());
        world.net.set_adversary(None);
    }

    println!("=== attack 6: eavesdropping (confidentiality) ===");
    {
        let eve = Arc::new(Eavesdropper::new());
        world.net.set_adversary(Some(eve.clone()));
        let secret = b"VISA 4111-1111-1111-1111";
        let mut b = ModuleBuilder::new("courier");
        b.global(Ty::Bytes);
        b.function(
            "run",
            [Ty::Bytes],
            [],
            Ty::Int,
            vec![Op::GLoad(0), Op::BLen, Op::Ret],
        );
        let module = b.build();
        let image = AgentImage {
            globals: vec![Value::Bytes(secret.to_vec())],
            module,
            entry: "run".into(),
        };
        let agent = mallory.next_agent_name("courier");
        let creds = mallory.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world.server(0).launch(dest.clone(), creds, image);
        let want = world.server(0).reports().len() + 1;
        let reports = world.server(0).wait_reports(want, Duration::from_secs(10));
        let completed = matches!(
            reports.last().map(|r| &r.status),
            Some(ReportStatus::Completed(_))
        );
        println!(
            "  agent delivered: {completed}; frames captured: {}; secret visible on the wire: {}",
            eve.frame_count(),
            if eve.saw_plaintext(secret) {
                "YES (leak!)"
            } else {
                "no"
            }
        );
        assert!(!eve.saw_plaintext(secret));
        world.net.set_adversary(None);
    }

    world.shutdown();
    println!("\nall six attacks handled as the paper prescribes.");
}
