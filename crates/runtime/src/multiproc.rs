//! Multi-process worlds: N `ajantad` server processes joined over real
//! sockets into one world, driven by a line-oriented stdio protocol.
//!
//! Every process derives the *same* certificate authority, server
//! identities, and owner from one seed ([`derive_world`]) — only socket
//! addresses need exchanging at runtime. The parent ([`run_parent`])
//! spawns the children, wires their route tables (`PEER`), starts the
//! tour (`GO`), then collects per-process trace exports and duplicate-
//! admission counts (`STOP` … `DONE`) and merges the JSONL into one
//! causal forest — the cross-process analogue of
//! [`World::export_traces`](crate::World::export_traces).
//!
//! Protocol (child stdout → parent, parent stdin → child):
//!
//! ```text
//! child:  READY <addr>                     after binding its transport
//! parent: PEER <index> <addr>              one per remote peer
//! parent: GO                               child 0 launches the tour
//! child0: RESULT reported=<n> completed=<n> agents=<n>
//! parent: SLEEPER <idx>                    (--ctl) launch an idle resident toward server idx
//! child:  SLEEPER <urn>                    the launched sleeper's name
//! parent: PARITY <urn>                     (--ctl) assert remote/local control parity
//! child:  PARITY ok | PARITY fail: <why>   verdict, incl. hibernate/wake round trip
//! parent: STOP                             quiesce + export traces
//! child:  DONE dups=<n>
//! parent: EXIT                             shut down and exit
//! ```

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_core::trace::{parse_jsonl, TraceForest};
use ajanta_core::{
    BoundedBuffer, Counter, Event, Guarded, PrincipalPattern, ProxyPolicy, Rights, SecurityPolicy,
    UsageLimits,
};
use ajanta_crypto::RootOfTrust;
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{LinkFault, NetAddr, SocketConfig, SocketTransport, Transport};
use ajanta_vm::{assemble, AgentImage, Value};

use crate::custody::RetryPolicy;
use crate::directory::Directory;
use crate::itinerary::Itinerary;
use crate::owner::Owner;
use crate::sched::{default_workers, Scheduler};
use crate::server::{AgentServer, ServerConfig, ServerHandle};

/// The identities every process of a multi-process world derives from
/// the shared seed. Certificates, keys, and the owner are byte-identical
/// across processes; only socket addresses are exchanged at runtime.
pub struct DerivedWorld {
    /// The trust roots (the derived CA).
    pub roots: RootOfTrust,
    /// Server names, index-aligned with the process indices.
    pub names: Vec<Urn>,
    /// Per-server channel identities (keys + CA-issued chain).
    pub identities: Vec<ChannelIdentity>,
    /// Per-server config seeds (same stream in every process).
    pub server_seeds: Vec<u64>,
    /// A directory pre-published with every server's certificate.
    pub directory: Directory,
    /// The touring owner (only process 0 mints agents from it).
    pub owner: Owner,
}

/// Derives the whole world's identities from `seed`, minted exactly as
/// [`WorldBuilder::build`](crate::world::WorldBuilder::build) mints its
/// own: the same seed gives the same CA and server keys.
pub fn derive_world(seed: u64, servers: usize) -> DerivedWorld {
    let names: Vec<Urn> = (0..servers)
        .map(|i| {
            Urn::server(format!("proc{i}.org"), ["s".to_string()])
                .expect("generated name is canonical")
        })
        .collect();
    let mut minted = crate::world::mint(seed, &names);
    let owner = minted.authority.owner("traveler");
    let (identities, server_seeds) = minted.servers.into_iter().unzip();
    DerivedWorld {
        roots: minted.roots,
        names,
        identities,
        server_seeds,
        directory: minted.directory,
        owner,
    }
}

/// The touring agent the smoke tour runs: at every stop it binds the
/// local `jobs` buffer, puts one item, and moves on — exercising
/// transfer, admission, bind, and access spans on every process.
const TOURIST: &str = r#"
    module tracetour
    import env.go_tour (bytes, bytes) -> int
    import env.itin_tail (bytes) -> bytes
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes, bytes) -> bytes
    import env.args_b (bytes) -> bytes
    global itin: bytes
    global hops: int
    data entry = "run"
    data rname = "ajn://tour.org/resource/jobs"
    data mput = "put"
    data item = "trace-probe"

    func run(arg: bytes) -> int
      locals full: bytes, h: int
      gload hops
      push 1
      add
      gstore hops
      pushd rname
      hostcall env.get_resource
      store h
      load h
      pushd mput
      pushd item
      hostcall env.args_b
      hostcall env.invoke
      drop
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

/// A deliberately idle resident: polls its mailbox forever (each empty
/// poll is a mail miss), terminating only if mail ever arrives. Yields
/// every slice, holds no bindings, plans no migration — the ideal
/// subject for a control-plane hibernate/wake round trip.
const SLEEPER: &str = r#"
    module sleeper
    import env.recv () -> bytes

    func run(arg: bytes) -> int
      wait:
      hostcall env.recv
      blen
      jz wait
      push 0
      ret
"#;

fn sleeper_image() -> AgentImage {
    let module = assemble(SLEEPER).expect("sleeper assembles");
    let image = AgentImage {
        globals: module.initial_globals(),
        module,
        entry: "run".into(),
    };
    image.validate().expect("sleeper image consistent");
    image
}

/// The smoke tour's agent, carrying everything in `tour` after the
/// launch leg (the runtime drives the launch leg itself). Returns its
/// hop count from the last stop; every stop must host a `jobs` buffer
/// named `ajn://tour.org/resource/jobs`.
pub fn tourist_image(tour: &Itinerary) -> AgentImage {
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

/// One child server process's configuration.
pub struct ChildOpts {
    /// This process's server index in `0..servers`.
    pub index: usize,
    /// Total number of server processes in the world.
    pub servers: usize,
    /// The shared world seed.
    pub seed: u64,
    /// The address to listen on (`tcp:127.0.0.1:0` or `uds:<path>`).
    pub addr: NetAddr,
    /// Where to write this process's trace JSONL export on `STOP`.
    pub trace_out: PathBuf,
    /// How many agents process 0 launches on `GO`.
    pub agents: usize,
    /// Probabilistic frame loss injected on this process's send path.
    pub loss: f64,
    /// Admission write-ahead log path. A respawned child given the same
    /// path replays the admissions its previous incarnation had not
    /// resolved — the kill-and-restart smoke's durability mechanism.
    pub wal: Option<PathBuf>,
    /// Control-plane socket to serve alongside the data plane
    /// (`uds:<path>` or `tcp:127.0.0.1:<port>`). Enables the `PARITY`
    /// stdio verb.
    pub ctl: Option<NetAddr>,
}

/// Runs one child server process over stdin/stdout until `EXIT` (or
/// stdin closes). See the module docs for the protocol.
pub fn run_child(opts: ChildOpts) -> Result<(), String> {
    let derived = derive_world(opts.seed, opts.servers);
    let i = opts.index;
    if i >= opts.servers {
        return Err(format!(
            "index {i} out of range for {} servers",
            opts.servers
        ));
    }

    let transport = SocketTransport::bind(
        &opts.addr,
        SocketConfig {
            identity: derived.identities[i].clone(),
            roots: derived.roots.clone(),
            seed: opts.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
    )
    .map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let transport = Arc::new(transport);
    if opts.loss > 0.0 {
        let fault = LinkFault::new(opts.seed ^ 0xFA17_0000 ^ i as u64, opts.loss);
        transport.set_adversary(Some(Arc::new(fault)));
    }

    let sched = Scheduler::new(default_workers());
    let server = AgentServer::spawn(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ServerConfig {
            name: derived.names[i].clone(),
            identity: derived.identities[i].clone(),
            roots: derived.roots.clone(),
            directory: derived.directory.clone(),
            policy: SecurityPolicy::new().allow(PrincipalPattern::Anyone, Rights::all()),
            system_modules: Vec::new(),
            // The PARITY sleeper busy-polls its mailbox between the
            // hibernate/wake round trips; under the default quota or the
            // interpreter's default fuel it would burn its fuel and
            // retire mid-exercise, the sooner the more CPU the rest of
            // the smoke leaves it.
            agent_limits: if opts.ctl.is_some() {
                UsageLimits {
                    fuel: u64::MAX,
                    ..UsageLimits::default()
                }
            } else {
                UsageLimits::default()
            },
            vm_limits: if opts.ctl.is_some() {
                ajanta_vm::Limits {
                    fuel: u64::MAX,
                    ..ajanta_vm::Limits::default()
                }
            } else {
                ajanta_vm::Limits::default()
            },
            agents_may_dispatch: true,
            retry: RetryPolicy {
                max_attempts: 14,
                ack_grace: Duration::from_millis(10),
            },
            seed: derived.server_seeds[i],
            journal_capacity: 1 << 16,
            scheduler: Arc::clone(&sched),
            wal: opts.wal.clone(),
            hibernate_after_misses: None,
        },
    );

    // Every stop hosts the tour's buffer; home (process 0) does not.
    if i > 0 {
        let buf = BoundedBuffer::new(
            Urn::resource("tour.org", ["jobs"]).unwrap(),
            Urn::owner("tour.org", ["admin"]).unwrap(),
            2 * opts.agents.max(1),
        );
        server
            .register_resource(Guarded::new(buf, ProxyPolicy::default()))
            .map_err(|e| format!("registering jobs buffer: {e}"))?;
    }

    // The control plane serves this server's handle surface over its
    // own socket, beside the data plane.
    let ctl = match &opts.ctl {
        Some(addr) => Some(
            crate::control::ControlServer::serve(addr, vec![server.control_view()])
                .map_err(|e| format!("binding control socket {addr}: {e}"))?,
        ),
        None => None,
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "READY {}", transport.local_addr())
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;

    let stdin = std::io::stdin();
    let lines = BufReader::new(stdin.lock()).lines();
    let mut owner = derived.owner;
    for line in lines {
        let line = line.map_err(|e| format!("reading control line: {e}"))?;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("PEER") => {
                let idx: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| format!("bad PEER line: {line}"))?;
                let addr: NetAddr = words
                    .next()
                    .ok_or_else(|| format!("bad PEER line: {line}"))?
                    .parse()?;
                transport.add_route(derived.names[idx].clone(), addr);
            }
            Some("GO") => {
                if i == 0 {
                    let (reported, completed) =
                        drive_tour(&server, &mut owner, &derived.names, opts.agents);
                    writeln!(
                        out,
                        "RESULT reported={reported} completed={completed} agents={}",
                        opts.agents
                    )
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
                }
            }
            Some("STOP") => {
                quiesce(&server, Duration::from_secs(60));
                std::fs::write(&opts.trace_out, server.export_jsonl())
                    .map_err(|e| format!("writing {}: {e}", opts.trace_out.display()))?;
                let dups = duplicate_admissions(&server);
                let replays = server.journal().counter(Counter::WalReplays);
                writeln!(out, "DONE dups={dups} replays={replays}")
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
            }
            Some("SLEEPER") => {
                // Launch one idle resident toward server `idx` — the
                // hibernate/wake subject for a later PARITY.
                let idx: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&n| n < opts.servers)
                    .ok_or_else(|| format!("bad SLEEPER line: {line}"))?;
                let agent = owner.next_agent_name("sleeper");
                let creds = owner.credentials(
                    agent.clone(),
                    derived.names[i].clone(),
                    Rights::all(),
                    u64::MAX,
                );
                server.launch(derived.names[idx].clone(), creds, sleeper_image());
                writeln!(out, "SLEEPER {agent}")
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
            }
            Some("PARITY") => {
                let subject = words
                    .next()
                    .and_then(|w| w.parse::<Urn>().ok())
                    .ok_or_else(|| format!("bad PARITY line: {line}"))?;
                let verdict = match &opts.ctl {
                    None => Err("PARITY needs --ctl".to_string()),
                    Some(addr) => parity_check(&server, addr, &subject),
                };
                match verdict {
                    Ok(()) => writeln!(out, "PARITY ok"),
                    Err(e) => writeln!(out, "PARITY fail: {e}"),
                }
                .and_then(|_| out.flush())
                .map_err(|e| e.to_string())?;
            }
            Some("EXIT") | None => break,
            Some(other) => return Err(format!("unknown control verb {other:?}")),
        }
    }

    if let Some(ctl) = ctl {
        ctl.shutdown();
    }
    server.shutdown();
    sched.stop();
    transport.shutdown();
    Ok(())
}

/// The remote/local parity oracle: every control answer obtained over a
/// genuine socket round trip through this process's own control server
/// must equal the answer computed directly on the server's handle. Run
/// while a sleeper (see [`SLEEPER`]) is resident so the hibernate/wake
/// round trip has a subject.
fn parity_check(server: &ServerHandle, ctl: &NetAddr, sleeper: &Urn) -> Result<(), String> {
    use crate::control::{serve_request, ControlClient, ControlRequest, ControlResponse};
    let views = vec![server.control_view()];
    let mut client = ControlClient::connect(ctl).map_err(|e| format!("connecting {ctl}: {e}"))?;

    // Park the resident sleeper in the bundle store first: a running
    // agent moves the very state being compared (fuel, slice counters,
    // journal), so parity is asserted on the quiescent server. The
    // hibernate itself IS the remote half of the round trip.
    if views[0].record_of(sleeper).is_none() {
        return Err(format!("sleeper {sleeper} is not resident here"));
    }
    let sleeper = sleeper.clone();
    match client.call(&ControlRequest::Hibernate {
        agent: sleeper.clone(),
    }) {
        Ok(ControlResponse::Ack(true)) => {}
        Ok(other) => return Err(format!("remote hibernate answered {other:?}")),
        Err(e) => return Err(format!("remote hibernate: {e}")),
    }
    if !views[0].is_hibernated(&sleeper) {
        return Err("remote hibernate acked but no bundle is stored locally".into());
    }

    // Remote and local answers must be identical. Journal appends from
    // the spill (event + latency histogram) can still be landing, so
    // each comparison retries briefly before declaring a mismatch.
    let mut agree = |req: ControlRequest| -> Result<ControlResponse, String> {
        let mut last = String::new();
        for _ in 0..100 {
            let remote = client.call(&req).map_err(|e| e.to_string())?;
            let local = serve_request(&views, &req);
            if remote == local {
                return Ok(remote);
            }
            last = format!("remote {remote:?} != local {local:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(format!("{req:?}: {last}"))
    };
    let ControlResponse::Agents(agents) = agree(ControlRequest::ListAgents)? else {
        return Err("unexpected ListAgents response shape".into());
    };
    if !agents
        .iter()
        .any(|a| a.agent == sleeper && a.state == crate::control::AgentState::Hibernated)
    {
        return Err("agent list does not show the sleeper as hibernated".into());
    }
    agree(ControlRequest::Metrics)?;
    agree(ControlRequest::JournalTail {
        cursor: None,
        max: 50,
    })?;
    agree(ControlRequest::Status)?;

    // Wake over the socket; the local handle must see it resident again.
    match client.call(&ControlRequest::Wake {
        agent: sleeper.clone(),
    }) {
        Ok(ControlResponse::Ack(true)) => {}
        Ok(other) => return Err(format!("remote wake answered {other:?}")),
        Err(e) => return Err(format!("remote wake: {e}")),
    }
    if views[0].is_hibernated(&sleeper) {
        return Err("woken sleeper still sits in the bundle store".into());
    }
    if views[0].record_of(&sleeper).is_none() {
        return Err("woken sleeper is no longer resident".into());
    }
    Ok(())
}

/// Launches `agents` tourists around all remote stops and waits for
/// every one of them to report home. Returns (distinct reporters,
/// completed tours).
fn drive_tour(
    server: &ServerHandle,
    owner: &mut Owner,
    names: &[Urn],
    agents: usize,
) -> (usize, usize) {
    let home = server.name().clone();
    let tour = Itinerary::new(names[1..].iter().cloned());
    for _ in 0..agents {
        let agent = owner.next_agent_name("tourist");
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        server.launch_tour(&tour, creds, tourist_image(&tour));
    }
    let reports = server.wait_agents(agents, Duration::from_secs(120));
    let distinct: HashSet<_> = reports.iter().map(|r| r.agent.clone()).collect();
    let completed = reports
        .iter()
        .filter(|r| matches!(r.status, crate::messages::ReportStatus::Completed(_)))
        .count();
    (distinct.len(), completed)
}

/// Waits until this process's reliable-send layer has drained and its
/// journal has stopped recording spans (same discipline as the
/// in-process trace-tour suite: the pending count alone can lie for a
/// beat between an ack landing and its span being appended).
fn quiesce(server: &ServerHandle, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let pending = server.pending_send_count();
        let spans = server.journal().counter(Counter::SpansRecorded);
        std::thread::sleep(Duration::from_millis(20));
        let pending_after = server.pending_send_count();
        let spans_after = server.journal().counter(Counter::SpansRecorded);
        if (pending == 0 && pending_after == 0 && spans == spans_after)
            || Instant::now() >= deadline
        {
            return;
        }
    }
}

/// Counts (agent, hop) pairs this server's journal admitted more than
/// once — zero under the idempotent-admission invariant, no matter how
/// many retry copies the sockets carried.
fn duplicate_admissions(server: &ServerHandle) -> usize {
    let mut seen = HashSet::new();
    let mut dups = 0;
    for record in server.journal().snapshot() {
        if let Event::AgentAdmitted { agent, hop, .. } = record.event {
            if !seen.insert((agent, hop)) {
                dups += 1;
            }
        }
    }
    dups
}

/// Parent-side configuration for a cross-process smoke run.
pub struct SmokeOpts {
    /// Path to the `ajantad` binary to spawn.
    pub bin: PathBuf,
    /// Number of server processes (≥ 2: home plus at least one stop).
    pub servers: usize,
    /// The shared world seed.
    pub seed: u64,
    /// Number of touring agents.
    pub agents: usize,
    /// Injected frame loss on every process's send path.
    pub loss: f64,
    /// `true` for Unix-domain sockets, `false` for TCP on localhost.
    pub uds: bool,
    /// Scratch directory for socket paths and trace exports.
    pub dir: PathBuf,
    /// Hard deadline for the whole run; children are killed past it.
    pub timeout: Duration,
    /// Crash-fault injection: kill and restart one child mid-tour.
    pub kill: Option<KillPlan>,
    /// Serve a control socket (UDS, under `dir`) per child and exercise
    /// the control plane after the tour: sleeper + `PARITY` on child 1,
    /// then an `ajantactl` session (list/metrics/journal/revoke, built
    /// next to `bin`) whose fleet-wide revocation must be visible in
    /// every child's journal.
    pub ctl: bool,
    /// Where to write the `ajantactl` session transcript (CI artifact).
    pub ctl_transcript: Option<PathBuf>,
}

/// Kill-and-restart fault plan for [`run_parent`]: SIGKILL one child
/// mid-tour, keep it down for a window, then respawn it with the same
/// identity and WAL so replay (plus the peers' retry layer) must deliver
/// every agent anyway.
pub struct KillPlan {
    /// Which child to kill (must be ≥ 1 — child 0 drives the tour).
    pub victim: usize,
    /// How long after `GO` the kill lands.
    pub after: Duration,
    /// How long the victim stays down before the respawn.
    pub down: Duration,
}

/// What a cross-process smoke run proved.
pub struct SmokeReport {
    /// Agents launched.
    pub agents: usize,
    /// Distinct agents that reported home.
    pub reported: usize,
    /// Tours that completed cleanly (vs failed/refused).
    pub completed: usize,
    /// Total duplicate (agent, hop) admissions across all processes.
    pub duplicate_admissions: usize,
    /// Trace trees in the merged forest.
    pub traces: usize,
    /// Spans in the merged forest.
    pub spans: usize,
    /// Spans whose parent is missing from the merge.
    pub orphans: usize,
    /// Children killed and successfully restarted mid-run.
    pub restarts: usize,
    /// Agents re-admitted from an admission WAL across all processes.
    pub wal_replays: usize,
    /// Whether the control-plane exercise (PARITY + `ajantactl`
    /// session) ran and passed.
    pub ctl_exercised: bool,
    /// The merged JSONL document itself (for artifact upload).
    pub merged_jsonl: String,
}

/// Spawns `servers` child processes of `bin`, joins them into one world,
/// drives the tour, and merges the per-process trace exports. Kills
/// every child and errors if anything times out.
pub fn run_parent(opts: SmokeOpts) -> Result<SmokeReport, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("mkdir {}: {e}", opts.dir.display()))?;
    if let Some(plan) = &opts.kill {
        if plan.victim == 0 || plan.victim >= opts.servers {
            return Err(format!(
                "kill victim {} out of range (need 1..{})",
                plan.victim, opts.servers
            ));
        }
        if !opts.uds {
            return Err("kill-and-restart needs UDS (the respawn rebinds the same path)".into());
        }
    }
    let deadline = Instant::now() + opts.timeout;

    let trace_paths: Vec<PathBuf> = (0..opts.servers)
        .map(|i| opts.dir.join(format!("trace-{i}.jsonl")))
        .collect();
    // Every child gets a WAL when a crash is planned, so the victim's
    // respawn has admissions to replay.
    let wal_paths: Vec<Option<PathBuf>> = (0..opts.servers)
        .map(|i| {
            opts.kill
                .as_ref()
                .map(|_| opts.dir.join(format!("wal-{i}.log")))
        })
        .collect();
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, String)>();

    let cleanup = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };

    // Control sockets are UDS under the scratch dir regardless of the
    // data plane's transport (the control plane is local-operator
    // trusted), and a pure function of the index so a respawned victim
    // rebinds the same path.
    let ctl_addrs: Vec<String> = (0..opts.servers)
        .map(|i| format!("uds:{}", opts.dir.join(format!("ctl{i}.sock")).display()))
        .collect();

    // Spawning is reused by the restart phase, so the argv (identity,
    // seed, address, WAL path) must be a pure function of the index.
    let spawn_child = |i: usize| -> Result<(Child, std::process::ChildStdin), String> {
        let addr = if opts.uds {
            format!("uds:{}", opts.dir.join(format!("s{i}.sock")).display())
        } else {
            "tcp:127.0.0.1:0".to_string()
        };
        let mut cmd = Command::new(&opts.bin);
        cmd.arg("child")
            .args(["--index", &i.to_string()])
            .args(["--servers", &opts.servers.to_string()])
            .args(["--seed", &format!("{:#x}", opts.seed)])
            .args(["--addr", &addr])
            .args(["--trace-out", &trace_paths[i].display().to_string()])
            .args(["--agents", &opts.agents.to_string()])
            .args(["--loss", &opts.loss.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if opts.ctl {
            cmd.args(["--ctl", &ctl_addrs[i]]);
        }
        if let Some(wal) = &wal_paths[i] {
            cmd.args(["--wal", &wal.display().to_string()]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", opts.bin.display()))?;
        let sin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("ajantad-out-{i}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    match line {
                        Ok(l) => {
                            if tx.send((i, l)).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawning child reader");
        Ok((child, sin))
    };

    let mut children: Vec<Child> = Vec::new();
    let mut stdins = Vec::new();
    for i in 0..opts.servers {
        match spawn_child(i) {
            Ok((child, sin)) => {
                children.push(child);
                stdins.push(sin);
            }
            Err(e) => {
                cleanup(&mut children);
                return Err(e);
            }
        }
    }

    // Phase 1: collect READY <addr> from every child.
    let mut addrs: HashMap<usize, String> = HashMap::new();
    while addrs.len() < opts.servers {
        let (i, line) = match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(m) => m,
            Err(_) => {
                cleanup(&mut children);
                return Err("timed out waiting for children to bind".into());
            }
        };
        match line.strip_prefix("READY ") {
            Some(addr) => {
                addrs.insert(i, addr.to_string());
            }
            None => {
                cleanup(&mut children);
                return Err(format!("child {i}: expected READY, got {line:?}"));
            }
        }
    }

    // Phase 2: cross-register routes, then start the tour.
    let send_all = |msg: &str, stdins: &mut [std::process::ChildStdin]| -> Result<(), String> {
        for (i, sin) in stdins.iter_mut().enumerate() {
            writeln!(sin, "{msg}")
                .and_then(|_| sin.flush())
                .map_err(|e| format!("child {i} stdin: {e}"))?;
        }
        Ok(())
    };
    for (i, sin) in stdins.iter_mut().enumerate() {
        for (j, addr) in &addrs {
            if i != *j {
                if let Err(e) = writeln!(sin, "PEER {j} {addr}") {
                    cleanup(&mut children);
                    return Err(format!("child {i} stdin: {e}"));
                }
            }
        }
    }
    if let Err(e) = send_all("GO", &mut stdins) {
        cleanup(&mut children);
        return Err(e);
    }

    // Phase 3a: crash-fault injection. SIGKILL the victim mid-tour, wait
    // out the down window, then respawn it on the same UDS path with the
    // same identity and WAL. Peers keep retrying into the outage; the
    // respawn replays its WAL, so every admitted agent must still arrive.
    let mut restarts = 0usize;
    let mut parked: Vec<(usize, String)> = Vec::new();
    if let Some(plan) = &opts.kill {
        let victim = plan.victim;
        std::thread::sleep(plan.after);
        let _ = children[victim].kill();
        let _ = children[victim].wait();
        std::thread::sleep(plan.down);
        // The SIGKILLed process left its socket file behind; the rebind
        // needs the path free.
        let _ = std::fs::remove_file(opts.dir.join(format!("s{victim}.sock")));
        match spawn_child(victim) {
            Ok((child, sin)) => {
                children[victim] = child;
                stdins[victim] = sin;
            }
            Err(e) => {
                cleanup(&mut children);
                return Err(format!("respawning child {victim}: {e}"));
            }
        }
        // Wait for the reborn child's READY, parking unrelated lines
        // (child 0's RESULT may already be in flight).
        loop {
            let (i, line) =
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(m) => m,
                    Err(_) => {
                        cleanup(&mut children);
                        return Err("timed out waiting for the restarted child to bind".into());
                    }
                };
            if i == victim {
                if let Some(addr) = line.strip_prefix("READY ") {
                    addrs.insert(victim, addr.to_string());
                    break;
                }
            }
            parked.push((i, line));
        }
        // Re-teach the reborn child its routes (its table died with the
        // old process) and refresh the survivors' route to it.
        for (j, addr) in &addrs {
            if *j != victim {
                if let Err(e) = writeln!(stdins[victim], "PEER {j} {addr}") {
                    cleanup(&mut children);
                    return Err(format!("child {victim} stdin: {e}"));
                }
            }
        }
        let victim_addr = addrs[&victim].clone();
        for (i, sin) in stdins.iter_mut().enumerate() {
            if i != victim {
                if let Err(e) = writeln!(sin, "PEER {victim} {victim_addr}") {
                    cleanup(&mut children);
                    return Err(format!("child {i} stdin: {e}"));
                }
            }
        }
        if let Err(e) = stdins[victim].flush() {
            cleanup(&mut children);
            return Err(format!("child {victim} stdin: {e}"));
        }
        restarts = 1;
    }

    // Phase 3: wait for child 0's RESULT.
    let (mut reported, mut completed) = (0usize, 0usize);
    loop {
        let (i, line) = if parked.is_empty() {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(m) => m,
                Err(_) => {
                    cleanup(&mut children);
                    return Err("timed out waiting for the tour to resolve".into());
                }
            }
        } else {
            parked.remove(0)
        };
        if i == 0 && line.starts_with("RESULT ") {
            for word in line.split_whitespace().skip(1) {
                if let Some(v) = word.strip_prefix("reported=") {
                    reported = v.parse().unwrap_or(0);
                } else if let Some(v) = word.strip_prefix("completed=") {
                    completed = v.parse().unwrap_or(0);
                }
            }
            break;
        }
    }

    // Phase 3b: control-plane exercise. With the tour resolved, plant a
    // sleeper on child 1, assert remote/local parity inside that child,
    // then drive an `ajantactl` session against every child's control
    // socket — including a fleet-wide revocation that must surface in
    // every journal.
    let mut ctl_exercised = false;
    if opts.ctl {
        match control_phase(&opts, &ctl_addrs, &mut stdins, &rx, &mut parked, deadline) {
            Ok(()) => ctl_exercised = true,
            Err(e) => {
                cleanup(&mut children);
                return Err(format!("control-plane exercise: {e}"));
            }
        }
    }

    // Phase 4: quiesce every process and collect DONE + dup counts.
    if let Err(e) = send_all("STOP", &mut stdins) {
        cleanup(&mut children);
        return Err(e);
    }
    let mut dups_total = 0usize;
    let mut replays_total = 0usize;
    let mut done: HashSet<usize> = HashSet::new();
    while done.len() < opts.servers {
        let (i, line) = match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(m) => m,
            Err(_) => {
                cleanup(&mut children);
                return Err("timed out waiting for children to quiesce".into());
            }
        };
        if let Some(rest) = line.strip_prefix("DONE ") {
            done.insert(i);
            for word in rest.split_whitespace() {
                if let Some(v) = word.strip_prefix("dups=") {
                    dups_total += v.parse::<usize>().unwrap_or(0);
                } else if let Some(v) = word.strip_prefix("replays=") {
                    replays_total += v.parse::<usize>().unwrap_or(0);
                }
            }
        }
    }

    // Phase 5: clean exit.
    let _ = send_all("EXIT", &mut stdins);
    drop(stdins);
    for (i, mut child) in children.into_iter().enumerate() {
        while Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        return Err(format!("child {i} exited with {status}"));
                    }
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("waiting for child {i}: {e}")),
            }
        }
        if child.try_wait().ok().flatten().is_none() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("child {i} never exited"));
        }
    }

    // Phase 6: merge the per-process exports into one causal forest.
    let mut merged = String::new();
    for path in &trace_paths {
        merged.push_str(
            &std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?,
        );
    }
    let records = parse_jsonl(&merged).map_err(|e| format!("merged JSONL does not parse: {e}"))?;
    let forest = TraceForest::build(records);

    Ok(SmokeReport {
        agents: opts.agents,
        reported,
        completed,
        duplicate_admissions: dups_total,
        traces: forest.traces.len(),
        spans: forest.span_count(),
        orphans: forest.orphan_count(),
        restarts,
        wal_replays: replays_total,
        ctl_exercised,
        merged_jsonl: merged,
    })
}

/// Drives the post-tour control-plane exercise (see phase 3b).
fn control_phase(
    opts: &SmokeOpts,
    ctl_addrs: &[String],
    stdins: &mut [std::process::ChildStdin],
    rx: &crossbeam::channel::Receiver<(usize, String)>,
    parked: &mut Vec<(usize, String)>,
    deadline: Instant,
) -> Result<(), String> {
    use crate::control::{AgentState, ControlClient, ControlRequest, ControlResponse};

    let mut recv_from = |want: usize, prefix: &str| -> Result<String, String> {
        if let Some(pos) = parked
            .iter()
            .position(|(i, l)| *i == want && l.starts_with(prefix))
        {
            return Ok(parked.remove(pos).1);
        }
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((i, line)) if i == want && line.starts_with(prefix) => return Ok(line),
                Ok(other) => parked.push(other),
                Err(_) => {
                    return Err(format!(
                        "timed out waiting for {prefix:?} from child {want}"
                    ))
                }
            }
        }
    };

    // Plant the hibernation subject: child 0 launches a sleeper to
    // child 1, and the parent watches child 1's control socket until
    // the admission lands.
    writeln!(stdins[0], "SLEEPER 1")
        .and_then(|_| stdins[0].flush())
        .map_err(|e| format!("child 0 stdin: {e}"))?;
    let line = recv_from(0, "SLEEPER ")?;
    let sleeper = line.trim_start_matches("SLEEPER ").trim().to_string();
    let mut client = loop {
        match ControlClient::connect_str(&ctl_addrs[1]) {
            Ok(c) => break c,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connecting {}: {e}", ctl_addrs[1]));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    loop {
        let resident = match client.call(&ControlRequest::ListAgents) {
            Ok(ControlResponse::Agents(list)) => list
                .iter()
                .any(|a| a.agent.to_string() == sleeper && a.state == AgentState::Resident),
            Ok(_) => false,
            Err(e) => return Err(format!("listing agents on {}: {e}", ctl_addrs[1])),
        };
        if resident {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "sleeper {sleeper} never became resident on child 1"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);

    // Remote/local parity, asserted inside child 1 against its own
    // control socket (including the hibernate/wake round trip).
    writeln!(stdins[1], "PARITY {sleeper}")
        .and_then(|_| stdins[1].flush())
        .map_err(|e| format!("child 1 stdin: {e}"))?;
    let verdict = recv_from(1, "PARITY")?;
    if verdict != "PARITY ok" {
        return Err(format!("child 1: {verdict}"));
    }

    // The ajantactl session. Transcript is written even when a step
    // fails, so CI keeps the evidence either way.
    let ajantactl = opts.bin.with_file_name("ajantactl");
    if !ajantactl.exists() {
        return Err(format!("{} not built", ajantactl.display()));
    }
    let mut transcript = String::new();
    let result = ctl_session(&ajantactl, ctl_addrs, opts.agents, &mut transcript);
    if let Some(path) = &opts.ctl_transcript {
        std::fs::write(path, &transcript)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Park the sleeper for good: it would otherwise busy-poll its
    // mailbox through quiesce and shutdown. Best effort — the exercise
    // verdict is already decided.
    if let (Ok(mut client), Ok(urn)) = (
        ControlClient::connect_str(&ctl_addrs[1]),
        sleeper.parse::<Urn>(),
    ) {
        let _ = client.call(&ControlRequest::Hibernate { agent: urn });
    }
    result
}

/// Runs the `ajantactl` binary through the acceptance session: health,
/// list, metrics, histograms, a gap-checked journal follow, the tour's
/// full admission history, and a fleet-wide revocation visible in every
/// server's journal. Every invocation must exit 0 with non-empty
/// output; everything is appended to `transcript`.
fn ctl_session(
    bin: &std::path::Path,
    endpoints: &[String],
    agents: usize,
    transcript: &mut String,
) -> Result<(), String> {
    let run = |ctls: &[String], extra: &[&str], transcript: &mut String| {
        let mut args: Vec<String> = Vec::new();
        for e in ctls {
            args.push("--ctl".into());
            args.push(e.clone());
        }
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = Command::new(bin)
            .args(&args)
            .output()
            .map_err(|e| format!("spawning ajantactl: {e}"))?;
        transcript.push_str(&format!("$ ajantactl {}\n", args.join(" ")));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        transcript.push_str(&stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !stderr.is_empty() {
            transcript.push_str(&stderr);
        }
        transcript.push('\n');
        if !out.status.success() {
            return Err(format!(
                "ajantactl {} exited {}",
                extra.join(" "),
                out.status
            ));
        }
        if stdout.trim().is_empty() {
            return Err(format!("ajantactl {} produced no output", extra.join(" ")));
        }
        Ok(stdout)
    };

    run(endpoints, &["--json", "health"], transcript)?;
    run(endpoints, &["--json", "list"], transcript)?;
    run(endpoints, &["--json", "metrics"], transcript)?;
    run(endpoints, &["--json", "histo"], transcript)?;
    run(endpoints, &["--json", "status"], transcript)?;
    // The follower's drop-aware gap accounting over the whole retained
    // journal: exits non-zero on any hole the drop counters don't cover.
    run(
        endpoints,
        &["follow", "--for-ms", "300", "--max", "100000"],
        transcript,
    )?;
    // Every touring agent must be visible in the control plane's
    // admission history.
    let journal = run(
        endpoints,
        &["--json", "journal", "--tail", "100000"],
        transcript,
    )?;
    let mut admitted: HashSet<&str> = HashSet::new();
    for chunk in journal.split("\"label\":\"agent-admitted\"").skip(1) {
        if let Some(agent) = chunk
            .split("\"agent\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
        {
            if agent.contains("/tourist") {
                admitted.insert(agent);
            }
        }
    }
    if admitted.len() < agents {
        return Err(format!(
            "journal shows {} distinct touring agents, expected {agents}",
            admitted.len()
        ));
    }
    // Fleet-wide revocation, then its mark in every server's journal.
    run(
        endpoints,
        &["--json", "revoke", "ajn://tour.org/resource/jobs"],
        transcript,
    )?;
    for e in endpoints {
        let page = run(
            std::slice::from_ref(e),
            &["--json", "journal", "--tail", "50"],
            transcript,
        )?;
        if !page.contains("\"label\":\"proxy-revoke\"") {
            return Err(format!("revocation not visible in the journal via {e}"));
        }
    }
    Ok(())
}
