//! The workloads and the closed-loop generator that drives them.
//!
//! One generator thread keeps `in_flight` agent slots busy: each slot
//! launches its next agent, with a fresh name and freshly signed
//! credentials, when its previous agent's report reaches home. A run
//! serves a fixed number of agents (warm-up, then timed), never a fixed
//! duration: per-agent CPU and memory grow with the history a world has
//! served, so a faster program must not be charged for serving more.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ajanta_core::{BoundedBuffer, Guarded, ProxyPolicy, Rights};
use ajanta_crypto::DetRng;
use ajanta_naming::Urn;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::{Counter, Event, Owner, ReportStatus, TransportMode, World};
use ajanta_vm::{assemble, AgentImage, Value};

use crate::follow::Follower;
use crate::procfs::{self, HostCpu};
use crate::stats::{Latencies, LayerDelta, LayerSnapshot};
use crate::trace::Tracer;

/// One workload: the world it runs on and the agent it launches.
#[derive(Debug)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Network between the servers.
    pub transport: TransportMode,
    /// Mobile state each agent carries, bytes.
    pub cargo: usize,
    /// Whether each stop hosts the shared buffer the agent accesses.
    pub access: bool,
    /// Closed-loop slots.
    pub in_flight: usize,
    /// Agents served before the timed window opens.
    pub warmup: usize,
    /// Timed agents per requested second. A constant that sizes the run
    /// to roughly `--seconds` on a 2-vCPU host; it is never measured, so
    /// every build serves the same agents for the same arguments.
    pub agents_per_second: usize,
    /// Timed agents each world serves: at least 1,000, so ten or more
    /// samples lie beyond p99.
    pub world_agents: usize,
    /// The report every agent must send home.
    pub expected: &'static str,
}

/// Stops on every tour (the home server is server 0).
pub const STOPS: usize = 3;

/// `put`/`get` pairs an `access` agent makes at each stop.
pub const PAIRS_PER_STOP: usize = 50;

/// The workloads. Why each exists is in `perfbench/NOTES.md`. The last,
/// `uds16k`, is not benchmarked: it reproduces the UDS retry storm.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tour",
        transport: TransportMode::Sim,
        cargo: 256,
        access: false,
        in_flight: 32,
        warmup: 500,
        agents_per_second: 2000,
        world_agents: 2000,
        expected: "3",
    },
    Spec {
        name: "uds",
        transport: TransportMode::Uds,
        cargo: 4096,
        access: false,
        in_flight: 16,
        warmup: 300,
        agents_per_second: 600,
        world_agents: 1000,
        expected: "3",
    },
    Spec {
        name: "access",
        transport: TransportMode::Sim,
        cargo: 0,
        access: true,
        in_flight: 16,
        warmup: 300,
        agents_per_second: 650,
        world_agents: 1000,
        expected: "300",
    },
    Spec {
        name: "uds16k",
        transport: TransportMode::Uds,
        cargo: 16384,
        access: false,
        in_flight: 16,
        warmup: 300,
        agents_per_second: 200,
        world_agents: 1000,
        expected: "3",
    },
];

/// The workloads `BENCHMARK.json` lists, in the order `--workload all`
/// runs them.
pub const BENCHMARKED: [&str; 3] = ["tour", "uds", "access"];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Whether the servers talk over real sockets.
    pub fn sockets(&self) -> bool {
        self.transport != TransportMode::Sim
    }

    /// Worlds a run of `seconds` builds: enough to serve about
    /// `agents_per_second × seconds` timed agents, and at least three.
    pub fn worlds(&self, seconds: u64) -> usize {
        (self.agents_per_second * seconds as usize / self.world_agents).max(3)
    }
}

/// The name every stop registers its buffer under, so the one name an
/// agent carries resolves at each stop.
pub fn buffer_name() -> Urn {
    Urn::resource("bench.org", ["buf"]).expect("canonical resource name")
}

/// A sub-seed for one input, so inputs stay independent of each other.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut rng = DetRng::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Visits every stop: binds the shared buffer (Fig. 6), makes
/// `PAIRS_PER_STOP` `put`/`get` pairs through its proxy, and moves on.
/// Returns the number of calls that succeeded over the whole tour.
const ACCESS_AGENT: &str = r#"
    module accessor
    import env.go_tour (bytes, bytes) -> int
    import env.itin_tail (bytes) -> bytes
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes, bytes) -> bytes
    import env.args_b (bytes) -> bytes
    import env.args0 () -> bytes
    import env.res_ok (bytes) -> int
    global itin: bytes
    global item: bytes
    global calls: int
    data entry = "run"
    data rname = "ajn://bench.org/resource/buf"
    data mput = "put"
    data mget = "get"

    func run(arg: bytes) -> int
      locals full: bytes, h: int, left: int
      pushd rname
      hostcall env.get_resource
      store h
      push PAIRS
      store left
    pair:
      load left
      jz moved
      load h
      pushd mput
      gload item
      hostcall env.args_b
      hostcall env.invoke
      hostcall env.res_ok
      gload calls
      add
      gstore calls
      load h
      pushd mget
      hostcall env.args0
      hostcall env.invoke
      hostcall env.res_ok
      gload calls
      add
      gstore calls
      load left
      push 1
      sub
      store left
      jump pair
    moved:
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
      gload calls
      ret
"#;

/// The image every agent of `spec` starts from. `carried` is the tour
/// minus its first stop (where the launch delivers the agent); the seed
/// fills the cargo and the item the `access` agent stores.
pub fn agent_image(spec: &Spec, seed: u64, carried: &Itinerary) -> AgentImage {
    let mut rng = DetRng::new(derive(seed, 2));
    if spec.access {
        let src = ACCESS_AGENT.replace("PAIRS", &PAIRS_PER_STOP.to_string());
        let mut item = vec![0u8; 32];
        rng.fill_bytes(&mut item);
        let image = AgentImage {
            module: assemble(&src).expect("access agent assembles"),
            globals: vec![
                Value::Bytes(carried.encode()),
                Value::Bytes(item),
                Value::Int(0),
            ],
            entry: "run".into(),
        };
        image.validate().expect("access agent image is consistent");
        image
    } else {
        let mut image = ajanta_workloads::payload_agent(spec.cargo, carried);
        let mut cargo = vec![0u8; spec.cargo];
        rng.fill_bytes(&mut cargo);
        image.globals[1] = Value::Bytes(cargo);
        image
    }
}

/// A built world with its owner, tour, and agent image.
pub struct Bench {
    /// The running world; server 0 is home.
    pub world: World,
    owner: Owner,
    tour: Itinerary,
    image: AgentImage,
}

impl Bench {
    /// Builds `spec`'s world from `seed`: four servers on two scheduler
    /// workers, every program default kept (retry policy, journal
    /// capacity, slice fuel).
    pub fn build(spec: &Spec, seed: u64) -> Bench {
        let mut world = World::builder(STOPS + 1)
            .seed(derive(seed, 1))
            .workers(2)
            .transport(spec.transport)
            .build();
        if spec.access {
            for i in 1..=STOPS {
                let buffer = BoundedBuffer::new(
                    buffer_name(),
                    Urn::owner("bench.org", ["admin"]).expect("canonical owner"),
                    // Each agent holds at most one item at a time.
                    4 * spec.in_flight,
                );
                world
                    .server(i)
                    .register_resource(Guarded::new(buffer, ProxyPolicy::default()))
                    .expect("registering the stop's buffer");
            }
        }
        let owner = world.owner("bench");
        let tour = Itinerary::new((1..=STOPS).map(|i| world.server(i).name().clone()));
        let (_, carried) = tour.clone().next_stop();
        let image = agent_image(spec, seed, &carried);
        Bench {
            world,
            owner,
            tour,
            image,
        }
    }
}

/// The timed window of a run.
#[derive(Debug)]
pub struct Window {
    /// Timed agents.
    pub agents: usize,
    /// Wall time from the first timed launch to the last report, s.
    pub wall_s: f64,
    /// Process CPU over the same interval, s.
    pub cpu_s: f64,
    /// Process CPU until half the timed agents had reported, s.
    pub cpu_first_half_s: f64,
    /// Resident memory growth over the window, MiB.
    pub rss_growth_mib: f64,
    /// Launch→report latencies of the timed agents.
    pub latencies: Latencies,
    /// Counter, histogram, and transport growth over the window.
    pub layers: LayerDelta,
    /// Host steal and idle shares over the window.
    pub host: (f64, f64),
}

impl Window {
    /// Timed agents served per second.
    pub fn agents_per_s(&self) -> f64 {
        self.agents as f64 / self.wall_s
    }

    /// Process CPU per timed agent, ms.
    pub fn cpu_ms_per_agent(&self) -> f64 {
        self.cpu_s * 1e3 / self.agents as f64
    }

    /// CPU per agent in the window's second half over its first half,
    /// minus 1: how much dearer agents got as the world's history grew.
    pub fn cpu_drift_frac(&self) -> f64 {
        let first = self.agents / 2;
        let late = (self.cpu_s - self.cpu_first_half_s) / (self.agents - first) as f64;
        late / (self.cpu_first_half_s / first as f64) - 1.0
    }

    /// The latency `q`-quantile, ms. A quantile that lands on a failed
    /// agent reads as the whole window: slower than anything measured,
    /// and still finite.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latencies.quantile(q).unwrap_or(self.wall_s * 1e3)
    }
}

/// Everything one world's run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Build start → first timed launch, s.
    pub setup_s: f64,
    /// The timed window (absent when it never closed).
    pub window: Option<Window>,
    /// Agents launched.
    pub attempted: usize,
    /// Agents whose report was not the expected one, or missing.
    pub failed: usize,
    /// Correctness-gate violations, one line each.
    pub errors: Vec<String>,
    /// Completion-follower figures: holes held, seqs skipped, and
    /// reports the follower missed but the final cross-check found.
    pub follow: (u64, u64, u64),
}

struct Pending {
    index: usize,
    launched_at: Instant,
}

/// How often the generator looks for new reports.
const POLL: Duration = Duration::from_micros(200);
/// With agents pending and no report for this long, the generator asks
/// the home server's report list whether the follower missed one.
const STALL_CHECK: Duration = Duration::from_secs(2);
/// With no report for this long the run gives up on the pending agents.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// Acks for the last reports are still in flight when they land; this
/// bounds the wait for every server to quiesce.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Builds a world for `spec`, serves `spec.warmup` warm-up agents and then
/// `timed` (at least 2) timed ones through the closed loop, checks every
/// report and the quiesced servers, and shuts the world down.
pub fn run_world(spec: &Spec, seed: u64, timed: usize, tracer: &mut Tracer) -> Outcome {
    let t_setup = Instant::now();
    let mut bench = Bench::build(spec, seed);
    let home = bench.world.server(0).name().clone();
    let journal = bench.world.server(0).journal();
    let total = spec.warmup + timed;
    let mut follower = Follower::new(&journal);
    let reported_base = journal.counter(Counter::AgentsReported);
    let mut reports_read = 0u64;
    let mut pending: HashMap<Urn, Pending> = HashMap::with_capacity(spec.in_flight * 2);
    let mut names: Vec<Urn> = Vec::with_capacity(total);
    let mut latencies = Latencies::default();
    let mut timed_done = 0usize;
    let mut half_cpu = 0.0;
    let mut misses = 0u64;
    let mut errors = Vec::new();

    let launch = |bench: &mut Bench, tracer: &mut Tracer, names: &mut Vec<Urn>| {
        let agent = bench.owner.next_agent_name("a");
        let creds = tracer.span("runtime.owner.credentials", None, |_, _| {
            bench
                .owner
                .credentials(agent.clone(), home.clone(), Rights::all(), u64::MAX)
        });
        let image = bench.image.clone();
        let launched_at = Instant::now();
        tracer.span("runtime.launch_tour", None, |_, _| {
            bench.world.server(0).launch_tour(&bench.tour, creds, image)
        });
        names.push(agent.clone());
        (agent, launched_at)
    };

    for _ in 0..spec.in_flight.min(total) {
        let index = names.len();
        let (agent, launched_at) = launch(&mut bench, tracer, &mut names);
        pending.insert(agent, Pending { index, launched_at });
    }

    let mut completed = 0usize;
    let mut window_start: Option<(Instant, f64, LayerSnapshot, HostCpu, f64)> = None;
    let mut setup_s = 0.0;
    let mut window_end: Option<(Instant, f64, LayerSnapshot, HostCpu, f64)> = None;
    let mut last_progress = Instant::now();
    let mut stall_checked = false;
    while completed < total {
        let announced = journal.counter(Counter::AgentsReported) - reported_base;
        let mut done: Vec<(Urn, Instant)> = Vec::new();
        if reports_read < announced {
            let records = tracer.span("core.journal.since", None, |_, _| follower.poll(&journal));
            let now = Instant::now();
            for r in records {
                if let Event::AgentReported { agent, .. } = r.event {
                    reports_read += 1;
                    done.push((agent, now));
                }
            }
        } else if !pending.is_empty() && last_progress.elapsed() >= STALL_CHECK && !stall_checked {
            // A report the follower lost would stall its slot forever:
            // ask the home server's report list once per stall.
            stall_checked = true;
            let now = Instant::now();
            for r in bench.world.server(0).reports() {
                if pending.contains_key(&r.agent) {
                    misses += 1;
                    done.push((r.agent, now));
                }
            }
        }
        if done.is_empty() {
            if last_progress.elapsed() >= STALL_LIMIT {
                errors.push(format!(
                    "{} agents had not reported after {STALL_LIMIT:?} without progress",
                    pending.len()
                ));
                break;
            }
            std::thread::sleep(POLL);
            continue;
        }
        last_progress = Instant::now();
        stall_checked = false;
        for (agent, at) in done {
            let Some(p) = pending.remove(&agent) else {
                continue;
            };
            completed += 1;
            if p.index >= spec.warmup {
                latencies.push(at.duration_since(p.launched_at).as_secs_f64() * 1e3);
                tracer.record("agent", p.launched_at, at, &agent);
                timed_done += 1;
                if timed_done == timed / 2 {
                    half_cpu = procfs::process_cpu_s();
                }
            }
            if names.len() == spec.warmup && window_start.is_none() {
                // The first timed agent launches now: setup ends here.
                setup_s = t_setup.elapsed().as_secs_f64();
                window_start = Some((
                    Instant::now(),
                    procfs::process_cpu_s(),
                    LayerSnapshot::take(&bench.world),
                    procfs::host_cpu(),
                    procfs::rss_mib(),
                ));
            }
            if names.len() < total {
                let index = names.len();
                let (agent, launched_at) = launch(&mut bench, tracer, &mut names);
                pending.insert(agent, Pending { index, launched_at });
            }
        }
        if completed == total {
            window_end = Some((
                Instant::now(),
                procfs::process_cpu_s(),
                LayerSnapshot::take(&bench.world),
                procfs::host_cpu(),
                procfs::rss_mib(),
            ));
        }
    }
    for p in pending.values() {
        if p.index >= spec.warmup {
            latencies.push_failed();
        }
    }

    errors.extend(drain(&bench.world));
    let failed = check_reports(&bench, &names, spec.expected, &mut errors);

    if window_start.is_none() {
        setup_s = t_setup.elapsed().as_secs_f64();
    }
    let window = match (window_start, window_end) {
        (Some(start), Some(end)) => Some(Window {
            agents: timed,
            wall_s: end.0.duration_since(start.0).as_secs_f64(),
            cpu_s: end.1 - start.1,
            cpu_first_half_s: half_cpu - start.1,
            rss_growth_mib: end.4 - start.4,
            latencies,
            layers: LayerDelta::new(start.2, end.2),
            host: start.3.fracs_until(&end.3),
        }),
        _ => {
            errors.push("the timed window never closed".into());
            None
        }
    };
    bench.world.shutdown();
    Outcome {
        setup_s,
        window,
        attempted: names.len(),
        failed,
        errors,
        follow: (follower.holes_held, follower.skipped, misses),
    }
}

/// Waits until every server holds no resident agent, no unacked send and
/// no agent in flight; returns a line per server that never got there.
fn drain(world: &World) -> Vec<String> {
    let deadline = Instant::now() + DRAIN_LIMIT;
    loop {
        let busy: Vec<String> = world
            .servers
            .iter()
            .filter_map(|s| {
                let (resident, sends, in_flight) = (
                    s.resident_agents(),
                    s.pending_send_count(),
                    s.in_flight_agents().len(),
                );
                (resident + sends + in_flight > 0).then(|| {
                    format!(
                        "{} not quiescent: {resident} resident, {sends} pending sends, {in_flight} in flight",
                        s.name()
                    )
                })
            })
            .collect();
        if busy.is_empty() || Instant::now() >= deadline {
            return busy;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Checks, once, that every launched agent sent home exactly one report
/// and that it is `Completed(expected)`; returns the agents that did not.
fn check_reports(bench: &Bench, names: &[Urn], expected: &str, errors: &mut Vec<String>) -> usize {
    let home = bench.world.server(0);
    let reports = home.wait_reports(names.len(), Duration::from_secs(5));
    let mut by_agent: HashMap<&Urn, Vec<&ReportStatus>> = HashMap::with_capacity(reports.len());
    for r in &reports {
        by_agent.entry(&r.agent).or_default().push(&r.status);
    }
    let mut failed = 0;
    for name in names {
        match by_agent.get(name).map(Vec::as_slice) {
            Some([ReportStatus::Completed(v)]) if v == expected => {}
            other => {
                failed += 1;
                if failed <= 5 {
                    errors.push(format!(
                        "{name}: expected one Completed({expected}), got {other:?}"
                    ));
                }
            }
        }
    }
    if reports.len() != names.len() {
        errors.push(format!(
            "home holds {} reports for {} launched agents",
            reports.len(),
            names.len()
        ));
    }
    failed
}
