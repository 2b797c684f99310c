//! The custody simulator: three real servers stepped by one seeded,
//! single-threaded driver on one virtual clock.
//!
//! Each server is built by [`AgentServer::start`], the constructor
//! [`AgentServer::spawn`] uses, minus its thread. A seeded [`Port`]
//! reads the custody clock off the virtual clock and hands the driver
//! the stays a step admits, which it runs slice by slice through the
//! real [`AgentTask`]. A seeded [`Transport`] hands it every sealed
//! frame, and it delivers them, after a random delay, over a link that
//! drops and duplicates; the endpoint returns what it delivered. Each
//! call of [`LoopState::step`] is one pass of the server loop, and the
//! step's wait sets when the server's next retry pass is due.
//!
//! An effect is a frame sent, a WAL record appended or a batch of stays
//! handed on. At an effect made from a stay or a launch, the driver may
//! run other pending work before the call returns: a delivery to a
//! server whose step is not on the stack, or another stay's slice, as
//! other threads would while the stay's own thread stalls. A non-home
//! server may crash before any one of its effects: its memory is gone
//! and its WAL file stays, and it restarts from its [`ServerConfig`]
//! and that file. The home, server 0, never crashes, because launches
//! are not in any WAL.
//!
//! The checks read only what the servers keep: their journals, their
//! WAL files and their custody state.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Weak;

use ajanta_core::{PrincipalPattern, Rights, SecurityPolicy, UsageLimits};
use ajanta_net::{Adversary, NetStats, TransportKind, VClock};
use ajanta_vm::{assemble, Limits, Value};

use super::*;
use crate::custody::RetryPolicy;
use crate::world::mint;

const SERVERS: usize = 3;
const HOME: usize = 0;
const AGENTS: u64 = 6;
const MS: u64 = 1_000_000;

/// A touring agent that migrates with `env.go_tour`, so its server
/// knows the remaining stops and can skip an unreachable one.
const TOURIST: &str = r#"
    module tourist
    import env.go_tour (bytes, bytes) -> int
    import env.itin_tail (bytes) -> bytes
    global itin: bytes
    data entry = "run"

    func run(arg: bytes) -> int
      locals full: bytes
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
    done:
      push 0
      ret
"#;

/// How one seed's world misbehaves.
#[derive(Clone, Copy, PartialEq)]
enum Faults {
    /// A link that drops 20% and duplicates 10% of frames, a 5 ms ack
    /// grace, and a crash of a non-home server.
    Crashing,
    /// A link that only reorders, an ack grace longer than any round
    /// trip, and no crash: nothing should ever be retried.
    Lossless,
}

/// Whose code is running, as the driver's stack records it.
enum Ctx {
    Step,
    Stay,
    Launch,
}

/// One effect as the determinism log keeps it: the server, what it did,
/// the virtual time and a digest of the frame or record.
type Effect = (usize, &'static str, u64, u64);

/// What the seeds reached, so the test can show every path ran.
#[derive(Default, Debug)]
struct Tally {
    acked: u64,
    skipped: u64,
    sent_home: u64,
    lost: u64,
    duplicates: u64,
    /// Frames refused at open because a restart closed their session.
    refused: u64,
    replayed: u64,
    crashes: u64,
    /// Admissions whose custody rode an unacked frame at a crash.
    caught_in_flight: u64,
    retries: u64,
}

impl Tally {
    fn add(&mut self, t: &Tally) {
        self.acked += t.acked;
        self.skipped += t.skipped;
        self.sent_home += t.sent_home;
        self.lost += t.lost;
        self.duplicates += t.duplicates;
        self.refused += t.refused;
        self.replayed += t.replayed;
        self.crashes += t.crashes;
        self.caught_in_flight += t.caught_in_flight;
        self.retries += t.retries;
    }
}

/// A frame one server incarnation tracked, as its custody showed it.
struct Frame {
    dest: Urn,
    span: SpanId,
    custody: Option<(Urn, u64)>,
    ended: Option<&'static str>,
}

/// The driver's view of one server.
struct Server {
    shared: Arc<Shared>,
    incarnation: u32,
    /// While down: when it restarts.
    down_until: Option<u64>,
    /// Effects so far, over all incarnations; the crash point counts
    /// them.
    effects: u64,
    /// When its next retry pass is due.
    timer: u64,
    /// The next journal record to read.
    cursor: u64,
    /// How many frames its custody tracked at the last look.
    tracking: usize,
    /// Keys this incarnation replayed from its WAL and has not yet
    /// re-admitted.
    replaying: HashSet<(Urn, u64)>,
    /// Every incarnation's journal.
    journals: Vec<Arc<Journal>>,
}

/// What the driver knows, locked only between calls into the servers.
struct State {
    seed: u64,
    rng: DetRng,
    faults: Faults,
    names: Vec<Urn>,
    configs: Vec<ServerConfig>,
    servers: Vec<Server>,
    /// The crash point, until it is reached: this server, before this
    /// many of its effects.
    crash_at: Option<(usize, u64)>,
    /// Frames in flight by (arrival, order): (to, delivery).
    link: BTreeMap<(u64, u64), (usize, Delivery)>,
    /// Stays waiting for a slice, by (ready, order).
    stays: BTreeMap<(u64, u64), Stay>,
    order: u64,
    stack: Vec<Ctx>,
    log: Vec<Effect>,
    tally: Tally,
    frames: BTreeMap<(usize, u32, SendKey), Frame>,
    /// Admissions per (server, incarnation, agent, hop).
    admitted: HashMap<(usize, u32, Urn, u64), u32>,
    lost: HashSet<Urn>,
}

/// A stay waiting for its slice: its server, incarnation and task.
type Stay = (usize, u32, Box<dyn Task>);

/// One server's loop: what [`server_loop`] keeps on its stack.
struct Loop {
    state: LoopState,
    endpoint: Box<dyn NetEndpoint>,
}

/// The driver.
struct Sim {
    clock: VClock,
    state: Mutex<State>,
    /// Each server's loop, locked while its step runs: a server whose
    /// lock is taken has its step on the stack.
    loops: Vec<Mutex<Option<Loop>>>,
    /// What the driver delivered to each server, for its endpoint.
    inboxes: Vec<Arc<Mutex<VecDeque<Delivery>>>>,
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One incarnation's network: every frame it sends goes to the driver.
struct Net {
    sim: Weak<Sim>,
    clock: VClock,
    server: usize,
    incarnation: u32,
}

impl Transport for Net {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn clock(&self) -> &VClock {
        &self.clock
    }

    fn attach(&self, name: Urn) -> Result<Box<dyn NetEndpoint>, NetError> {
        let sim = self.sim.upgrade().expect("the driver outlives its servers");
        let inbox = Arc::clone(&sim.inboxes[self.server]);
        Ok(Box::new(Inbox { name, inbox }))
    }

    fn detach(&self, _: &Urn) {}

    fn send_as(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        if let Some(sim) = self.sim.upgrade() {
            sim.send(self.server, self.incarnation, from, to, payload);
        }
        Ok(())
    }

    fn stats(&self) -> NetStats {
        NetStats::default()
    }

    fn reset_stats(&self) {}

    fn set_adversary(&self, _: Option<Arc<dyn Adversary>>) {}
}

/// A server's endpoint: it returns what the driver delivered, and never
/// blocks.
struct Inbox {
    name: Urn,
    inbox: Arc<Mutex<VecDeque<Delivery>>>,
}

impl NetEndpoint for Inbox {
    fn name(&self) -> &Urn {
        &self.name
    }

    fn send(&self, _: &Urn, _: Vec<u8>) -> Result<(), NetError> {
        Err(NetError::Io("servers send with send_as".into()))
    }

    fn recv(&self) -> Result<Delivery, NetError> {
        self.try_recv()
    }

    fn try_recv(&self) -> Result<Delivery, NetError> {
        self.inbox.lock().pop_front().ok_or(NetError::Empty)
    }

    fn recv_timeout(&self, _: Duration) -> Result<Delivery, NetError> {
        self.try_recv()
    }
}

/// One incarnation's port: the custody clock is the virtual clock since
/// the incarnation started, and every append and hand-off is an effect.
struct Seeded {
    sim: Weak<Sim>,
    clock: VClock,
    born: u64,
    server: usize,
    incarnation: u32,
}

impl Port for Seeded {
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.clock.now() - self.born)
    }

    fn append(&self, wal: &AdmissionWal, record: &WalRecord) -> bool {
        let Some(sim) = self.sim.upgrade() else {
            return false;
        };
        let digest = digest(&record.to_bytes());
        if !sim.effect(self.server, self.incarnation, "wal", digest) {
            return false;
        }
        let written = wal.append(record).is_ok();
        sim.interleave();
        written
    }

    fn run(&self, _: &Scheduler, stays: &mut dyn Iterator<Item = Box<dyn Task>>) {
        let Some(sim) = self.sim.upgrade() else {
            return;
        };
        let stays: Vec<Box<dyn Task>> = stays.collect();
        if !sim.effect(self.server, self.incarnation, "stays", stays.len() as u64) {
            return;
        }
        let mut s = sim.state.lock();
        for stay in stays {
            let ready = sim.clock.now() + s.rng.below(3 * MS);
            s.order += 1;
            let order = s.order;
            s.stays
                .insert((ready, order), (self.server, self.incarnation, stay));
        }
    }
}

/// What falls due next, earliest first: frames (rank 0), then stays
/// (1), launches (2), then retry passes and restarts (3).
enum Due {
    Deliver(usize),
    Slice,
    Timer(usize),
    Restart(usize),
}

/// One unit of simulated work: a server's step, a stay's slice, a
/// launch, or a restart.
enum Work {
    Step(usize),
    Slice(usize, u32, Box<dyn Task>),
    Launch(Box<(Itinerary, Credentials, AgentImage)>),
    Restart(usize),
}

impl State {
    fn index(&self, name: &Urn) -> usize {
        self.names.iter().position(|n| n == name).expect("a server")
    }

    fn up(&self, server: usize, incarnation: u32) -> bool {
        let s = &self.servers[server];
        s.incarnation == incarnation && s.down_until.is_none()
    }

    /// Reads what `server` did since the last look, from its journal
    /// and its custody. Every frame that left custody or changed its
    /// destination did so in exactly one journaled way: a transfer's ack
    /// span, a skip to a fallback, a dead stop that sends the agent home,
    /// or a report journaled lost. Report acks are not journaled, so a
    /// report that leaves custody otherwise was acked. At a crash
    /// (`crashing`) the step on the stack may hold lapsed frames out of
    /// custody for its retry pass, so a frame missing from custody is
    /// not taken as ended there.
    fn observe(&mut self, server: usize, crashing: bool) {
        let seed = self.seed;
        let sv = &mut self.servers[server];
        if sv.down_until.is_some() {
            return;
        }
        // Every frame tracked or ended leaves a journal record, except a
        // report's ack, which shrinks custody.
        let tracking = sv.shared.custody.lock().len();
        if !crashing && sv.shared.journal.next_seq() == sv.cursor && tracking == sv.tracking {
            return;
        }
        sv.tracking = tracking;
        let inc = sv.incarnation;
        let records = sv.shared.journal.since(sv.cursor);
        if let Some(last) = records.last() {
            assert_eq!(records[0].seq, sv.cursor, "seed {seed}: journal evicted");
            sv.cursor = last.seq + 1;
        }
        let tracked: BTreeMap<SendKey, Frame> = sv
            .shared
            .custody
            .lock()
            .tracked()
            .map(|(key, f)| {
                let frame = Frame {
                    dest: f.dest.clone(),
                    span: f.ctx.span,
                    custody: f.custody.clone(),
                    ended: None,
                };
                (key.clone(), frame)
            })
            .collect();
        for record in records {
            let ending = match record.event {
                Event::AgentAdmitted { agent, hop, .. } => {
                    let sv = &mut self.servers[server];
                    if !sv.replaying.remove(&(agent.clone(), hop)) {
                        let n = self
                            .admitted
                            .entry((server, inc, agent.clone(), hop))
                            .or_default();
                        *n += 1;
                        assert_eq!(
                            *n, 1,
                            "seed {seed}: server {server} admitted {agent} hop {hop} twice"
                        );
                    }
                    continue;
                }
                Event::WalReplayed { agent, hop } => {
                    let logged = (0..inc)
                        .any(|i| self.admitted.contains_key(&(server, i, agent.clone(), hop)));
                    assert!(
                        logged,
                        "seed {seed}: server {server} replayed {agent} hop {hop}, never admitted"
                    );
                    self.servers[server].replaying.insert((agent, hop));
                    self.tally.replayed += 1;
                    continue;
                }
                Event::Rejected {
                    kind: RejectKind::DuplicateHop,
                    ..
                } => {
                    self.tally.duplicates += 1;
                    continue;
                }
                Event::Rejected {
                    kind: RejectKind::Replay,
                    detail,
                } => {
                    self.tally.refused += u64::from(detail.starts_with("closed session"));
                    continue;
                }
                Event::Span {
                    kind: SpanKind::Transfer,
                    ctx,
                    detail,
                    ..
                } if detail.contains(" acked after ") => {
                    let f = self.frames.iter_mut().find(|((s, i, _), f)| {
                        (*s, *i) == (server, inc) && f.ended.is_none() && f.span == ctx.span
                    });
                    let (_, f) = f.unwrap_or_else(|| panic!("seed {seed}: ack of no frame"));
                    self.tally.acked += 1;
                    ("acked", f)
                }
                Event::AgentRecovered {
                    agent,
                    hop,
                    disposition: "sent-home",
                } => {
                    let key = (server, inc, (Ack::TRANSFER, agent, hop));
                    let f = self.frames.get_mut(&key);
                    let f = f.unwrap_or_else(|| panic!("seed {seed}: {key:?} sent home untracked"));
                    self.tally.sent_home += 1;
                    ("sent home", f)
                }
                Event::HopSkipped {
                    agent,
                    skipped,
                    next,
                    hop,
                } => {
                    let key = (server, inc, (Ack::TRANSFER, agent, hop));
                    let f = self.frames.get_mut(&key);
                    let f = f.unwrap_or_else(|| panic!("seed {seed}: {key:?} skipped untracked"));
                    assert!(
                        f.ended.is_none() && f.dest == skipped,
                        "seed {seed}: {key:?} skipped {skipped} twice or from elsewhere"
                    );
                    f.dest = next;
                    self.tally.skipped += 1;
                    continue;
                }
                Event::Rejected {
                    kind: RejectKind::ReportUndeliverable,
                    detail,
                } => {
                    let f = self
                        .frames
                        .iter_mut()
                        .find(|((s, i, (kind, agent, seq)), f)| {
                            let about = format!("report {seq} about {agent} toward ");
                            (*s, *i) == (server, inc)
                                && *kind == Ack::REPORT
                                && f.ended.is_none()
                                && detail.starts_with(&about)
                        });
                    let ((_, _, key), f) =
                        f.unwrap_or_else(|| panic!("seed {seed}: {detail}: no such report"));
                    self.lost.insert(key.1.clone());
                    self.tally.lost += 1;
                    ("lost", f)
                }
                _ => continue,
            };
            let (how, frame) = ending;
            assert!(frame.ended.is_none(), "seed {seed}: a frame ended twice");
            frame.ended = Some(how);
        }
        let gone: Vec<SendKey> = self
            .frames
            .iter()
            .filter(|((s, i, key), f)| {
                (*s, *i) == (server, inc) && f.ended.is_none() && !tracked.contains_key(key)
            })
            .map(|((_, _, key), _)| key.clone())
            .collect();
        for (key, frame) in tracked {
            match self.frames.get(&(server, inc, key.clone())) {
                Some(f) => assert!(
                    f.ended.is_none() && f.dest == frame.dest,
                    "seed {seed}: server {server} tracks {key:?} again or toward {}",
                    frame.dest
                ),
                None => {
                    self.frames.insert((server, inc, key), frame);
                }
            }
        }
        if crashing {
            return;
        }
        for key in gone {
            assert_eq!(
                key.0,
                Ack::REPORT,
                "seed {seed}: server {server} dropped {key:?} with no ending"
            );
            let f = self.frames.get_mut(&(server, inc, key)).expect("a frame");
            f.ended = Some("acked");
            self.tally.acked += 1;
        }
    }

    fn observe_all(&mut self) {
        for server in 0..SERVERS {
            self.observe(server, false);
        }
    }

    /// `server` dies before an effect: its memory goes and its WAL file
    /// stays. Every admission whose custody rides one of its unacked
    /// frames must still be open in that file, so that the restart
    /// replays it.
    fn crash(&mut self, server: usize, now: u64) {
        self.observe(server, true);
        let seed = self.seed;
        let inc = self.servers[server].incarnation;
        let wal = self.configs[server].wal.clone().expect("a WAL");
        let records = AdmissionWal::replay(&wal).expect("the WAL reads");
        let tracked: HashSet<SendKey> = {
            let custody = self.servers[server].shared.custody.lock();
            custody.tracked().map(|(k, _)| k.clone()).collect()
        };
        for ((s, i, key), f) in &self.frames {
            if (*s, *i) != (server, inc) || f.ended.is_some() {
                continue;
            }
            // A report the retry pass holds and one acked unjournaled
            // look alike; transfer acks are journaled.
            if key.0 == Ack::REPORT && !tracked.contains(key) {
                continue;
            }
            let Some((agent, hop)) = &f.custody else {
                continue;
            };
            let admitted = records
                .iter()
                .any(|r| matches!(r, WalRecord::Admit(b) if b.agent == *agent && b.hop == *hop));
            let resolved = records.iter().any(
                |r| matches!(r, WalRecord::Resolve { agent: a, hop: h } if a == agent && h == hop),
            );
            assert!(
                admitted && !resolved,
                "seed {seed}: {agent} hop {hop} rides unacked {key:?} but is not open in the log"
            );
            self.tally.caught_in_flight += 1;
        }
        self.frames
            .retain(|(s, i, _), f| (*s, *i) != (server, inc) || f.ended.is_some());
        self.stays.retain(|_, (s, _, _)| *s != server);
        let down = MS + self.rng.below(60 * MS);
        let sv = &mut self.servers[server];
        sv.incarnation += 1;
        sv.down_until = Some(now + down);
        self.tally.crashes += 1;
    }

    /// The next work due, with its time and rank. Nested work is only a
    /// delivery to a server whose step is not on the stack, or a slice.
    fn due(&self, loops: &[Mutex<Option<Loop>>], nested: bool) -> Option<(u64, u8, Due)> {
        let frame = self
            .link
            .iter()
            .find(|(_, (to, _))| !nested || loops[*to].try_lock().is_some())
            .map(|(&(at, _), &(to, _))| (at, 0, Due::Deliver(to)));
        let slice = self.stays.keys().next().map(|&(at, _)| (at, 1, Due::Slice));
        let timers = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, sv)| match sv.down_until {
                Some(t) => (t, 3, Due::Restart(i)),
                None => (sv.timer, 3, Due::Timer(i)),
            });
        let timers = timers.filter(|_| !nested);
        frame
            .into_iter()
            .chain(slice)
            .chain(timers)
            .min_by_key(|(at, rank, _)| (*at, *rank))
    }

    fn take(&mut self, due: Due) -> Work {
        match due {
            Due::Deliver(server) | Due::Timer(server) => Work::Step(server),
            Due::Slice => {
                let (_, (server, inc, task)) = self.stays.pop_first().expect("a stay");
                Work::Slice(server, inc, task)
            }
            Due::Restart(server) => Work::Restart(server),
        }
    }
}

impl Sim {
    /// Counts one effect of `server`'s `incarnation` and logs it.
    /// Returns false, and the effect must not happen, when that
    /// incarnation is down, or crashes right here.
    fn effect(&self, server: usize, incarnation: u32, kind: &'static str, digest: u64) -> bool {
        let mut s = self.state.lock();
        if !s.up(server, incarnation) {
            return false;
        }
        let now = self.clock.now();
        if s.crash_at == Some((server, s.servers[server].effects)) {
            s.crash_at = None;
            s.crash(server, now);
            return false;
        }
        s.servers[server].effects += 1;
        s.log.push((server, kind, now, digest));
        true
    }

    /// Puts one frame on the link: dropped, once or twice, each copy
    /// after its own delay, rounded up to a 250 µs tick so that frames
    /// also arrive in bursts.
    fn send(
        self: &Arc<Self>,
        server: usize,
        incarnation: u32,
        from: &Urn,
        to: &Urn,
        payload: Vec<u8>,
    ) {
        if !self.effect(server, incarnation, "send", digest(&payload)) {
            return;
        }
        {
            let mut s = self.state.lock();
            let dest = s.index(to);
            let copies = match (s.faults, s.rng.unit_f64()) {
                (Faults::Crashing, x) if x < 0.2 => 0,
                (Faults::Crashing, x) if x < 0.3 => 2,
                _ => 1,
            };
            for _ in 0..copies {
                let tick = MS / 4;
                let at = (self.clock.now() + s.rng.below(6 * MS)).div_ceil(tick) * tick;
                s.order += 1;
                let order = s.order;
                let delivery = Delivery {
                    from: from.clone(),
                    arrival_ns: at,
                    payload: payload.clone(),
                };
                s.link.insert((at, order), (dest, delivery));
            }
        }
        self.interleave();
    }

    /// At an effect made from a stay or a launch, may run up to a few
    /// other pieces of pending work before the effect's call returns.
    fn interleave(self: &Arc<Self>) {
        let rounds = {
            let mut s = self.state.lock();
            let from_stay = matches!(s.stack.last(), Some(Ctx::Stay | Ctx::Launch));
            if !from_stay || s.stack.len() > 3 || s.rng.unit_f64() < 0.5 {
                return;
            }
            s.observe_all();
            1 + s.rng.below(4)
        };
        for _ in 0..rounds {
            let work = {
                let mut s = self.state.lock();
                let Some((at, _, due)) = s.due(&self.loops, true) else {
                    break;
                };
                self.clock.advance_to(at);
                s.take(due)
            };
            self.execute(work);
            self.state.lock().observe_all();
        }
    }

    fn with_ctx<R>(&self, ctx: Ctx, f: impl FnOnce() -> R) -> R {
        self.state.lock().stack.push(ctx);
        let r = f();
        self.state.lock().stack.pop();
        r
    }

    /// One step of `server`'s loop over what has arrived for it by now.
    fn step(&self, server: usize) {
        let mut lp = self.loops[server].lock();
        let (shared, inc) = {
            let mut s = self.state.lock();
            let now = self.clock.now();
            let arrived: Vec<(u64, u64)> = s
                .link
                .range(..=(now, u64::MAX))
                .filter(|(_, (to, _))| *to == server)
                .map(|(k, _)| *k)
                .collect();
            let inbox = &self.inboxes[server];
            for key in arrived {
                let (_, delivery) = s.link.remove(&key).expect("an arrived frame");
                inbox.lock().push_back(delivery);
            }
            let sv = &s.servers[server];
            if sv.down_until.is_some() {
                inbox.lock().clear();
                return;
            }
            (Arc::clone(&sv.shared), sv.incarnation)
        };
        let lp = lp.as_mut().expect("an up server has a loop");
        let endpoint = &lp.endpoint;
        let burst = std::iter::from_fn(|| endpoint.try_recv().ok());
        let wait = self.with_ctx(Ctx::Step, || lp.state.step(&shared, burst));
        let mut s = self.state.lock();
        if s.up(server, inc) {
            s.servers[server].timer = self.clock.now() + wait.as_nanos() as u64;
        }
    }

    fn execute(self: &Arc<Self>, work: Work) {
        match work {
            Work::Step(server) => self.step(server),
            Work::Slice(server, inc, mut task) => {
                let done = self.with_ctx(Ctx::Stay, || task.run_slice());
                let mut s = self.state.lock();
                if !done && s.up(server, inc) {
                    let ready = self.clock.now() + s.rng.below(MS);
                    s.order += 1;
                    let order = s.order;
                    s.stays.insert((ready, order), (server, inc, task));
                }
            }
            Work::Launch(launch) => {
                let (itinerary, credentials, image) = *launch;
                let home = Arc::clone(&self.state.lock().servers[HOME].shared);
                self.with_ctx(Ctx::Launch, || {
                    home.launch_tour(&itinerary, credentials, image)
                });
            }
            Work::Restart(server) => self.boot(server),
        }
    }

    /// Starts `server`'s next incarnation from its configuration and WAL
    /// file, through the constructor [`AgentServer::spawn`] uses, and
    /// runs its first step.
    fn boot(self: &Arc<Self>, server: usize) {
        let mut lp = self.loops[server].lock();
        let (config, incarnation) = {
            let s = self.state.lock();
            let incarnation = s.servers.get(server).map_or(0, |sv| sv.incarnation);
            (s.configs[server].clone(), incarnation)
        };
        self.inboxes[server].lock().clear();
        let net = Arc::new(Net {
            sim: Arc::downgrade(self),
            clock: self.clock.clone(),
            server,
            incarnation,
        });
        let port = Box::new(Seeded {
            sim: Arc::downgrade(self),
            clock: self.clock.clone(),
            born: self.clock.now(),
            server,
            incarnation,
        });
        let (shared, endpoint, replay) = AgentServer::start(net, config, port);
        {
            let mut s = self.state.lock();
            let journal = Arc::clone(&shared.journal);
            match s.servers.get_mut(server) {
                Some(sv) => {
                    sv.shared = Arc::clone(&shared);
                    sv.down_until = None;
                    sv.cursor = 0;
                    sv.tracking = 0;
                    sv.replaying.clear();
                    sv.journals.push(journal);
                }
                None => s.servers.push(Server {
                    shared: Arc::clone(&shared),
                    incarnation,
                    down_until: None,
                    effects: 0,
                    timer: 0,
                    cursor: 0,
                    tracking: 0,
                    replaying: HashSet::new(),
                    journals: vec![journal],
                }),
            }
        }
        let state = self.with_ctx(Ctx::Step, || LoopState::start(&shared, replay));
        *lp = Some(Loop { state, endpoint });
        drop(lp);
        self.step(server);
    }
}

/// One seed's world and what its run found.
struct Run {
    tally: Tally,
    log: Vec<Effect>,
}

/// A fresh temporary directory for one seed's WAL files.
fn wal_dir() -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("ajanta-sim-{pid}-{run}"))
}

/// Runs one seed to quiescence and checks the end state.
fn run_seed(seed: u64, faults: Faults, sched: &Arc<Scheduler>) -> Run {
    let names: Vec<Urn> = (0..SERVERS)
        .map(|i| Urn::server(format!("site{i}.org"), ["s"]).expect("canonical"))
        .collect();
    let mut minted = mint(0x5EED_0000 + seed, &names);
    let mut rng = DetRng::new(minted.net_seed);
    let retry = RetryPolicy {
        max_attempts: 4,
        ack_grace: match faults {
            Faults::Crashing => Duration::from_millis(5),
            Faults::Lossless => Duration::from_secs(1),
        },
    };
    let dir = wal_dir();
    let configs: Vec<ServerConfig> = std::mem::take(&mut minted.servers)
        .into_iter()
        .enumerate()
        .map(|(i, (identity, seed))| ServerConfig {
            name: identity.name.clone(),
            identity,
            roots: minted.roots.clone(),
            directory: minted.directory.clone(),
            policy: SecurityPolicy::new().allow(PrincipalPattern::Anyone, Rights::all()),
            system_modules: Vec::new(),
            agent_limits: UsageLimits::default(),
            vm_limits: Limits::default(),
            agents_may_dispatch: true,
            retry: retry.clone(),
            seed,
            journal_capacity: 1 << 12,
            scheduler: Arc::clone(sched),
            wal: Some(dir.join(format!("site{i}.wal"))),
            hibernate_after_misses: None,
        })
        .collect();
    let crash_at = match faults {
        Faults::Crashing => Some((1 + rng.below(2) as usize, rng.below(24))),
        Faults::Lossless => None,
    };

    let mut owner = minted.authority.owner("traveler");
    let module = assemble(TOURIST).expect("the tourist assembles");
    let mut launches = VecDeque::new();
    let mut agents = Vec::new();
    for i in 0..AGENTS {
        let mut stops: Vec<usize> = (0..SERVERS).collect();
        for j in (1..stops.len()).rev() {
            stops.swap(j, rng.below(j as u64 + 1) as usize);
        }
        stops.truncate(1 + rng.below(SERVERS as u64) as usize);
        let tour = Itinerary::new(stops.iter().map(|&s| names[s].clone()));
        let (_, carried) = tour.clone().next_stop();
        let image = AgentImage {
            module: module.clone(),
            globals: vec![Value::Bytes(carried.encode())],
            entry: "run".into(),
        };
        let agent = owner.next_agent_name("tourist");
        let credentials =
            owner.credentials(agent.clone(), names[HOME].clone(), Rights::all(), u64::MAX);
        agents.push(agent);
        let launch = Box::new((tour, credentials, image));
        launches.push_back((i * 700_000, Work::Launch(launch)));
    }

    let sim = Arc::new(Sim {
        clock: VClock::new(),
        state: Mutex::new(State {
            seed,
            rng,
            faults,
            names,
            configs,
            servers: Vec::new(),
            crash_at,
            link: BTreeMap::new(),
            stays: BTreeMap::new(),
            order: 0,
            stack: Vec::new(),
            log: Vec::new(),
            tally: Tally::default(),
            frames: BTreeMap::new(),
            admitted: HashMap::new(),
            lost: HashSet::new(),
        }),
        loops: (0..SERVERS).map(|_| Mutex::new(None)).collect(),
        inboxes: (0..SERVERS).map(|_| Arc::default()).collect(),
    });
    for server in 0..SERVERS {
        sim.boot(server);
    }
    loop {
        let work = {
            let mut s = sim.state.lock();
            let quiet = launches.is_empty()
                && s.link.is_empty()
                && s.stays.is_empty()
                && s.servers
                    .iter()
                    .all(|sv| sv.down_until.is_none() && sv.shared.custody.lock().len() == 0);
            if quiet {
                break;
            }
            let (at, rank, due) = s.due(&sim.loops, false).expect("servers have timers");
            let launch = launches.front().is_some_and(|(t, _)| (*t, 2) < (at, rank));
            let at = if launch { launches[0].0 } else { at };
            assert!(at < 600_000 * MS, "seed {seed} never settles");
            sim.clock.advance_to(at);
            match launch {
                true => launches.pop_front().expect("a launch").1,
                false => s.take(due),
            }
        };
        sim.execute(work);
        sim.state.lock().observe_all();
    }
    let run = check(&sim, &agents);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// The end-state checks: every frame ended, every agent reached an
/// outcome, and each server's WAL admitted every key once and resolved
/// it at most once, leaving it open only for an agent whose report was
/// journaled lost.
fn check(sim: &Sim, agents: &[Urn]) -> Run {
    let mut s = sim.state.lock();
    let seed = s.seed;
    for ((server, _, key), f) in &s.frames {
        assert!(
            f.ended.is_some(),
            "seed {seed}: {key:?} at {server} never ended"
        );
    }
    let recorded: HashSet<Urn> = s.servers[HOME]
        .shared
        .reports
        .lock()
        .iter()
        .map(|r| r.agent.clone())
        .collect();
    for agent in agents {
        assert!(
            recorded.contains(agent) || s.lost.contains(agent),
            "seed {seed}: {agent} reached no outcome"
        );
    }
    for (server, config) in s.configs.iter().enumerate() {
        check_wal(seed, server, config.wal.as_deref().expect("a WAL"), &s.lost);
    }
    let retries: u64 = s
        .servers
        .iter()
        .flat_map(|sv| &sv.journals)
        .map(|j| j.histos().get(HistoPath::RetryBackoff).snapshot().count)
        .sum();
    s.tally.retries = retries;
    if s.faults == Faults::Lossless {
        let duplicates = s.tally.duplicates;
        assert_eq!(
            (retries, duplicates),
            (0, 0),
            "seed {seed}: a lossless seed retried or refused a copy"
        );
    }
    Run {
        tally: std::mem::take(&mut s.tally),
        log: std::mem::take(&mut s.log),
    }
}

fn check_wal(seed: u64, server: usize, path: &Path, lost: &HashSet<Urn>) {
    let mut admits: HashMap<(Urn, u64), u32> = HashMap::new();
    let mut resolves: HashMap<(Urn, u64), u32> = HashMap::new();
    for record in AdmissionWal::replay(path).expect("the WAL reads") {
        match record {
            WalRecord::Admit(b) => *admits.entry((b.agent.clone(), b.hop)).or_default() += 1,
            WalRecord::Resolve { agent, hop } => *resolves.entry((agent, hop)).or_default() += 1,
        }
    }
    for (key, count) in &admits {
        assert_eq!(
            *count, 1,
            "seed {seed}: server {server} logged {key:?} twice"
        );
        let resolved = resolves.get(key).copied().unwrap_or(0);
        assert!(
            resolved <= 1,
            "seed {seed}: server {server} resolved {key:?} twice"
        );
        assert!(
            resolved == 1 || lost.contains(&key.0),
            "seed {seed}: server {server} left {key:?} open"
        );
    }
    assert!(
        resolves.keys().all(|k| admits.contains_key(k)),
        "seed {seed}: server {server} resolved what it never admitted"
    );
}

/// Runs `seeds`, odd and even ones on two threads, and adds up what
/// they reached. Each seed is a world of its own.
fn run_seeds(seeds: std::ops::Range<u64>, faults: Faults) -> Tally {
    let sched = Scheduler::new(1);
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let (seeds, sched) = (seeds.clone(), &sched);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for seed in seeds.filter(|seed| seed % 2 == half) {
                        tally.add(&run_seed(seed, faults, sched).tally);
                    }
                    tally
                })
            })
            .collect();
        for half in halves {
            let tally = half.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            total.add(&tally);
        }
    });
    sched.stop();
    total
}

/// Three real servers exchange transfers, reports and acks over a
/// seeded link that drops, duplicates and reorders frames, each with
/// its admission WAL on disk. Per seed, one of the two non-home servers
/// crashes before its k-th effect and restarts from its WAL. Checked,
/// from the servers' journals, WAL files and custody state:
///
/// - no server admits an (agent, hop) twice; a WAL replay is the same
///   admission, not a second one;
/// - every tracked frame ends exactly once: acked, sent home or lost,
///   after any number of skips to a fallback;
/// - at the crash, every admission whose custody rides an unacked frame
///   is still open in the WAL, so recovery replays it;
/// - every launched agent ends with a report recorded at home or
///   journaled lost;
/// - each WAL admits a key once, resolves it at most once, and leaves
///   it open only for an agent whose report was lost.
#[test]
fn seeded_crashes_never_drop_custody() {
    const SEEDS: u64 = 240;
    let total = run_seeds(0..SEEDS, Faults::Crashing);
    // The seeds reach every path the invariants speak about.
    assert!(total.crashes > SEEDS * 3 / 4, "{total:?}");
    assert!(
        total.replayed > 0 && total.caught_in_flight > 0,
        "{total:?}"
    );
    assert!(total.refused > 0, "{total:?}");
    assert!(total.skipped > 0 && total.sent_home > 0, "{total:?}");
    assert!(total.duplicates > 0 && total.acked > 0, "{total:?}");
}

/// On a link that only reorders, with an ack grace longer than any
/// round trip and no crash, no frame is retried and no copy is refused
/// as a duplicate, whatever runs while a stay or a launch sends.
#[test]
fn lossless_seeds_never_retry() {
    let total = run_seeds(0..32, Faults::Lossless);
    assert!(total.acked > 0 && total.crashes == 0, "{total:?}");
}

/// One seed, run twice, makes the same effects in the same order at
/// the same virtual times.
#[test]
fn one_seed_gives_one_effect_log() {
    let sched = Scheduler::new(1);
    let first = run_seed(3, Faults::Crashing, &sched);
    let second = run_seed(3, Faults::Crashing, &sched);
    sched.stop();
    assert!(first.log.len() > 50, "{} effects", first.log.len());
    assert_eq!(first.log, second.log);
}
