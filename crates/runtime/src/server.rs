//! The agent server (paper Fig. 1), as a thread with a control handle.
//!
//! One [`AgentServer`] owns: a network endpoint, the reference monitor,
//! the resource registry, the domain database, a security policy, the
//! system module set, and its cryptographic identity. Visiting agents
//! execute as resumable fuel-sliced tasks on the cooperative scheduler
//! ([`crate::sched`]), each confined to its own protection domain and
//! talking to the server only through [`crate::env::AgentEnv`].
//!
//! Admission pipeline for an arriving transfer (Section 5.2's problem
//! list, in order): datagram authentication → credential verification →
//! byte-code verification in a fresh name-space → policy authorization →
//! domain creation → execution under quotas.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex, RwLock};

use ajanta_core::telemetry::Record;
use ajanta_core::{
    AccessProtocol, BindError, Counter, Credentials, DomainDatabase, DomainId, Event, Guarded,
    HistoPath, HostMonitor, Journal, ProxyPolicy, RejectKind, Requester, ResourceProxy,
    ResourceRegistry, Rights, SecurityPolicy, SpanContext, SpanId, SpanKind, SystemOp, TraceId,
    UsageLimits,
};
use ajanta_crypto::{DetRng, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{
    Delivery, NetEndpoint, NetError, ReplayGuard, SealedDatagram, Session, Transport,
};
use ajanta_vm::{
    AgentImage, ExecOutcome, Interpreter, Limits, Module, Namespace, SliceOutcome, Value,
    VerifiedModule,
};
use ajanta_wire::Wire;

use crate::bundle::AgentBundle;
use crate::custody::{Custody, DeadStop, PendingSend, Recovery, RetryPolicy, SendKey};
use crate::directory::Directory;
use crate::env::AgentEnv;
use crate::itinerary::Itinerary;
use crate::messages::{Ack, AgentStatus, Message, Report, ReportStatus};
use crate::sched::{SchedDepths, Scheduler, Task, DEFAULT_SLICE_FUEL};
use crate::vmres::VmResource;
use crate::wal::{AdmissionWal, WalRecord};

/// Why [`ServerHandle::query_status`] failed — a dead/unreachable server
/// is now distinguishable from a server that replied "not resident".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query could not even be sent (no directory entry for the
    /// server, or the transport refused the send).
    Unreachable(String),
    /// No reply arrived within the timeout — the server may be down.
    Timeout,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unreachable(e) => write!(f, "status query unreachable: {e}"),
            QueryError::Timeout => write!(f, "status query timed out"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Configuration for one server.
#[derive(Clone)]
pub struct ServerConfig {
    /// The server's global name.
    pub name: Urn,
    /// Its signing identity (certificate chain should be published in the
    /// directory by the caller); its key pair also decrypts datagrams.
    pub identity: ChannelIdentity,
    /// Trusted certificate roots.
    pub roots: RootOfTrust,
    /// The shared server directory.
    pub directory: Directory,
    /// Authorization policy.
    pub policy: SecurityPolicy,
    /// Modules every agent name-space is pre-populated with.
    pub system_modules: Vec<Arc<VerifiedModule>>,
    /// Per-agent quotas recorded in the domain database.
    pub agent_limits: UsageLimits,
    /// Interpreter limits per agent execution.
    pub vm_limits: Limits,
    /// Whether visiting agents may dispatch further agents.
    pub agents_may_dispatch: bool,
    /// Retry policy for transfers and reports.
    pub retry: RetryPolicy,
    /// Seed for this server's nonce/ephemeral randomness.
    pub seed: u64,
    /// Total records the telemetry journal retains (audit decisions,
    /// rejections, agent log lines, lifecycle and charge events share
    /// this bound; aggregate counters stay exact past it).
    pub journal_capacity: usize,
    /// The cooperative scheduler agents execute on. A [`crate::World`]
    /// passes one shared pool to every server so the whole world runs
    /// on `workers` threads; whoever creates the pool stops it.
    pub scheduler: Arc<Scheduler>,
    /// Path of the admission write-ahead log, or `None` for a purely
    /// in-memory server. With a WAL, every admission is logged before its
    /// ack leaves and a restarted server replays unresolved admissions —
    /// see [`crate::wal`].
    pub wal: Option<std::path::PathBuf>,
    /// Hibernation trigger: an agent that yields with this many
    /// consecutive empty `env.recv` polls (and no bindings or pending
    /// migration) is serialized to the bundle store and its scheduler
    /// task freed, until mail or an explicit wake revives it. `None`
    /// disables hibernation.
    pub hibernate_after_misses: Option<u32>,
}

/// Queued (sender, payload) mail for one agent.
type Mailbox = VecDeque<(Urn, Vec<u8>)>;

/// The sending half of a server's datagram sessions: one per peer,
/// opened at the first send to it and kept until the peer's certificate
/// expires or the peer is found to have restarted.
#[derive(Default)]
struct Outbound {
    peers: HashMap<Urn, OutPeer>,
    /// The newest session number used, so numbers only grow.
    last: u64,
}

/// One peer's entry in [`Outbound`].
#[derive(Default)]
struct OutPeer {
    session: Option<Arc<Session>>,
    /// When `session` was opened (transport clock).
    opened_at: u64,
    /// The newest incarnation of the peer seen in its tickets.
    born: u64,
}

/// State shared between the server loop, agent worker threads, and the
/// control handle.
pub struct Shared {
    name: Urn,
    identity: ChannelIdentity,
    roots: RootOfTrust,
    directory: Directory,
    net: Arc<dyn Transport>,
    monitor: HostMonitor,
    registry: ResourceRegistry,
    domains: DomainDatabase,
    policy: RwLock<SecurityPolicy>,
    system_modules: Vec<Arc<VerifiedModule>>,
    agent_limits: UsageLimits,
    vm_limits: Limits,
    /// The worker pool agents execute on (possibly shared world-wide).
    sched: Arc<Scheduler>,
    mailboxes: Mutex<HashMap<Urn, Mailbox>>,
    /// The one telemetry sink: audit decisions (via the monitor),
    /// rejections, agent log lines, lifecycle and proxy/meter events.
    /// Bounded; replaces the old unbounded `logs`/`events` vectors.
    pub(crate) journal: Arc<Journal>,
    reports: Mutex<Vec<Report>>,
    /// Signalled on every report arrival; `wait_reports` and
    /// `wait_agents` block here instead of busy-polling.
    reports_cv: Condvar,
    /// Status queries awaiting a peer's reply, by query id: each
    /// [`ServerHandle::query_status`] registers its slot before it sends
    /// and removes it when it stops waiting.
    queries: Mutex<HashMap<u64, Sender<AgentStatus>>>,
    next_query_id: AtomicU64,
    rng: Mutex<DetRng>,
    /// When this incarnation started, on the transport clock: every
    /// session it opens carries it, and its replay guard refuses
    /// sessions numbered below it.
    born: u64,
    /// Datagram sessions to peers (see [`Shared::session_to`]).
    outbound: Mutex<Outbound>,
    /// The fault-tolerant migration layer's state: the receive-side
    /// dedup memory and the unacked frames, which the server loop
    /// services. Never held across a send, span or WAL append.
    custody: Mutex<Custody>,
    /// The real-time origin of the custody schedule.
    started: Instant,
    next_report_seq: AtomicU64,
    /// Hibernated agents, serialized (tentpole: durability). Present on
    /// every server; empty unless `hibernate_after_misses` is set.
    bundles: crate::bundle::BundleStore,
    /// The admission write-ahead log, when configured.
    wal: Option<crate::wal::AdmissionWal>,
    /// See [`ServerConfig::hibernate_after_misses`].
    hibernate_after_misses: Option<u32>,
    /// Every live proxy grant this server issued at bind time, held
    /// weakly so a dropped proxy costs nothing. The control plane's
    /// fleet-wide revocation walks this list; dead entries are pruned
    /// there and whenever a bind finds the list full.
    grants: Mutex<Vec<GrantEntry>>,
    /// Agents an administrator asked to hibernate at their next safe
    /// yield point (control plane `hibernate` op). A request bypasses
    /// the idle-miss threshold but never the safety gates (no live
    /// proxies, no pending migration).
    hibernate_requests: Mutex<HashSet<Urn>>,
}

/// One proxy grant tracked for control-plane revocation.
struct GrantEntry {
    resource: Urn,
    control: std::sync::Weak<ajanta_core::ProxyControl>,
}

/// What starts a transfer leg, which fixes its hop, its entry argument,
/// where its span joins the tour's trace and the custody it carries.
enum Leg {
    /// A launch or child dispatch: hop 0, under a `Dispatch` span that
    /// says `what` and hangs under `parent` (a fresh trace for `None`).
    Dispatch {
        parent: Option<(TraceId, SpanId)>,
        payload: Vec<u8>,
        what: &'static str,
    },
    /// A `go` that ends the stay admitted at `hop`: the next hop, under
    /// the stay's admission span, carrying the stay's custody.
    Go { admission: SpanContext, hop: u64 },
}

/// The admission check an agent failed (see
/// [`Shared::admission_checks`]).
enum Refusal {
    Credentials(String),
    Identity,
    Namespace(String),
    Image,
    Module(ajanta_vm::LoadError),
}

/// What an agent that passed the admission checks runs with.
struct Cleared {
    authorization: Rights,
    verified: Arc<VerifiedModule>,
}

impl Shared {
    /// The server's name.
    pub fn name(&self) -> &Urn {
        &self.name
    }

    /// Current virtual time.
    pub fn clock_now(&self) -> u64 {
        self.net.clock().now()
    }

    /// The server's telemetry journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Appends to the per-agent log (journaled, hence bounded: a
    /// long-running agent can no longer grow server memory without limit).
    pub fn log(&self, agent: &Urn, text: String) {
        self.journal.append(Event::AgentLog {
            agent: agent.clone(),
            text,
        });
    }

    /// Journals one security-relevant rejection.
    fn reject(&self, kind: RejectKind, detail: String) {
        self.journal.append(Event::Rejected { kind, detail });
    }

    /// Journals one completed trace span.
    pub(crate) fn emit_span(
        &self,
        ctx: SpanContext,
        kind: SpanKind,
        agent: &Urn,
        detail: String,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.journal.append(Event::Span {
            ctx,
            kind,
            agent: agent.clone(),
            detail,
            start_ns,
            dur_ns,
        });
    }

    /// Fig. 6 steps 2–5 on behalf of an agent, with domain-database
    /// bookkeeping. When the caller supplies its trace coordinates
    /// (`tracing` = trace id + the stay's admission span), the whole
    /// protocol run is journaled as a `Bind` span; the latency lands in
    /// the `Bind` histogram either way.
    pub fn bind_resource(
        &self,
        requester: &Requester,
        name: &Urn,
        now: u64,
        tracing: Option<(TraceId, SpanId)>,
    ) -> Result<ResourceProxy, String> {
        let t0 = Instant::now();
        let result = self.bind_resource_inner(requester, name, now);
        let dt = t0.elapsed().as_nanos() as u64;
        self.journal.histos().record(HistoPath::Bind, dt);
        if tracing.is_some() {
            let ctx = self.span_under(tracing);
            let outcome = match &result {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("denied: {e}"),
            };
            self.emit_span(
                ctx,
                SpanKind::Bind,
                &requester.agent,
                format!("{name} {outcome}"),
                now,
                dt,
            );
        }
        result
    }

    fn bind_resource_inner(
        &self,
        requester: &Requester,
        name: &Urn,
        now: u64,
    ) -> Result<ResourceProxy, String> {
        // Binding quota first.
        self.domains
            .add_binding(DomainId::SERVER, requester.domain, name.clone())
            .map_err(|e| {
                self.journal.append(Event::ProxyDeny {
                    resource: name.clone(),
                    holder: requester.domain,
                    detail: e.to_string(),
                });
                e.to_string()
            })?;
        match self.registry.bind(requester, name, now) {
            Ok(proxy) => {
                // Proxy telemetry rides the server journal from here on:
                // meter charges, revocations, and expiries of this grant
                // all land in the same stream as the grant itself.
                proxy
                    .control()
                    .attach_journal(Arc::clone(&self.journal), name.clone());
                self.track_grant(GrantEntry {
                    resource: name.clone(),
                    control: Arc::downgrade(proxy.control()),
                });
                self.journal.append(Event::ProxyGrant {
                    resource: name.clone(),
                    holder: requester.domain,
                });
                Ok(proxy)
            }
            Err(e) => {
                let _ = self
                    .domains
                    .remove_binding(DomainId::SERVER, requester.domain, name);
                let detail = match e {
                    BindError::NotFound(n) => format!("no resource {n}"),
                    other => other.to_string(),
                };
                self.journal.append(Event::ProxyDeny {
                    resource: name.clone(),
                    holder: requester.domain,
                    detail: detail.clone(),
                });
                Err(detail)
            }
        }
    }

    /// Adds a grant to the revocation list. A push that finds the list
    /// full first drops the grants whose proxies are gone, then leaves
    /// at least as much room as there are live grants, so pruning costs
    /// amortized O(1) per bind and the list tracks live proxies, not
    /// every bind the server ever served.
    fn track_grant(&self, grant: GrantEntry) {
        let mut grants = self.grants.lock();
        if grants.len() == grants.capacity() {
            grants.retain(|g| g.control.strong_count() > 0);
            let live = grants.len();
            grants.reserve(live);
        }
        grants.push(grant);
    }

    /// Delivers mail to a co-located agent's mailbox. Returns whether the
    /// recipient is resident here. A hibernated recipient (still
    /// resident — its domain survives the spill) is woken to read it.
    pub fn local_mail(self: &Arc<Self>, from: Urn, to: Urn, data: Vec<u8>) -> bool {
        let resident = self.domains.domain_of(&to).is_some();
        if !resident {
            return false;
        }
        self.mailboxes
            .lock()
            .entry(to.clone())
            .or_default()
            .push_back((from, data));
        self.journal.counters().add(Counter::MailDelivered, 1);
        if self.bundles.contains(&to) {
            self.wake_agent(&to);
        }
        true
    }

    /// Whether any mail is queued for `agent`.
    fn has_mail(&self, agent: &Urn) -> bool {
        self.mailboxes
            .lock()
            .get(agent)
            .is_some_and(|m| !m.is_empty())
    }

    /// Sends mail to an agent on another server.
    pub fn remote_mail(
        &self,
        from: Urn,
        server: Urn,
        to: Urn,
        data: Vec<u8>,
    ) -> Result<(), String> {
        self.send_message(&server, &Message::AgentMail { from, to, data })
    }

    /// Takes the oldest mail item for `agent`.
    pub fn take_mail(&self, agent: &Urn) -> Option<(Urn, Vec<u8>)> {
        self.mailboxes.lock().get_mut(agent)?.pop_front()
    }

    /// Dynamic extension: installs an agent-supplied module as a resource
    /// (paper Section 5.5), guarded by the monitor and registry ownership.
    pub fn install_vm_resource(
        &self,
        caller: DomainId,
        installer: &Urn,
        name: Urn,
        module: Module,
    ) -> Result<(), String> {
        let res = VmResource::install(name, installer.clone(), module, self.vm_limits)
            .map_err(|e| format!("module rejected: {e}"))?;
        let guarded = Guarded::new(res, ProxyPolicy::default());
        self.registry
            .register(&self.monitor, caller, installer, guarded)
            .map_err(|e| e.to_string())
    }

    /// Dispatches a child agent on behalf of `parent` (paper Section 4:
    /// agents can create child agents; Section 2: the creator may be
    /// another agent). The child runs under the parent's credentials with
    /// a name inside the parent's subtree; the reference monitor gates
    /// agent-initiated dispatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_child(
        &self,
        caller: DomainId,
        parent: &Urn,
        credentials: &Credentials,
        module: Module,
        dest: &Urn,
        entry: String,
        payload: Vec<u8>,
        seq: u64,
        tracing: Option<(TraceId, SpanId)>,
    ) -> Result<Urn, String> {
        self.monitor
            .check(caller, SystemOp::DispatchAgent)
            .map_err(|v| v.to_string())?;
        let child = parent
            .child(format!("child-{seq}"))
            .map_err(|e| e.to_string())?;
        let globals = module.initial_globals();
        let image = AgentImage {
            module,
            globals,
            entry,
        };
        image
            .validate()
            .map_err(|e| format!("child image invalid: {e}"))?;
        // The dispatch joins the parent's tour as a child of the stay
        // that asked. Children travel on the reliable layer too: if the
        // destination stays dark, the dead-stop path reports `Failed(0)`
        // to the family's home site instead of losing the child silently.
        self.start_leg(
            dest.clone(),
            child.clone(),
            credentials.clone(),
            image,
            Vec::new(),
            Leg::Dispatch {
                parent: tracing,
                payload,
                what: "child",
            },
        );
        Ok(child)
    }

    /// Seals and sends one protocol message to a peer server, on this
    /// server's session to it.
    pub fn send_message(&self, to: &Urn, msg: &Message) -> Result<(), String> {
        self.send_plaintext(to, &msg.to_bytes())
    }

    /// Seals an encoded message on this server's session to `to` and
    /// sends it.
    fn send_plaintext(&self, to: &Urn, plaintext: &[u8]) -> Result<(), String> {
        let now = self.clock_now();
        let datagram = self.session_to(to, now)?.seal(plaintext, now);
        self.net
            .send_as(&self.name, to, datagram.to_bytes())
            .map_err(|e| e.to_string())
    }

    /// The session to `to`. A new one is opened when there is none or
    /// the peer's certificate has expired: one directory lookup, one
    /// Diffie–Hellman share and one signature per session, none per
    /// frame. Its number is at least `now`, above every number used
    /// before, and at least the peer's newest incarnation, which refuses
    /// any session numbered below it.
    fn session_to(&self, to: &Urn, now: u64) -> Result<Arc<Session>, String> {
        let mut out = self.outbound.lock();
        if let Some(session) = out.peers.get(to).and_then(|p| p.session.as_ref()) {
            if session.live(now) {
                return Ok(Arc::clone(session));
            }
        }
        let (key, expires) = self
            .directory
            .verified(to, &self.roots, now)
            .ok_or_else(|| format!("no verified directory entry for {to}"))?;
        let peer_born = out.peers.get(to).map_or(0, |p| p.born);
        let number = now.max(out.last.saturating_add(1)).max(peer_born);
        out.last = number;
        let session = Arc::new(Session::new(
            &self.identity,
            to,
            key,
            self.born,
            number,
            expires,
            &mut self.rng.lock(),
        ));
        let peer = out.peers.entry(to.clone()).or_default();
        peer.session = Some(Arc::clone(&session));
        peer.opened_at = now;
        self.journal.counters().add(Counter::SessionsOpened, 1);
        Ok(session)
    }

    /// A frame from `peer` began a session of the peer's incarnation
    /// `born`. When that incarnation is new, the session to the peer
    /// that is numbered below it is one the peer refuses: it is dropped,
    /// so the next send opens a fresh one. A new session of an
    /// incarnation already seen changes nothing, so two servers never
    /// reopen sessions in answer to each other.
    fn peer_started(&self, peer: &Urn, born: u64) {
        let mut out = self.outbound.lock();
        let p = out.peers.entry(peer.clone()).or_default();
        if born > p.born {
            p.born = born;
            if p.session.as_ref().is_some_and(|s| s.number() < born) {
                p.session = None;
            }
        }
    }

    /// Drops the session to `peer` if it was already open when a frame
    /// that is now due for a retry left at `sent_at`, so the retry opens
    /// a fresh one. The server loop asks for this when nothing from the
    /// peer has opened since: the peer may have restarted and refuse the
    /// session.
    fn reopen_session(&self, peer: &Urn, sent_at: u64) {
        if let Some(p) = self.outbound.lock().peers.get_mut(peer) {
            if p.opened_at <= sent_at {
                p.session = None;
            }
        }
    }

    /// Records a report arriving at this (home) server, journaling the
    /// agent's outcome and waking any [`ServerHandle::wait_reports`].
    /// `ctx` is the sender's report span for a report that crossed the
    /// network (the home-side record journals as its child); local
    /// reports pass `None` — their report span was journaled in
    /// [`Shared::report_home`] already.
    fn record_report(&self, report: Report, ctx: Option<SpanContext>) {
        if let Some(ctx) = ctx {
            self.emit_span(
                ctx.child(self.journal.mint_span()),
                SpanKind::Report,
                &report.agent,
                "recorded".into(),
                self.clock_now(),
                0,
            );
        }
        self.journal.append(Event::AgentReported {
            agent: report.agent.clone(),
            status: report.status.label(),
        });
        self.reports.lock().push(report);
        self.reports_cv.notify_all();
    }

    /// A fresh span under `parent`, or the root of a fresh trace.
    fn span_under(&self, parent: Option<(TraceId, SpanId)>) -> SpanContext {
        match parent {
            Some((trace, parent)) => SpanContext {
                trace,
                span: self.journal.mint_span(),
                parent: Some(parent),
            },
            None => SpanContext::root(self.journal.mint_trace(), self.journal.mint_span()),
        }
    }

    /// Reports `status` to the agent's home site. `parent` anchors the
    /// report's span in the tour: the stay's admission span for normal
    /// outcomes, the lost transfer's span for dead-stop recovery. `None`
    /// (a refusal before any trace context existed) roots a fresh trace,
    /// so even pre-launch refusals are reconstructible. `custody` is the
    /// WAL admission this report settles (see [`Custody::hand_off`]).
    fn report_home(
        &self,
        run_as: &Urn,
        credentials: &Credentials,
        status: ReportStatus,
        parent: Option<(TraceId, SpanId)>,
        custody: Option<(Urn, u64)>,
    ) {
        let now = self.clock_now();
        let ctx = self.span_under(parent);
        self.emit_span(
            ctx,
            SpanKind::Report,
            run_as,
            format!("{} toward {}", status.label(), credentials.home),
            now,
            0,
        );
        let report = Report {
            agent: run_as.clone(),
            server: self.name.clone(),
            status,
            at: now,
        };
        if credentials.home == self.name {
            self.record_report(report, None);
            self.hand_off(custody, None);
            return;
        }
        // Reports ride the reliable layer as well — under 20% loss the
        // tour would otherwise survive only for the home site to miss the
        // outcome. No recovery plan: a report about an undeliverable
        // report must not recurse.
        let seq = self.next_report_seq.fetch_add(1, Ordering::Relaxed);
        let home = credentials.home.clone();
        let msg = Message::Report { report, seq, ctx };
        self.send_reliable(
            &home,
            msg,
            (Ack::REPORT, run_as.clone(), seq),
            None,
            custody,
        );
    }

    /// Starts one transfer leg on the reliable layer: journals the
    /// departure, sends `image` toward `dest` with the rest of the
    /// itinerary as its dead-stop `fallbacks`, and, for a `go`, hands the
    /// stay's custody to the frame.
    fn start_leg(
        &self,
        dest: Urn,
        run_as: Urn,
        credentials: Credentials,
        image: AgentImage,
        fallbacks: Vec<Urn>,
        leg: Leg,
    ) {
        self.journal.append(Event::AgentDispatched {
            agent: run_as.clone(),
            dest: dest.clone(),
        });
        let now = self.clock_now();
        let (parent, hop, arg, custody) = match leg {
            Leg::Dispatch {
                parent,
                payload,
                what,
            } => {
                let ctx = self.span_under(parent);
                let detail = format!("{what} toward {dest}");
                self.emit_span(ctx, SpanKind::Dispatch, &run_as, detail, now, 0);
                (ctx, 0, payload, None)
            }
            Leg::Go { admission, hop } => {
                (admission, hop + 1, Vec::new(), Some((run_as.clone(), hop)))
            }
        };
        let msg = Message::Transfer {
            run_as: run_as.clone(),
            credentials: credentials.clone(),
            image,
            hop,
            arg,
            ctx: parent.child(self.journal.mint_span()),
            sent_ns: now,
        };
        let recovery = Recovery {
            credentials,
            fallbacks,
        };
        let key = (Ack::TRANSFER, run_as, hop);
        self.send_reliable(&dest, msg, key, Some(recovery), custody);
    }

    /// At-least-once delivery: sends `msg` and hands `custody` to it,
    /// tracked under `key` until the peer's [`Message::Ack`] clears it;
    /// the server loop re-sends and eventually dead-stops it.
    fn send_reliable(
        &self,
        dest: &Urn,
        msg: Message,
        key: SendKey,
        recovery: Option<Recovery>,
        custody: Option<(Urn, u64)>,
    ) {
        // The frame carries its own span context; the pending entry
        // remembers it so acks and retries can attach to the same span.
        let (ctx, first_sent_ns) = match &msg {
            Message::Transfer { ctx, sent_ns, .. } => (*ctx, *sent_ns),
            Message::Report { ctx, .. } => (*ctx, self.clock_now()),
            _ => (SpanContext::root(TraceId(0), SpanId(0)), self.clock_now()),
        };
        let plaintext = msg.to_bytes();
        let entry = PendingSend {
            dest: dest.clone(),
            msg,
            attempt: 1,
            sent_at: self.started.elapsed(),
            recovery,
            ctx,
            first_sent_ns,
            last_sent_ns: first_sent_ns,
            custody: None,
        };
        // Tracked before it leaves, so the ack finds the frame pending
        // however soon the loop receives it, whichever thread sends. A
        // failed first send (unknown peer, detached endpoint) is just a
        // lost attempt: the loop retries it and the dead-stop path
        // eventually resolves the agent's fate.
        self.hand_off(custody, Some((key, entry)));
        let _ = self.send_plaintext(dest, &plaintext);
    }

    /// Hands `custody` on with an outcome (see [`Custody::hand_off`]) and
    /// logs the `Resolve` that falls due.
    fn hand_off(&self, custody: Option<(Urn, u64)>, carrier: Option<(SendKey, PendingSend)>) {
        let due = self.custody.lock().hand_off(custody, carrier);
        if let Some(record) = due {
            self.wal_append(record);
        }
    }

    /// One retry pass of the server loop: re-sends every frame whose ack
    /// grace has lapsed and dead-stops those out of attempts. Returns
    /// how long the loop may block before the next pass. `guard` says
    /// when each peer was last heard from.
    fn service_due(&self, guard: &ReplayGuard) -> Duration {
        let due = self.custody.lock().take_due(self.started.elapsed());
        for (key, entry, waited) in due.resend {
            self.resend(key, entry, waited, guard);
        }
        for (key, entry) in due.exhausted {
            self.dead_stop(key, entry);
        }
        due.wait
    }

    fn resend(&self, key: SendKey, mut entry: PendingSend, waited: Duration, guard: &ReplayGuard) {
        // The retry is *modeled* at the instant its ack grace ran out:
        // advance the virtual clock to the last attempt plus the grace
        // actually waited (a no-op when other traffic has already passed
        // it), so retry latency is visible in virtual-time metrics,
        // exactly like link transit is. On a socket transport that
        // instant is already past, so the clock never leads the wall.
        self.net
            .clock()
            .advance_to(entry.last_sent_ns + waited.as_nanos() as u64);
        entry.attempt += 1;
        let (kind, agent, seq) = &key;
        if *kind == Ack::TRANSFER {
            self.journal.append(Event::TransferRetried {
                agent: agent.clone(),
                dest: entry.dest.clone(),
                hop: *seq,
                attempt: entry.attempt,
            });
        }
        // Each retry journals as a child span of the frame it re-sends;
        // its duration is the backoff actually waited since the previous
        // attempt, which also feeds the RetryBackoff histogram.
        let now = self.clock_now();
        let backoff = now.saturating_sub(entry.last_sent_ns);
        self.journal
            .histos()
            .record(HistoPath::RetryBackoff, backoff);
        self.emit_span(
            entry.ctx.child(self.journal.mint_span()),
            SpanKind::Retry,
            agent,
            format!("attempt {} toward {}", entry.attempt, entry.dest),
            entry.last_sent_ns,
            backoff,
        );
        // Nothing from the peer has opened since the frame left: the
        // peer may have restarted and refuse the session the frame rode.
        if guard
            .last_opened(&entry.dest)
            .is_none_or(|t| t < entry.last_sent_ns)
        {
            self.reopen_session(&entry.dest, entry.last_sent_ns);
        }
        self.send_again(key, entry, now);
    }

    /// Sends a tracked frame again, to its current destination, and
    /// tracks it anew from `now`.
    fn send_again(&self, key: SendKey, mut entry: PendingSend, now: u64) {
        entry.last_sent_ns = now;
        let _ = self.send_message(&entry.dest, &entry.msg);
        entry.sent_at = self.started.elapsed();
        self.custody.lock().track(key, entry);
    }

    /// Carries out [`Custody::dead_stop`]'s choice for a frame out of
    /// attempts.
    fn dead_stop(&self, key: SendKey, mut entry: PendingSend) {
        let (_, agent, hop) = &key;
        match Custody::dead_stop(&key, &mut entry) {
            DeadStop::ReportLost(detail) => self.reject(RejectKind::ReportUndeliverable, detail),
            DeadStop::SendHome {
                credentials,
                status,
            } => {
                self.journal.append(Event::AgentRecovered {
                    agent: agent.clone(),
                    hop: *hop,
                    disposition: "sent-home",
                });
                // No fallback ends the leg: close the transfer span as
                // lost (the Failed report journals as its child), so the
                // tour's tree still accounts for the agent's whole fate.
                self.emit_span(
                    entry.ctx,
                    SpanKind::Transfer,
                    agent,
                    format!("to {} lost after {} attempts", entry.dest, entry.attempt),
                    entry.first_sent_ns,
                    self.clock_now().saturating_sub(entry.first_sent_ns),
                );
                // Custody passes to the Failed report: the home site
                // learning the fate is what settles the admission.
                let parent = Some((entry.ctx.trace, entry.ctx.span));
                self.report_home(agent, &credentials, status, parent, entry.custody);
            }
            DeadStop::Skip { skipped } => {
                self.journal.append(Event::HopSkipped {
                    agent: agent.clone(),
                    skipped,
                    next: entry.dest.clone(),
                    hop: *hop,
                });
                self.journal.append(Event::AgentRecovered {
                    agent: agent.clone(),
                    hop: *hop,
                    disposition: "skipped",
                });
                // The span context and first-send baseline carry over: a
                // skip is the *same* transfer leg finding another door,
                // and its eventual RTT should include the time burned on
                // the dead stop.
                self.send_again(key, entry, self.clock_now());
            }
        }
    }

    /// Appends one record to the admission WAL, when there is one. An
    /// `Admit` is appended on the server loop before the tick's outbox,
    /// carrying its ack, is flushed, so the admission is durable before
    /// its ack can physically leave.
    fn wal_append(&self, record: WalRecord) {
        if let Some(wal) = &self.wal {
            if wal.append(&record).is_ok() {
                self.journal.counters().add(Counter::WalAppends, 1);
            }
        }
    }

    /// The admission checks every arriving and every waking agent
    /// passes, in order (Section 5.2's problem list): its credentials
    /// verify at `now` (tamper-evidence, expiry, certification); it runs
    /// as the credentialed agent or a child within its name subtree
    /// (Section 2: an agent's creator may be another agent); its image is
    /// consistent and its module loads into a fresh name-space, where
    /// shadowing a system module is refused; and the policy authorizes
    /// it (server policy ∩ owner delegation).
    fn admission_checks(
        &self,
        now: u64,
        run_as: &Urn,
        credentials: &Credentials,
        image: &AgentImage,
    ) -> Result<Cleared, Refusal> {
        let delegated = credentials
            .verify(&self.roots, now)
            .map_err(|e| Refusal::Credentials(e.to_string()))?;
        if *run_as != credentials.agent && !run_as.is_within(&credentials.agent) {
            return Err(Refusal::Identity);
        }
        let mut namespace = Namespace::with_system(&self.system_modules)
            .map_err(|e| Refusal::Namespace(e.to_string()))?;
        image.validate().map_err(|_| Refusal::Image)?;
        let verified = namespace
            .load(image.module.clone())
            .map_err(Refusal::Module)?;
        let authorization =
            self.policy
                .read()
                .authorize(&credentials.agent, &credentials.owner, &delegated);
        Ok(Cleared {
            authorization,
            verified,
        })
    }

    /// Revives a hibernated agent: takes its bundle (atomically — exactly
    /// one concurrent wake wins), runs the admission checks again,
    /// rebuilds interpreter and environment, and hands a fresh task to the
    /// scheduler. Returns whether a bundle was found and revived.
    pub(crate) fn wake_agent(self: &Arc<Self>, agent: &Urn) -> bool {
        let t0 = Instant::now();
        let Some(mut bundle) = self.bundles.take(agent) else {
            return false;
        };
        let Some(domain) = self.domains.domain_of(agent) else {
            // Evicted while hibernated (a shutdown or kill raced the
            // wake); there is no stay to resume.
            return false;
        };
        let hop = bundle.hop;
        let credentials = &bundle.credentials;
        let cleared =
            match self.admission_checks(self.clock_now(), agent, credentials, &bundle.image) {
                Ok(cleared) => cleared,
                Err(refusal) => {
                    let detail = match refusal {
                        Refusal::Credentials(e) => format!("credentials no longer verify: {e}"),
                        Refusal::Identity => format!("{agent} is not within {}", credentials.agent),
                        Refusal::Namespace(e) => format!("system namespace: {e}"),
                        Refusal::Image => "hibernated image inconsistent".into(),
                        Refusal::Module(e) => format!("module no longer loads: {e}"),
                    };
                    self.wake_fail(agent, domain, &bundle, detail);
                    return true;
                }
            };
        // Only `AgentTask::try_hibernate` stores bundles, always warm.
        let verified = cleared.verified;
        let restored = bundle.warm.take().and_then(|warm| {
            let interp =
                Interpreter::import_state(Arc::clone(&verified), self.vm_limits, warm.interp)?;
            Some((interp, (warm.rng_state, warm.children, warm.last_sender)))
        });
        let Some((interp, (rng_state, children, last_sender))) = restored else {
            self.wake_fail(
                agent,
                domain,
                &bundle,
                "hibernated state inconsistent with module".into(),
            );
            return true;
        };
        let mut env = AgentEnv::new(
            Arc::clone(self),
            domain,
            agent.clone(),
            bundle.credentials.clone(),
            cleared.authorization,
            bundle.ctx,
        );
        env.set_module(verified);
        env.restore_session(rng_state, children, last_sender);
        self.journal.append(Event::AgentWoken {
            agent: agent.clone(),
            hop,
        });
        self.journal
            .histos()
            .record(HistoPath::WakeLatency, t0.elapsed().as_nanos() as u64);
        self.sched.spawn(Box::new(AgentTask {
            shared: Arc::clone(self),
            domain,
            credentials: bundle.credentials,
            entry: bundle.image.entry,
            module: bundle.image.module,
            hop,
            run_as: agent.clone(),
            admission_ctx: bundle.ctx,
            state: TaskState::Warm {
                env: Box::new(env),
                interp: Box::new(interp),
            },
        }));
        true
    }

    /// Revokes every live proxy for `resource` that this server issued
    /// (Section 5.5 revocation, driven administratively). Each live grant
    /// is invalidated through its [`ajanta_core::ProxyControl`] — which
    /// journals a per-holder `ProxyRevoke` through its attached hook —
    /// and dead grant entries are pruned in the same pass. An
    /// administrative `ProxyRevoke { holder: SERVER }` record is always
    /// appended, so the revocation *decision* is visible in this server's
    /// journal even when every holder has already departed. Returns the
    /// number of live proxies invalidated.
    pub fn revoke_resource(&self, resource: &Urn) -> usize {
        let mut revoked = 0usize;
        self.grants.lock().retain(|g| {
            let Some(control) = g.control.upgrade() else {
                return false;
            };
            if g.resource == *resource {
                if control.revoke(DomainId::SERVER).is_ok() {
                    revoked += 1;
                }
                false
            } else {
                true
            }
        });
        self.journal.append(Event::ProxyRevoke {
            resource: resource.clone(),
            holder: DomainId::SERVER,
        });
        revoked
    }

    /// Asks a resident, non-hibernated agent to hibernate at its next
    /// safe yield point (control plane `hibernate` op). Returns whether
    /// the request was accepted — the spill itself happens when the
    /// agent's task next yields with no live bindings and no pending
    /// migration.
    pub fn request_hibernate(&self, agent: &Urn) -> bool {
        if self.domains.domain_of(agent).is_none() || self.bundles.contains(agent) {
            return false;
        }
        self.hibernate_requests.lock().insert(agent.clone());
        true
    }

    /// Whether `agent` currently sits in the bundle store.
    pub fn is_hibernated(&self, agent: &Urn) -> bool {
        self.bundles.contains(agent)
    }

    /// A failed revival must leave no residue and must still settle the
    /// agent's fate — the same obligations `AgentTask::complete` meets.
    fn wake_fail(&self, agent: &Urn, domain: DomainId, bundle: &AgentBundle, detail: String) {
        self.reject(
            RejectKind::BadCredentials,
            format!("wake {agent}: {detail}"),
        );
        self.mailboxes.lock().remove(agent);
        let _ = self.domains.evict(DomainId::SERVER, domain);
        self.report_home(
            agent,
            &bundle.credentials,
            ReportStatus::Failed(format!("wake failed: {detail}")),
            Some((bundle.ctx.trace, bundle.ctx.span)),
            Some((agent.clone(), bundle.hop)),
        );
    }
}

/// The running server's control handle: the server's [`ControlView`]
/// (which it dereferences to) plus what only the owner of the server's
/// lifecycle may do — launch agents, register resources, edit policy,
/// shut down. [`ServerHandle::shutdown`] and dropping the handle do the
/// same: the server's endpoint is detached from its transport, and the
/// loop handles what was already delivered, sends the acks it owes and
/// exits before the handle returns. Agents already running are left to
/// the scheduler.
pub struct ServerHandle {
    view: ControlView,
    join: Option<std::thread::JoinHandle<()>>,
}

impl std::ops::Deref for ServerHandle {
    type Target = ControlView;

    fn deref(&self) -> &ControlView {
        &self.view
    }
}

impl ServerHandle {
    /// Launches an agent from this (home) server toward `dest`.
    pub fn launch(&self, dest: Urn, credentials: Credentials, image: AgentImage) {
        self.start_launch(dest, credentials, image, Vec::new());
    }

    /// Launches an agent along `itinerary`: toward its first stop, with
    /// the remaining stops registered as dead-stop fallbacks, so even the
    /// launch leg survives an unreachable first server. An empty
    /// itinerary is refused immediately (local report).
    pub fn launch_tour(&self, itinerary: &Itinerary, credentials: Credentials, image: AgentImage) {
        let (dest, rest) = itinerary.clone().next_stop();
        let Some(dest) = dest else {
            self.view.shared.report_home(
                &credentials.agent.clone(),
                &credentials,
                ReportStatus::Refused("launch with empty itinerary".into()),
                None,
                None,
            );
            return;
        };
        self.start_launch(dest, credentials, image, rest.stops().to_vec());
    }

    /// Starts a launch leg on the caller's thread, as `go` and child
    /// dispatch start theirs. Every launch roots a fresh trace: a
    /// Dispatch span with no parent, whose id every later span of the
    /// tour transitively descends from.
    fn start_launch(
        &self,
        dest: Urn,
        credentials: Credentials,
        image: AgentImage,
        fallbacks: Vec<Urn>,
    ) {
        let launch = Leg::Dispatch {
            parent: None,
            payload: Vec::new(),
            what: "launch",
        };
        let agent = credentials.agent.clone();
        let shared = &self.view.shared;
        shared.start_leg(dest, agent, credentials, image, fallbacks, launch);
    }

    /// Registers a resource in this server's registry (server domain).
    pub fn register_resource(&self, resource: Arc<dyn AccessProtocol>) -> Result<(), String> {
        let shared = &self.view.shared;
        shared
            .registry
            .register(&shared.monitor, DomainId::SERVER, &shared.name, resource)
            .map_err(|e| e.to_string())
    }

    /// Runs `f` against the server's policy (e.g. to add rules at
    /// runtime — Section 5.1's dynamically modified policies).
    pub fn with_policy<R>(&self, f: impl FnOnce(&mut SecurityPolicy) -> R) -> R {
        f(&mut self.view.shared.policy.write())
    }

    /// Snapshot of reports received here as a home site.
    pub fn reports(&self) -> Vec<Report> {
        self.view.shared.reports.lock().clone()
    }

    /// Blocks (real time) until at least `n` reports have arrived or the
    /// timeout elapses; returns the snapshot either way.
    pub fn wait_reports(&self, n: usize, timeout: std::time::Duration) -> Vec<Report> {
        self.wait_until(timeout, |reports| reports.len() >= n)
    }

    /// Blocks (real time) until `n` distinct agents have reported or the
    /// timeout elapses; returns every report either way. Unlike
    /// [`ServerHandle::wait_reports`], duplicate reports of one agent
    /// (conflicting verdicts after a false dead stop) do not count.
    pub fn wait_agents(&self, n: usize, timeout: std::time::Duration) -> Vec<Report> {
        let mut agents = HashSet::new();
        let mut counted = 0;
        self.wait_until(timeout, |reports| {
            agents.extend(reports[counted..].iter().map(|r| r.agent.clone()));
            counted = reports.len();
            agents.len() >= n
        })
    }

    /// Parks on the report condvar, signalled per arrival, until `done`
    /// holds for the reports so far or the timeout elapses.
    fn wait_until(
        &self,
        timeout: std::time::Duration,
        mut done: impl FnMut(&[Report]) -> bool,
    ) -> Vec<Report> {
        let shared = &self.view.shared;
        let deadline = Instant::now() + timeout;
        let mut reports = shared.reports.lock();
        loop {
            let now = Instant::now();
            if done(&reports) || now >= deadline {
                return reports.clone();
            }
            reports = shared.reports_cv.wait_timeout(reports, deadline - now).0;
        }
    }

    /// Asks `server`'s domain database about `agent` over the network —
    /// paper Section 4: the domain database "responds to status queries
    /// from their owners".
    ///
    /// The error distinguishes a server that could not be asked or never
    /// answered ([`QueryError::Unreachable`] / [`QueryError::Timeout`])
    /// from one that answered "not resident" — callers can now tell a
    /// dead server from a completed agent.
    pub fn query_status(
        &self,
        server: &Urn,
        agent: &Urn,
        timeout: std::time::Duration,
    ) -> Result<AgentStatus, QueryError> {
        let shared = &self.view.shared;
        // The reply slot is registered before the query leaves, so the
        // loop can complete it however soon the reply arrives.
        let query_id = shared.next_query_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
        shared.queries.lock().insert(query_id, reply_tx);
        let msg = Message::StatusQuery {
            query_id,
            agent: agent.clone(),
        };
        // Tell the caller *why* instead of letting it time out against a
        // server that was never asked.
        let result = match shared.send_message(server, &msg) {
            Ok(()) => reply_rx
                .recv_timeout(timeout)
                .map_err(|_| QueryError::Timeout),
            Err(e) => Err(QueryError::Unreachable(e)),
        };
        shared.queries.lock().remove(&query_id);
        result
    }

    /// Scheduler queue depths as seen from this server's pool: tasks
    /// ready (queued), running (on a worker this instant), and parked
    /// (ready but cold — holding only their VM image, no stack). With a
    /// world-shared pool the depths span every server on it.
    pub fn sched_depths(&self) -> SchedDepths {
        self.view.shared.sched.depths()
    }

    /// The worker pool this server's agents execute on.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.view.shared.sched
    }

    /// Number of agents currently hibernated (resident but spilled to
    /// the bundle store, holding no interpreter or scheduler task).
    pub fn hibernated_agents(&self) -> usize {
        self.view.shared.bundles.len()
    }

    /// A cheap, cloneable copy of this server's view for the control
    /// plane — everything `runtime::control` serves, without owning the
    /// server's lifecycle.
    pub fn control_view(&self) -> ControlView {
        self.view.clone()
    }

    /// Delivers local mail from the control plane (tests, tools) as if a
    /// co-located agent had sent it.
    pub fn deliver_mail(&self, from: Urn, to: Urn, data: Vec<u8>) -> bool {
        self.view.shared.local_mail(from, to, data)
    }

    /// Stops the server loop and joins its thread, as dropping the
    /// handle does (see [`ServerHandle`]). The scheduler is left to
    /// whoever created it (see [`ServerConfig::scheduler`]).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    /// Detaches the server's endpoint, which ends the loop's inbox, and
    /// joins the loop.
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let shared = &self.view.shared;
            shared.net.detach(&shared.name);
            let _ = join.join();
        }
    }
}

/// Records a whole-journal read copies under the journal's lock at once.
const JOURNAL_READ_PAGE: usize = 512;

/// Visits the journal's records in seq order, from the oldest retained up
/// to the newest at the call's start. Pages of at most
/// [`JOURNAL_READ_PAGE`] records are copied under the journal's lock one at
/// a time, so the read stalls the server's appenders for one page, never
/// for the whole ring.
fn scan_journal(journal: &Journal, mut visit: impl FnMut(&[Record])) {
    let end = journal.next_seq();
    let mut cursor = 0;
    while cursor < end {
        let page = journal.page(cursor, JOURNAL_READ_PAGE);
        let Some(last) = page.last() else { break };
        cursor = last.seq + 1;
        visit(&page[..page.partition_point(|r| r.seq < end)]);
    }
}

/// A cheap, cloneable, read-mostly view of one server: agent inventory,
/// telemetry, journal, logs, trace export, hibernate/wake, and proxy
/// revocation — everything `runtime::control` serves — without owning
/// the server's lifecycle (no shutdown, no join handles). A
/// [`ServerHandle`] dereferences to its server's view; the control plane
/// holds clones from [`ServerHandle::control_view`].
#[derive(Clone)]
pub struct ControlView {
    shared: Arc<Shared>,
}

impl ControlView {
    /// The server's name.
    pub fn name(&self) -> &Urn {
        &self.shared.name
    }

    /// The server's telemetry journal: typed events, aggregate counters,
    /// and the Prometheus-style snapshot.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.shared.journal)
    }

    /// A typed copy of every counter and histogram (see
    /// [`Journal::telemetry_snapshot`]).
    pub fn telemetry(&self) -> ajanta_core::telemetry::TelemetrySnapshot {
        self.shared.journal.telemetry_snapshot()
    }

    /// Number of currently resident agents (including hibernated ones),
    /// counted without copying their records.
    pub fn resident_agents(&self) -> usize {
        self.shared.domains.len()
    }

    /// `f` of the domain-database record of every resident agent
    /// (including hibernated ones — their domains survive the spill), in
    /// domain order, read a page at a time (see
    /// [`DomainDatabase::project`]): a listing copies only what it
    /// renders.
    pub fn project_agents<T>(&self, f: impl FnMut(&ajanta_core::AgentRecord) -> T) -> Vec<T> {
        self.shared.domains.project(f)
    }

    /// The record of one resident agent, if present.
    pub fn record_of(&self, agent: &Urn) -> Option<ajanta_core::AgentRecord> {
        self.shared.domains.record_of(agent)
    }

    /// Names of the agents currently hibernated in the bundle store.
    pub fn hibernated_list(&self) -> Vec<Urn> {
        self.shared.bundles.list()
    }

    /// Whether `agent` currently sits in the bundle store.
    pub fn is_hibernated(&self, agent: &Urn) -> bool {
        self.shared.is_hibernated(agent)
    }

    /// `(agent, hop)` pairs whose custody is still in flight: reliable
    /// frames carrying a WAL admission that has not been resolved by an
    /// ack yet.
    pub fn in_flight_agents(&self) -> Vec<(Urn, u64)> {
        self.shared.custody.lock().in_flight()
    }

    /// The `n` most recent per-agent log lines, oldest first — a filtered
    /// view of the journal's [`Event::AgentLog`] records, bounded by the
    /// journal capacity (the exact lifetime count is the journal's
    /// `LogLines` counter).
    pub fn logs_tail(&self, n: usize) -> Vec<(Urn, String)> {
        let mut lines = VecDeque::new();
        scan_journal(&self.shared.journal, |page| {
            for r in page {
                if let Event::AgentLog { agent, text } = &r.event {
                    lines.push_back((agent.clone(), text.clone()));
                    if lines.len() > n {
                        lines.pop_front();
                    }
                }
            }
        });
        lines.into()
    }

    /// Total encoded bytes the hibernated agents occupy — the entire
    /// per-agent footprint while asleep, versus a warm agent's live
    /// interpreter ([`ajanta_vm::Interpreter`] memory) plus environment.
    pub fn hibernated_bytes(&self) -> usize {
        self.shared.bundles.stored_bytes()
    }

    /// Names in the resource registry.
    pub fn resources(&self) -> Vec<Urn> {
        self.shared.registry.list()
    }

    /// Number of reliable sends still awaiting an ack (or their
    /// dead-stop). A trace export is only guaranteed orphan-free once
    /// every server reports zero here: the Transfer span for a leg is
    /// journaled when the leg *resolves*, so exporting mid-flight can
    /// miss parents of already-journaled Retry and Admission spans.
    pub fn pending_send_count(&self) -> usize {
        self.shared.custody.lock().len()
    }

    /// Exports this server's trace-relevant journal records as JSONL for
    /// offline merging (`ajanta_core::trace::parse_jsonl`,
    /// `ajantactl trace`).
    pub fn export_jsonl(&self) -> String {
        let server = self.shared.name.to_string();
        let mut out = String::new();
        scan_journal(&self.shared.journal, |page| {
            out.push_str(&ajanta_core::trace::export_journal(&server, page));
        });
        out
    }

    /// Asks a resident agent to hibernate at its next safe yield point
    /// (see [`Shared::request_hibernate`]).
    pub fn hibernate(&self, agent: &Urn) -> bool {
        self.shared.request_hibernate(agent)
    }

    /// Explicitly wakes a hibernated agent (the tour-resume wake path;
    /// mail arrival wakes implicitly). Returns whether a bundle was
    /// found and revived.
    pub fn wake(&self, agent: &Urn) -> bool {
        self.shared.wake_agent(agent)
    }

    /// Revokes every live proxy this server issued for `resource` (see
    /// [`Shared::revoke_resource`]). Returns the live proxies
    /// invalidated.
    pub fn revoke_resource(&self, resource: &Urn) -> usize {
        self.shared.revoke_resource(resource)
    }
}

/// The agent server. Construct with [`AgentServer::spawn`].
pub struct AgentServer;

impl AgentServer {
    /// Starts a server thread attached to any [`Transport`] — the
    /// simulation or a real socket transport — and returns its handle.
    ///
    /// # Panics
    /// Panics if the server name is already attached to the transport.
    pub fn spawn(net: Arc<dyn Transport>, config: ServerConfig) -> ServerHandle {
        let endpoint = net
            .attach(config.name.clone())
            .expect("server name already attached");
        // One journal per server, stamped with the network's virtual
        // clock; the monitor audits into it, so the audit trail shares
        // the stream (and the bound) with everything else. The span tag
        // is a hash of the server name so span ids minted on different
        // servers never collide when journals are merged for tracing.
        let clock = net.clock().clone();
        let tag = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            config.name.hash(&mut h);
            h.finish() as u32
        };
        let journal = Arc::new(
            Journal::with_capacity(config.journal_capacity)
                .with_clock(move || clock.now())
                .with_span_tag(tag),
        );
        let monitor = HostMonitor::with_journal(Arc::clone(&journal), config.agents_may_dispatch);
        // Crash recovery happens before the loop starts: read whatever
        // log a previous incarnation left, then reopen it for appending.
        // The custody core remembers what the log settled and hands back
        // the admissions to re-admit once the loop is live.
        let mut custody = Custody::new(config.retry);
        let (wal, replay) = match &config.wal {
            Some(path) => {
                let records = AdmissionWal::replay(path).unwrap_or_default();
                let replay = custody.recover(AdmissionWal::recover(records));
                (AdmissionWal::open(path).ok(), replay)
            }
            None => (None, Vec::new()),
        };
        let born = net.clock().now();
        let shared = Arc::new(Shared {
            name: config.name.clone(),
            identity: config.identity,
            roots: config.roots,
            directory: config.directory,
            net: Arc::clone(&net),
            monitor,
            registry: ResourceRegistry::new(),
            domains: DomainDatabase::new(),
            policy: RwLock::new(config.policy),
            system_modules: config.system_modules,
            agent_limits: config.agent_limits,
            vm_limits: config.vm_limits,
            sched: config.scheduler,
            mailboxes: Mutex::new(HashMap::new()),
            journal,
            reports: Mutex::new(Vec::new()),
            reports_cv: Condvar::new(),
            queries: Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(1),
            // A restarted incarnation draws fresh ephemerals and
            // signature nonces: the same seed would replay the previous
            // incarnation's, and one nonce under two messages gives the
            // signing key away.
            rng: Mutex::new(DetRng::new(config.seed ^ born)),
            born,
            outbound: Mutex::new(Outbound::default()),
            custody: Mutex::new(custody),
            started: Instant::now(),
            next_report_seq: AtomicU64::new(1),
            bundles: crate::bundle::BundleStore::in_memory(),
            wal,
            hibernate_after_misses: config.hibernate_after_misses,
            grants: Mutex::new(Vec::new()),
            hibernate_requests: Mutex::new(HashSet::new()),
        });

        // Transport-level frame rejections (undecodable bytes, failed
        // handshakes, oversize lengths) land in the same journal as
        // datagram-level ones. The simulation never produces any; a
        // socket transport facing a hostile peer does.
        {
            let journal = Arc::clone(&shared.journal);
            net.on_frame_reject(Arc::new(move |detail: &str| {
                journal.append(Event::Rejected {
                    kind: RejectKind::BadDatagram,
                    detail: format!("transport: {detail}"),
                });
            }));
        }
        // Write-batch observations from the socket data plane: each
        // coalesced stream write lands one sample in the frames-per-write
        // histogram plus the two coalescing counters. The simulation
        // issues no writes, so on a SimNet this hook never fires.
        {
            let journal = Arc::clone(&shared.journal);
            net.on_write_batch(Arc::new(move |frames: u64| {
                journal.histos().record(HistoPath::FramesPerWrite, frames);
                journal.counters().add(Counter::FramesCoalesced, frames);
                journal.counters().add(Counter::WriteSyscalls, 1);
            }));
        }

        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name(format!("ajanta-{}", config.name.leaf()))
            .spawn(move || server_loop(loop_shared, endpoint, replay))
            .expect("spawning server thread");

        ServerHandle {
            view: ControlView { shared },
            join: Some(join),
        }
    }
}

/// What only the server loop touches.
struct LoopState {
    /// The datagram sessions peers opened to this incarnation.
    guard: ReplayGuard,
    /// Admitted agents collected this tick; handed to the scheduler as
    /// one batch so a delivery burst costs one queue wakeup, not N.
    batch: Vec<Box<dyn Task>>,
    /// Ack/report-ack frames owed for this tick's deliveries, sent after
    /// the burst drain so a burst of N transfers hands the transport N
    /// back-to-back acks, which the socket writer coalesces into few
    /// writes. Each ack is queued before its frame's dedup check: ack
    /// first, even duplicates.
    outbox: Vec<(Urn, Message)>,
}

impl LoopState {
    /// Sends the acks owed so far, then enqueues the admissions.
    fn flush(&mut self, shared: &Shared) {
        for (dest, msg) in self.outbox.drain(..) {
            let _ = shared.send_message(&dest, &msg);
        }
        if !self.batch.is_empty() {
            shared.sched.spawn_batch(self.batch.drain(..));
        }
    }
}

/// The server loop: its one inbox is the server's endpoint. It ends
/// when the endpoint is detached ([`ServerHandle::shutdown`] or a dropped
/// handle) and everything delivered before has been handled.
fn server_loop(shared: Arc<Shared>, endpoint: Box<dyn NetEndpoint>, replay: Vec<AgentBundle>) {
    let mut state = LoopState {
        guard: ReplayGuard::since(shared.born),
        batch: Vec::new(),
        outbox: Vec::new(),
    };
    // WAL replay: re-admit every agent a previous incarnation owned but
    // had not resolved, through the normal admission pipeline. Custody
    // already remembers each key, so the peer's own retry of the same
    // frame arriving later is a duplicate — and `wal_log: false` keeps
    // the replay from re-logging admissions that are already in the log
    // unresolved.
    for bundle in replay {
        shared.journal.append(Event::WalReplayed {
            agent: bundle.agent.clone(),
            hop: bundle.hop,
        });
        let sent_ns = shared.clock_now();
        admit(&shared, bundle, sent_ns, false, &mut state.batch);
    }
    state.flush(&shared);
    loop {
        // Retries and dead stops happen here and only here: the retry
        // pass runs after the previous burst was drained and its acks
        // flushed, so an ack already received clears its frame before
        // that frame's grace is checked. The loop then blocks no longer
        // than the next frame needs. Every receive advances a simulated
        // clock to the delivery's arrival.
        let wait = shared.service_due(&state.guard);
        match endpoint.recv_timeout(wait) {
            Ok(d) => handle_delivery(&shared, d, &mut state),
            // Detached, and every earlier delivery handled: the pass
            // that drained the last burst flushed its acks (a peer must
            // not re-send a transfer this server admitted) and handed
            // its admissions to the scheduler, whose drain-on-stop runs
            // them.
            Err(NetError::Disconnected) => return,
            Err(_) => {}
        }
        // Drain the rest of the burst without blocking, then enqueue
        // the whole tick's admissions at once.
        while let Ok(d) = endpoint.try_recv() {
            handle_delivery(&shared, d, &mut state);
        }
        state.flush(&shared);
    }
}

fn handle_delivery(shared: &Arc<Shared>, delivery: Delivery, state: &mut LoopState) {
    let now = shared.clock_now();
    let datagram = match SealedDatagram::from_bytes(&delivery.payload) {
        Ok(d) => d,
        Err(e) => {
            shared.reject(RejectKind::BadDatagram, format!("undecodable: {e}"));
            return;
        }
    };
    let opened = state.guard.open(
        &datagram,
        &shared.identity,
        &shared.identity.keys,
        &shared.roots,
        now,
    );
    let (sender, plaintext) = match opened {
        Ok(opened) => {
            if opened.new_session {
                shared.peer_started(&opened.from, datagram.born);
            }
            (opened.from, opened.payload)
        }
        Err(e) => {
            // Replay-class failures (a reused frame number or a closed
            // session) get their own typed category; everything else is
            // tampering or decode trouble.
            let kind = if e.is_replay() {
                RejectKind::Replay
            } else {
                RejectKind::BadDatagram
            };
            shared.reject(kind, e.to_string());
            return;
        }
    };
    let message = match Message::from_bytes(&plaintext) {
        Ok(m) => m,
        Err(e) => {
            shared.reject(
                RejectKind::BadDatagram,
                format!("bad message from {sender}: {e}"),
            );
            return;
        }
    };
    // Ack first — even duplicates: "acknowledged but not re-admitted".
    // The ack leaves with the tick's outbox, after any admission below
    // has been logged.
    let receipt = shared.custody.lock().receive(&sender, &message);
    if let Some(receipt) = receipt {
        state.outbox.push((sender.clone(), receipt.ack));
        if let Some(detail) = receipt.duplicate {
            shared.reject(RejectKind::DuplicateHop, detail);
            return;
        }
    }
    match message {
        Message::Transfer {
            credentials,
            image,
            hop,
            run_as,
            arg,
            ctx,
            sent_ns,
        } => {
            let bundle = AgentBundle {
                agent: run_as,
                hop,
                credentials,
                image,
                arg,
                ctx,
                warm: None,
            };
            admit(shared, bundle, sent_ns, true, &mut state.batch);
        }
        Message::Report { report, ctx, .. } => shared.record_report(report, Some(ctx)),
        Message::Ack { kind, agent, seq } => {
            // The first ack settles the frame; duplicates find nothing
            // pending and do nothing (so no span is journaled twice). A
            // settled transfer closes its Transfer span with the full
            // virtual round trip since the *first* send — retry backoffs
            // included, which is exactly the tail the histogram is for.
            let acked = shared.custody.lock().acked(&(kind, agent.clone(), seq));
            if let Some((entry, resolve)) = acked {
                if kind == Ack::TRANSFER {
                    let rtt = shared.clock_now().saturating_sub(entry.first_sent_ns);
                    shared.journal.histos().record(HistoPath::TransferRtt, rtt);
                    shared.emit_span(
                        entry.ctx,
                        SpanKind::Transfer,
                        &agent,
                        format!("to {} acked after {} attempt(s)", entry.dest, entry.attempt),
                        entry.first_sent_ns,
                        rtt,
                    );
                }
                if let Some(record) = resolve {
                    shared.wal_append(record);
                }
            }
        }
        Message::AgentMail { from, to, data } => {
            if !shared.local_mail(from.clone(), to.clone(), data) {
                shared.reject(
                    RejectKind::MailDenied,
                    format!("no resident agent {to} (mail from {from})"),
                );
            }
        }
        Message::StatusQuery { query_id, agent } => {
            let status = match shared.domains.record_of(&agent) {
                Some(rec) => AgentStatus::Resident {
                    owner: rec.owner,
                    creator: rec.creator,
                    fuel_used: rec.usage.fuel,
                    bindings: rec.bindings,
                },
                None => AgentStatus::NotResident,
            };
            let reply = Message::StatusReply {
                query_id,
                agent,
                status,
            };
            if let Err(e) = shared.send_message(&sender, &reply) {
                shared.reject(RejectKind::ReportUndeliverable, e);
            }
        }
        Message::StatusReply {
            query_id, status, ..
        } => {
            if let Some(reply) = shared.queries.lock().remove(&query_id) {
                let _ = reply.send(status);
            }
        }
    }
}

/// Admits the agent a transfer delivered (or the WAL replays), as its
/// `sent_ns` leg ends: the admission checks, then domain creation, then
/// its task joins `batch`. `wal_log = false` only on the WAL-replay
/// path: the admission being replayed already has an unresolved `Admit`
/// record in the log, so re-appending would only grow it.
fn admit(
    shared: &Arc<Shared>,
    bundle: AgentBundle,
    sent_ns: u64,
    wal_log: bool,
    batch: &mut Vec<Box<dyn Task>>,
) {
    // Real-time start of the admission pipeline (credential verification
    // through domain creation) — the Admission span's duration.
    let pipeline_t0 = Instant::now();
    let now = shared.clock_now();
    let (run_as, hop, ctx) = (&bundle.agent, bundle.hop, bundle.ctx);
    let credentials = &bundle.credentials;
    let admitted = shared
        .admission_checks(now, run_as, credentials, &bundle.image)
        .map_err(|refusal| match refusal {
            Refusal::Credentials(e) => (
                RejectKind::BadCredentials,
                format!("{}: {e}", credentials.agent),
                None,
            ),
            Refusal::Identity => (
                RejectKind::BadIdentity,
                format!("{run_as} is not within {}", credentials.agent),
                None,
            ),
            Refusal::Namespace(e) => (RejectKind::BadImage, format!("system namespace: {e}"), None),
            Refusal::Image => (
                RejectKind::BadImage,
                format!("{run_as}: inconsistent image"),
                Some("inconsistent image".to_string()),
            ),
            Refusal::Module(e) => {
                let kind = if matches!(e, ajanta_vm::LoadError::ShadowsSystemModule(_)) {
                    RejectKind::ImpostorModule
                } else {
                    RejectKind::BadImage
                };
                (kind, format!("{run_as}: {e}"), Some(e.to_string()))
            }
        })
        .and_then(|cleared| {
            // Domain creation. For a dispatched child, the creator is the
            // parent agent; otherwise the credentialed creator.
            let creator = if *run_as == credentials.agent {
                credentials.creator.clone()
            } else {
                credentials.agent.clone()
            };
            let domain = shared
                .domains
                .admit(
                    DomainId::SERVER,
                    run_as.clone(),
                    credentials.owner.clone(),
                    creator,
                    credentials.home.clone(),
                    cleared.authorization.clone(),
                    shared.agent_limits,
                )
                .map_err(|e| {
                    (
                        RejectKind::DuplicateAgent,
                        e.to_string(),
                        Some(e.to_string()),
                    )
                })?;
            Ok((cleared, domain))
        });
    let (cleared, domain) = match admitted {
        Ok(admitted) => admitted,
        Err((kind, detail, refused)) => {
            // A refused image or name is reported home. Nothing about a
            // sender whose credentials, identity or name-space fail can
            // be trusted, so those are only journaled.
            shared.reject(kind, detail);
            if let Some(why) = refused {
                let parent = Some((ctx.trace, ctx.span));
                shared.report_home(
                    run_as,
                    credentials,
                    ReportStatus::Refused(why),
                    parent,
                    None,
                );
            }
            return;
        }
    };
    shared.journal.append(Event::AgentAdmitted {
        agent: run_as.clone(),
        domain,
        hop,
    });
    // Durability point: log the admission before this tick's outbox —
    // carrying the ack queued in `handle_delivery` — is flushed. After
    // this line a crash cannot lose the agent: either the ack never left
    // (the sender retries) or the WAL replays it.
    if wal_log && shared.wal.is_some() {
        shared.wal_append(WalRecord::Admit(Box::new(bundle.clone())));
    }

    // End-to-end hop latency on the virtual clock: from the sender's
    // first transmission to successful admission here — includes every
    // retry and fallback redirection the frame survived.
    shared
        .journal
        .histos()
        .record(HistoPath::HopLatency, now.saturating_sub(sent_ns));
    // The Admission span is a child of the transfer that delivered the
    // agent; everything the agent does on this server descends from it.
    let admission_ctx = ctx.child(shared.journal.mint_span());
    shared.emit_span(
        admission_ctx,
        SpanKind::Admission,
        run_as,
        format!("hop {hop}"),
        now,
        pipeline_t0.elapsed().as_nanos() as u64,
    );

    // Scheduling the agent's domain — still mediated by the monitor
    // (Section 5.3: thread-group manipulation is privileged), though the
    // "thread" is now a cooperative task on the shared worker pool.
    if shared
        .monitor
        .check(DomainId::SERVER, SystemOp::CreateThread { target: domain })
        .is_err()
    {
        return; // unreachable with the default policy; defensive.
    }

    batch.push(Box::new(AgentTask {
        shared: Arc::clone(shared),
        domain,
        credentials: bundle.credentials,
        entry: bundle.image.entry,
        module: bundle.image.module,
        hop,
        run_as: bundle.agent,
        admission_ctx,
        state: TaskState::Cold {
            verified: cleared.verified,
            globals: bundle.image.globals,
            arg: bundle.arg,
            authorization: cleared.authorization,
        },
    }));
}

/// One admitted agent as a resumable scheduler task.
///
/// Admission leaves the agent **cold**: the serialized image plus its
/// admission artifacts, no interpreter, no stack — that is all a parked
/// agent costs, which is what lets a server hold 100k of them. The first
/// slice warms it up (environment + interpreter + entry frame); every
/// slice after that resumes the parked call stack inside the
/// interpreter. When a slice returns [`SliceOutcome::Done`] the task
/// performs exactly what the old per-agent thread did after `run()`:
/// fuel accounting, eviction-before-report, and the outcome dispatch.
struct AgentTask {
    shared: Arc<Shared>,
    domain: DomainId,
    credentials: Credentials,
    /// Entry function name (from the image; needed for error texts).
    entry: String,
    /// The unverified module, kept for re-packaging on `go`.
    module: Module,
    hop: u64,
    run_as: Urn,
    admission_ctx: SpanContext,
    state: TaskState,
}

enum TaskState {
    /// Admitted, never run: image-only residency.
    Cold {
        verified: Arc<VerifiedModule>,
        globals: Vec<Value>,
        arg: Vec<u8>,
        authorization: Rights,
    },
    /// Executing or suspended mid-run; the interpreter holds the parked
    /// call stack between slices.
    Warm {
        env: Box<AgentEnv>,
        interp: Box<Interpreter>,
    },
    /// Finished (reported/migrated); only observed transiently.
    Done,
}

impl Task for AgentTask {
    fn run_slice(&mut self) -> bool {
        if matches!(self.state, TaskState::Cold { .. }) {
            let TaskState::Cold {
                verified,
                globals,
                arg,
                authorization,
            } = std::mem::replace(&mut self.state, TaskState::Done)
            else {
                unreachable!("state checked above");
            };
            let mut env = AgentEnv::new(
                Arc::clone(&self.shared),
                self.domain,
                self.run_as.clone(),
                self.credentials.clone(),
                authorization,
                self.admission_ctx,
            );
            env.set_module(Arc::clone(&verified));
            let mut interp = Interpreter::new(verified, self.shared.vm_limits);
            if !interp.restore_globals(globals) {
                // Evict before reporting: once the home site sees a
                // report, this server must already show no residue for
                // the agent.
                let _ = self.shared.domains.evict(DomainId::SERVER, self.domain);
                self.shared.report_home(
                    &self.run_as,
                    &self.credentials,
                    ReportStatus::Refused("global mismatch".into()),
                    self.parent(),
                    Some((self.run_as.clone(), self.hop)),
                );
                return true;
            }
            // By convention an empty entry argument means "the current
            // server's name"; a dispatching parent may have chosen a
            // payload instead.
            let entry_arg = if arg.is_empty() {
                Value::str(self.shared.name().to_string())
            } else {
                Value::Bytes(arg)
            };
            interp.start(&self.entry, vec![entry_arg]);
            self.state = TaskState::Warm {
                env: Box::new(env),
                interp: Box::new(interp),
            };
        }
        let TaskState::Warm { env, interp } = &mut self.state else {
            return true; // Done: defensive, a finished task is never requeued
        };
        match interp.run_slice(DEFAULT_SLICE_FUEL, &mut **env) {
            SliceOutcome::Yielded => self.try_hibernate(),
            SliceOutcome::Done(outcome) => {
                let TaskState::Warm { env, interp } =
                    std::mem::replace(&mut self.state, TaskState::Done)
                else {
                    unreachable!("state checked above");
                };
                self.complete(*env, *interp, outcome);
                true
            }
        }
    }

    fn journal(&self) -> &Arc<Journal> {
        &self.shared.journal
    }

    fn is_warm(&self) -> bool {
        matches!(self.state, TaskState::Warm { .. })
    }
}

impl AgentTask {
    fn parent(&self) -> Option<(TraceId, SpanId)> {
        Some((self.admission_ctx.trace, self.admission_ctx.span))
    }

    /// Spills this agent to the bundle store when it is demonstrably
    /// idle — enough consecutive empty mail polls, no live proxies whose
    /// leases would silently expire, no pending migration. Returns `true`
    /// (task done, never requeued) when the agent hibernated; the bundle
    /// holds everything [`Shared::wake_agent`] needs, the domain stays
    /// admitted (the agent is still *resident*, just not *running*), and
    /// the mailbox stays so late mail queues across the gap.
    fn try_hibernate(&mut self) -> bool {
        let requested = self.shared.hibernate_requests.lock().contains(&self.run_as);
        {
            let TaskState::Warm { env, .. } = &self.state else {
                return false;
            };
            // Safety gates apply unconditionally: live proxies would
            // silently expire in the bundle, and a pending migration
            // must run to completion.
            if env.binding_count() != 0 || env.pending_go().is_some() {
                return false;
            }
            // A control-plane request bypasses the idle-miss threshold
            // (and works even when auto-hibernation is off); otherwise
            // the agent must be demonstrably idle.
            if !requested {
                let Some(threshold) = self.shared.hibernate_after_misses else {
                    return false;
                };
                if env.mail_misses() < threshold {
                    return false;
                }
            }
        }
        let t0 = Instant::now();
        let TaskState::Warm { env, interp } = std::mem::replace(&mut self.state, TaskState::Done)
        else {
            unreachable!("state checked above");
        };
        let (rng_state, children, last_sender) = env.export_session();
        let bundle = crate::bundle::AgentBundle {
            agent: self.run_as.clone(),
            hop: self.hop,
            credentials: self.credentials.clone(),
            image: AgentImage {
                module: self.module.clone(),
                globals: interp.globals().to_vec(),
                entry: self.entry.clone(),
            },
            arg: Vec::new(),
            ctx: self.admission_ctx,
            warm: Some(crate::bundle::WarmState {
                interp: interp.export_state(),
                rng_state,
                children,
                last_sender,
            }),
        };
        let bytes = self.shared.bundles.put(&bundle);
        self.shared.hibernate_requests.lock().remove(&self.run_as);
        self.shared.journal.append(Event::AgentHibernated {
            agent: self.run_as.clone(),
            hop: self.hop,
            bytes: bytes as u64,
        });
        self.shared
            .journal
            .histos()
            .record(HistoPath::HibernateLatency, t0.elapsed().as_nanos() as u64);
        // Mail may have been delivered between the last empty poll and
        // the spill: re-check now that the bundle is visible. `take` is
        // atomic, so this self-wake and any concurrent deliverer's wake
        // revive exactly one copy.
        if self.shared.has_mail(&self.run_as) {
            self.shared.wake_agent(&self.run_as);
        }
        true
    }

    /// Everything that happens after the agent's last instruction:
    /// identical to the tail of the old per-agent-thread `run_agent`.
    fn complete(&self, env: AgentEnv, interp: Interpreter, outcome: ExecOutcome) {
        let shared = &self.shared;
        let credentials = &self.credentials;
        let run_as = &self.run_as;
        let (domain, hop) = (self.domain, self.hop);

        // Account fuel against the domain quota (for status queries; the
        // interpreter's own limit already bounded the run).
        let _ = shared
            .domains
            .charge_fuel(DomainId::SERVER, domain, interp.fuel_used());

        // Departure happens BEFORE any completion report or onward transfer:
        // the home site (or next hop) learning the agent's fate must
        // happen-after this server has cleared its residue, so "all reports
        // in" implies "no domains left" — the isolation invariant X12 checks.
        // Installed resources stay.
        shared.mailboxes.lock().remove(run_as);
        let _ = shared.domains.evict(DomainId::SERVER, domain);

        // The stay ends in an onward transfer or a report home; either
        // frame carries the stay's WAL admission, resolved on its ack.
        let status = match outcome {
            ExecOutcome::Finished(v) => ReportStatus::Completed(v.display_lossy()),
            ExecOutcome::HostStopped { .. } => match env.pending_go().cloned() {
                Some(go) => {
                    // Re-package: same code, current globals, new entry.
                    let image = AgentImage {
                        module: self.module.clone(),
                        globals: interp.globals().to_vec(),
                        entry: go.entry,
                    };
                    if image.validate().is_ok() {
                        // The onward leg is a sibling of the agent's other
                        // on-server spans, and go_tour's itinerary tail
                        // rides along as its dead-stop recovery plan;
                        // plain go has none.
                        let leg = Leg::Go {
                            admission: self.admission_ctx,
                            hop,
                        };
                        let (run_as, credentials) = (run_as.clone(), credentials.clone());
                        shared.start_leg(go.dest, run_as, credentials, image, go.fallbacks, leg);
                        return;
                    }
                    ReportStatus::Failed(format!(
                        "go: entry {:?} missing or misshapen",
                        image.entry
                    ))
                }
                None => ReportStatus::Failed("host stop without destination".into()),
            },
            ExecOutcome::Trapped { kind, func, ip } => {
                ReportStatus::Failed(format!("trap at fn#{func}@{ip}: {kind}"))
            }
            ExecOutcome::OutOfFuel => {
                ReportStatus::QuotaExceeded("instruction fuel exhausted".into())
            }
        };
        let custody = Some((run_as.clone(), hop));
        shared.report_home(run_as, credentials, status, self.parent(), custody);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_core::BoundedBuffer;

    #[test]
    fn paged_journal_reads_equal_one_snapshot() {
        // A 1,200-record ring wrapped several times, read in pages of 512:
        // `logs_tail` and `export_jsonl` return what one whole-ring copy
        // returned.
        let world = crate::World::builder(1).journal_capacity(1_200).build();
        let view = world.server(0).control_view();
        let journal = view.journal();
        let agent = Urn::agent("pages.org", ["a"]).unwrap();
        for i in 0..5_000u64 {
            journal.append(if i % 3 == 0 {
                Event::Span {
                    ctx: SpanContext::root(journal.mint_trace(), journal.mint_span()),
                    kind: SpanKind::Access,
                    agent: agent.clone(),
                    detail: format!("call {i}"),
                    start_ns: i,
                    dur_ns: 1,
                }
            } else {
                Event::AgentLog {
                    agent: agent.clone(),
                    text: format!("line {i}"),
                }
            });
        }
        let end = journal.next_seq();
        let snapshot = journal.snapshot();
        assert_eq!(snapshot.len(), 1_200);

        let logs: Vec<(Urn, String)> = snapshot
            .iter()
            .filter_map(|r| match &r.event {
                Event::AgentLog { agent, text } => Some((agent.clone(), text.clone())),
                _ => None,
            })
            .collect();
        for n in [0, 1, 511, 512, 513, logs.len(), 10_000] {
            let want = &logs[logs.len().saturating_sub(n)..];
            assert_eq!(view.logs_tail(n), want, "n = {n}");
        }
        let want = ajanta_core::trace::export_journal(&view.name().to_string(), &snapshot);
        assert_eq!(view.export_jsonl(), want);
        assert_eq!(journal.next_seq(), end, "nothing else appended");
        world.shutdown();
    }

    #[test]
    fn grant_list_tracks_live_proxies_not_bind_history() {
        let world = crate::World::new(1);
        let server = world.server(0);
        let resource = Urn::resource("grants.org", ["jobs"]).unwrap();
        let owner = Urn::owner("grants.org", ["admin"]).unwrap();
        server
            .register_resource(Guarded::new(
                BoundedBuffer::new(resource.clone(), owner.clone(), 4),
                ProxyPolicy::default(),
            ))
            .unwrap();
        let shared = &server.view.shared;
        let agent = Urn::agent("grants.org", ["a"]).unwrap();
        for _ in 0..10_000 {
            let domain = shared
                .domains
                .admit(
                    DomainId::SERVER,
                    agent.clone(),
                    owner.clone(),
                    owner.clone(),
                    shared.name.clone(),
                    Rights::all(),
                    UsageLimits::default(),
                )
                .unwrap();
            let requester = Requester {
                agent: agent.clone(),
                owner: owner.clone(),
                domain,
                rights: Rights::all(),
            };
            let proxy = shared
                .bind_resource(&requester, &resource, 0, None)
                .unwrap();
            drop(proxy);
            shared.domains.evict(DomainId::SERVER, domain).unwrap();
        }
        let tracked = shared.grants.lock().len();
        assert!(
            tracked <= 8,
            "{tracked} grants tracked for zero live proxies"
        );
        world.shutdown();
    }

    /// The detach wakes a loop blocked for a whole ack grace: with X16's
    /// 60 s grace, an idle loop waits 60 s between retry passes.
    #[test]
    fn shutdown_wakes_a_loop_blocked_for_a_long_ack_grace() {
        let world = crate::World::builder(2)
            .retry(RetryPolicy {
                max_attempts: 5,
                ack_grace: Duration::from_secs(60),
            })
            .build();
        // Let both loops reach their blocking receive.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        world.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }

    /// A handle dropped without `shutdown` still stops its loop, which
    /// releases the server, and frees its name for a new endpoint that
    /// stays attached.
    #[test]
    fn dropping_a_handle_stops_its_loop_and_frees_its_name() {
        let mut world = crate::World::new(2);
        let handle = world.servers.remove(1);
        let name = handle.name().clone();
        let shared = Arc::clone(&handle.view.shared);
        drop(handle);
        assert_eq!(Arc::strong_count(&shared), 1, "the loop still runs");
        let endpoint = world.net.attach(name.clone()).expect("the name is free");
        assert!(matches!(
            world.net.attach(name),
            Err(NetError::NameInUse(_))
        ));
        drop(endpoint);
        world.shutdown();
    }

    /// A query leaves no reply slot behind, whether it is answered, times
    /// out or cannot be sent.
    #[test]
    fn status_queries_leave_no_pending_slot() {
        let world = crate::World::new(2);
        let home = world.server(0);
        let slots = || home.view.shared.queries.lock().len();
        let agent = Urn::agent("queries.org", ["a"]).unwrap();
        let peer = world.server(1).name().clone();
        let wait = Duration::from_secs(10);
        assert_eq!(
            home.query_status(&peer, &agent, wait),
            Ok(AgentStatus::NotResident)
        );
        assert_eq!(slots(), 0, "answered");

        let ghost = Urn::server("queries.org", ["ghost"]).unwrap();
        assert!(matches!(
            home.query_status(&ghost, &agent, wait),
            Err(QueryError::Unreachable(_))
        ));
        assert_eq!(slots(), 0, "not sent");

        world.set_adversary(Some(Arc::new(ajanta_net::Dropper::new(1, 1.0))));
        assert_eq!(
            home.query_status(&peer, &agent, Duration::from_millis(50)),
            Err(QueryError::Timeout)
        );
        assert_eq!(slots(), 0, "timed out");
        world.shutdown();
    }
}
