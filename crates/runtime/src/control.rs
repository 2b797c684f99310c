//! The control plane: a length-framed request/response protocol that
//! exposes the server-handle surface remotely — the operational face of
//! the paper's protected-resource model.
//!
//! The paper's mechanism (grants, meters, revocation, audit) only pays
//! off operationally if a host administrator can *see and act on* it at
//! runtime. This module serves exactly that over a UDS or TCP socket,
//! alongside the data plane:
//!
//! * **inventory** — `list`/`info` over every agent a server knows:
//!   resident (domain database), hibernated (bundle store), and
//!   in-flight (unresolved WAL custody on unacked frames);
//! * **telemetry** — the typed
//!   [`TelemetrySnapshot`]
//!   (counters + histograms), shipped as values, not pre-rendered text,
//!   so clients can aggregate a fleet and render locally;
//! * **journal** — tail and follow with a cursor on the journal's dense
//!   global `seq`; eviction gaps are detectable exactly (the page
//!   reports the drop counter alongside);
//! * **actions** — `hibernate`/`wake` of individual agents and
//!   fleet-wide proxy revocation fanned out to every server this
//!   process fronts.
//!
//! Framing reuses [`ajanta_net::frame`] (varint length prefix, 16 MiB
//! cap); payloads are [`ajanta_wire::Wire`]-encoded [`ControlRequest`] /
//! [`ControlResponse`] values. One connection carries any number of
//! sequential request/response exchanges. The control socket is
//! **local-operator trusted** (a UDS path or loopback TCP port owned by
//! the host administrator): requests are not authenticated at this
//! layer, exactly like a container runtime's control socket.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_core::telemetry::TelemetrySnapshot;
use ajanta_naming::Urn;
use ajanta_net::frame::{encode_frame, FrameBuffer};
use ajanta_net::socket::{Listener, NetAddr, Stream};
use ajanta_wire::{Decoder, Encoder, Wire, WireError};
use parking_lot::Mutex;

use crate::server::ControlView;

/// Protocol version served and expected. Bumped on any incompatible
/// change to the request/response encodings.
pub const CONTROL_VERSION: u64 = 2;

/// Sanity cap on collection lengths inside control responses.
const MAX_ITEMS: usize = 1 << 16;

/// How long the accept loop sleeps when no connection is pending (or
/// `accept` fails) — also how soon it notices a shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Where an agent currently is, as far as one server knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentState {
    /// Admitted, holding a protection domain, schedulable.
    Resident,
    /// Resident but spilled to the bundle store (no interpreter, no
    /// scheduler task).
    Hibernated,
    /// Custody is on the wire: an unacked reliable frame carries its
    /// unresolved WAL admission.
    InFlight,
}

impl AgentState {
    /// Stable kebab-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            AgentState::Resident => "resident",
            AgentState::Hibernated => "hibernated",
            AgentState::InFlight => "in-flight",
        }
    }
}

impl std::fmt::Display for AgentState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Wire for AgentState {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(AgentState::Resident),
            1 => Ok(AgentState::Hibernated),
            2 => Ok(AgentState::InFlight),
            tag => Err(WireError::BadTag {
                ty: "AgentState",
                tag,
            }),
        }
    }
}

/// One row of the fleet-wide agent listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentEntry {
    /// The server reporting this agent.
    pub server: Urn,
    /// The agent's global name.
    pub agent: Urn,
    /// Where it currently is.
    pub state: AgentState,
    /// The itinerary hop (in-flight entries; 0 when unknown).
    pub hop: u64,
    /// Its protection domain id (0 for non-resident states).
    pub domain: u64,
    /// Fuel consumed so far in this stay.
    pub fuel_used: u64,
    /// Live resource bindings.
    pub bindings: u64,
}

impl Wire for AgentEntry {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        self.agent.encode(e);
        self.state.encode(e);
        e.put_varint(self.hop);
        e.put_varint(self.domain);
        e.put_varint(self.fuel_used);
        e.put_varint(self.bindings);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AgentEntry {
            server: Urn::decode(d)?,
            agent: Urn::decode(d)?,
            state: AgentState::decode(d)?,
            hop: d.get_varint()?,
            domain: d.get_varint()?,
            fuel_used: d.get_varint()?,
            bindings: d.get_varint()?,
        })
    }
}

/// Everything one server knows about one agent (the `info` op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentDetail {
    /// The listing row.
    pub entry: AgentEntry,
    /// Owning principal.
    pub owner: String,
    /// Creating principal.
    pub creator: String,
    /// Home site for reports.
    pub home: String,
    /// Fuel quota for the stay.
    pub fuel_limit: u64,
    /// Bytes allocated so far.
    pub alloc_bytes: u64,
    /// Resources this agent holds proxies to.
    pub bound_resources: Vec<String>,
}

impl Wire for AgentDetail {
    fn encode(&self, e: &mut Encoder) {
        self.entry.encode(e);
        e.put_str(&self.owner);
        e.put_str(&self.creator);
        e.put_str(&self.home);
        e.put_varint(self.fuel_limit);
        e.put_varint(self.alloc_bytes);
        e.put_varint(self.bound_resources.len() as u64);
        for r in &self.bound_resources {
            e.put_str(r);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let entry = AgentEntry::decode(d)?;
        let owner = d.get_str()?;
        let creator = d.get_str()?;
        let home = d.get_str()?;
        let fuel_limit = d.get_varint()?;
        let alloc_bytes = d.get_varint()?;
        let n = d.get_varint()? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::TooLong(n as u64));
        }
        let mut bound_resources = Vec::with_capacity(n);
        for _ in 0..n {
            bound_resources.push(d.get_str()?);
        }
        Ok(AgentDetail {
            entry,
            owner,
            creator,
            home,
            fuel_limit,
            alloc_bytes,
            bound_resources,
        })
    }
}

/// One journal record, flattened for the wire: the typed `Event` enum
/// stays in-process (its `&'static str` fields don't travel); a client
/// gets the variant label, the subject agent, and a deterministic
/// rendering — identical to what `Event::label`/`Event::render` produce
/// locally, which is exactly what the remote/local parity test pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global sequence number (dense per server).
    pub seq: u64,
    /// Virtual-time stamp.
    pub at: u64,
    /// Severity index (see `Severity::from_index`).
    pub severity: u8,
    /// Variant label (`Event::label`).
    pub label: String,
    /// The subject agent, if the event is about one.
    pub agent: Option<String>,
    /// Rendered fields (`Event::render`).
    pub text: String,
}

impl Wire for JournalEntry {
    fn encode(&self, e: &mut Encoder) {
        e.put_varint(self.seq);
        e.put_varint(self.at);
        e.put_u8(self.severity);
        e.put_str(&self.label);
        self.agent.encode(e);
        e.put_str(&self.text);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(JournalEntry {
            seq: d.get_varint()?,
            at: d.get_varint()?,
            severity: d.get_u8()?,
            label: d.get_str()?,
            agent: Option::<String>::decode(d)?,
            text: d.get_str()?,
        })
    }
}

/// One server's page of journal records, with the cursor bookkeeping a
/// drop-aware follower needs: `next_cursor` resumes exactly after the
/// last returned record, and because sequence numbers are dense, a
/// follower comparing its cursor against the first returned `seq` sees
/// eviction gaps exactly; `dropped` says how much the ring has ever
/// evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalPage {
    /// The server whose journal this page is from.
    pub server: Urn,
    /// Records, oldest first.
    pub entries: Vec<JournalEntry>,
    /// Pass this as the next request's cursor to continue seamlessly.
    pub next_cursor: u64,
    /// Lifetime eviction count of the journal (drop-aware following).
    pub dropped: u64,
}

impl Wire for JournalPage {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        e.put_varint(self.entries.len() as u64);
        for entry in &self.entries {
            entry.encode(e);
        }
        e.put_varint(self.next_cursor);
        e.put_varint(self.dropped);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let server = Urn::decode(d)?;
        let n = d.get_varint()? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::TooLong(n as u64));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(JournalEntry::decode(d)?);
        }
        Ok(JournalPage {
            server,
            entries,
            next_cursor: d.get_varint()?,
            dropped: d.get_varint()?,
        })
    }
}

/// One server's liveness/occupancy summary (the `status` op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    /// The server.
    pub server: Urn,
    /// Resident agents (domain database size).
    pub resident: u64,
    /// Hibernated agents (bundle store size).
    pub hibernated: u64,
    /// Bytes the hibernated bundles occupy.
    pub hibernated_bytes: u64,
    /// Unresolved in-flight custody entries.
    pub in_flight: u64,
    /// Reliable sends awaiting an ack.
    pub pending_sends: u64,
    /// The journal's next sequence number.
    pub journal_next_seq: u64,
    /// The journal's lifetime eviction count.
    pub journal_dropped: u64,
}

impl Wire for ServerStatus {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        e.put_varint(self.resident);
        e.put_varint(self.hibernated);
        e.put_varint(self.hibernated_bytes);
        e.put_varint(self.in_flight);
        e.put_varint(self.pending_sends);
        e.put_varint(self.journal_next_seq);
        e.put_varint(self.journal_dropped);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ServerStatus {
            server: Urn::decode(d)?,
            resident: d.get_varint()?,
            hibernated: d.get_varint()?,
            hibernated_bytes: d.get_varint()?,
            in_flight: d.get_varint()?,
            pending_sends: d.get_varint()?,
            journal_next_seq: d.get_varint()?,
            journal_dropped: d.get_varint()?,
        })
    }
}

/// One request frame. Every op addresses all servers behind the socket
/// unless it names an agent/resource (then each server answers for what
/// it hosts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlRequest {
    /// Liveness + protocol version + the servers behind this socket.
    Health,
    /// Per-server occupancy summary.
    Status,
    /// Every agent every server knows: resident, hibernated, in-flight.
    ListAgents,
    /// Everything known about one agent.
    AgentInfo {
        /// The agent asked about.
        agent: Urn,
    },
    /// Typed counter/histogram snapshot of every server.
    Metrics,
    /// Journal page. `cursor: None` = the most recent `max` records;
    /// `Some(seq)` = records with `seq >= cursor`, capped at `max`
    /// oldest-first (the follow primitive).
    JournalTail {
        /// Resume point on the dense per-server sequence.
        cursor: Option<u64>,
        /// Page size cap.
        max: u64,
    },
    /// The follow primitive: per-server cursors (each journal has its
    /// own dense seq space). A server with an entry returns records
    /// `seq >= cursor`; a server absent from `cursors` is tailed
    /// (first contact). Both capped at `max` per server.
    JournalFollow {
        /// `(server, cursor)` resume points.
        cursors: Vec<(Urn, u64)>,
        /// Page size cap per server.
        max: u64,
    },
    /// The most recent `tail` agent log lines per server.
    Logs {
        /// Line cap per server.
        tail: u64,
    },
    /// Trace-relevant journal records of every server, as JSONL.
    Trace,
    /// Ask one agent to hibernate at its next safe yield point; waits
    /// briefly for the spill to land.
    Hibernate {
        /// The agent to spill.
        agent: Urn,
    },
    /// Wake one hibernated agent.
    Wake {
        /// The agent to revive.
        agent: Urn,
    },
    /// Revoke every live proxy for `resource` on every server behind
    /// this socket (one leg of a world-wide revocation).
    Revoke {
        /// The resource whose proxies die.
        resource: Urn,
    },
}

impl Wire for ControlRequest {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ControlRequest::Health => e.put_u8(0),
            ControlRequest::Status => e.put_u8(1),
            ControlRequest::ListAgents => e.put_u8(2),
            ControlRequest::AgentInfo { agent } => {
                e.put_u8(3);
                agent.encode(e);
            }
            ControlRequest::Metrics => e.put_u8(4),
            ControlRequest::JournalTail { cursor, max } => {
                e.put_u8(5);
                cursor.encode(e);
                e.put_varint(*max);
            }
            ControlRequest::Logs { tail } => {
                e.put_u8(6);
                e.put_varint(*tail);
            }
            ControlRequest::Trace => e.put_u8(7),
            ControlRequest::Hibernate { agent } => {
                e.put_u8(8);
                agent.encode(e);
            }
            ControlRequest::Wake { agent } => {
                e.put_u8(9);
                agent.encode(e);
            }
            ControlRequest::Revoke { resource } => {
                e.put_u8(10);
                resource.encode(e);
            }
            ControlRequest::JournalFollow { cursors, max } => {
                e.put_u8(11);
                e.put_varint(cursors.len() as u64);
                for c in cursors {
                    c.encode(e);
                }
                e.put_varint(*max);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(ControlRequest::Health),
            1 => Ok(ControlRequest::Status),
            2 => Ok(ControlRequest::ListAgents),
            3 => Ok(ControlRequest::AgentInfo {
                agent: Urn::decode(d)?,
            }),
            4 => Ok(ControlRequest::Metrics),
            5 => Ok(ControlRequest::JournalTail {
                cursor: Option::<u64>::decode(d)?,
                max: d.get_varint()?,
            }),
            6 => Ok(ControlRequest::Logs {
                tail: d.get_varint()?,
            }),
            7 => Ok(ControlRequest::Trace),
            8 => Ok(ControlRequest::Hibernate {
                agent: Urn::decode(d)?,
            }),
            9 => Ok(ControlRequest::Wake {
                agent: Urn::decode(d)?,
            }),
            10 => Ok(ControlRequest::Revoke {
                resource: Urn::decode(d)?,
            }),
            11 => {
                let n = d.get_varint()? as usize;
                if n > MAX_ITEMS {
                    return Err(WireError::TooLong(n as u64));
                }
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    cursors.push(<(Urn, u64)>::decode(d)?);
                }
                Ok(ControlRequest::JournalFollow {
                    cursors,
                    max: d.get_varint()?,
                })
            }
            tag => Err(WireError::BadTag {
                ty: "ControlRequest",
                tag,
            }),
        }
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)] // transient, one per RPC; boxing buys nothing
pub enum ControlResponse {
    /// Liveness: protocol version + server names behind this socket.
    Health {
        /// [`CONTROL_VERSION`] of the serving side.
        version: u64,
        /// Servers this socket fronts.
        servers: Vec<Urn>,
    },
    /// Per-server occupancy.
    Status(Vec<ServerStatus>),
    /// The fleet-wide agent listing.
    Agents(Vec<AgentEntry>),
    /// One agent's detail (`None` = no server behind this socket knows
    /// it).
    Agent(Option<AgentDetail>),
    /// Typed telemetry per server.
    Metrics(Vec<(Urn, TelemetrySnapshot)>),
    /// Journal pages, one per server.
    Journal(Vec<JournalPage>),
    /// Agent log lines: `(server, agent, text)`, oldest first.
    Logs(Vec<(Urn, (Urn, String))>),
    /// Merged JSONL trace export of every server behind this socket.
    Trace(String),
    /// Outcome of a hibernate/wake action.
    Ack(bool),
    /// Outcome of a revocation leg: live proxies invalidated, servers
    /// that journaled the revocation.
    Revoked {
        /// Live proxies invalidated across the servers.
        proxies: u64,
        /// Servers that processed (and journaled) the revocation.
        servers: u64,
    },
    /// The request could not be served.
    Error(String),
}

impl Wire for ControlResponse {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ControlResponse::Health { version, servers } => {
                e.put_u8(0);
                e.put_varint(*version);
                e.put_varint(servers.len() as u64);
                for s in servers {
                    s.encode(e);
                }
            }
            ControlResponse::Status(v) => {
                e.put_u8(1);
                e.put_varint(v.len() as u64);
                for s in v {
                    s.encode(e);
                }
            }
            ControlResponse::Agents(v) => {
                e.put_u8(2);
                e.put_varint(v.len() as u64);
                for a in v {
                    a.encode(e);
                }
            }
            ControlResponse::Agent(detail) => {
                e.put_u8(3);
                detail.encode(e);
            }
            ControlResponse::Metrics(v) => {
                e.put_u8(4);
                e.put_varint(v.len() as u64);
                for pair in v {
                    pair.encode(e);
                }
            }
            ControlResponse::Journal(v) => {
                e.put_u8(5);
                e.put_varint(v.len() as u64);
                for p in v {
                    p.encode(e);
                }
            }
            ControlResponse::Logs(v) => {
                e.put_u8(6);
                e.put_varint(v.len() as u64);
                for line in v {
                    line.encode(e);
                }
            }
            ControlResponse::Trace(jsonl) => {
                e.put_u8(7);
                e.put_str(jsonl);
            }
            ControlResponse::Ack(ok) => {
                e.put_u8(8);
                ok.encode(e);
            }
            ControlResponse::Revoked { proxies, servers } => {
                e.put_u8(9);
                e.put_varint(*proxies);
                e.put_varint(*servers);
            }
            ControlResponse::Error(msg) => {
                e.put_u8(10);
                e.put_str(msg);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        fn many<T: Wire>(d: &mut Decoder<'_>) -> Result<Vec<T>, WireError> {
            let n = d.get_varint()? as usize;
            if n > MAX_ITEMS {
                return Err(WireError::TooLong(n as u64));
            }
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(T::decode(d)?);
            }
            Ok(v)
        }
        match d.get_u8()? {
            0 => Ok(ControlResponse::Health {
                version: d.get_varint()?,
                servers: many(d)?,
            }),
            1 => Ok(ControlResponse::Status(many(d)?)),
            2 => Ok(ControlResponse::Agents(many(d)?)),
            3 => Ok(ControlResponse::Agent(Option::<AgentDetail>::decode(d)?)),
            4 => Ok(ControlResponse::Metrics(many(d)?)),
            5 => Ok(ControlResponse::Journal(many(d)?)),
            6 => Ok(ControlResponse::Logs(many(d)?)),
            7 => Ok(ControlResponse::Trace(d.get_str()?)),
            8 => Ok(ControlResponse::Ack(bool::decode(d)?)),
            9 => Ok(ControlResponse::Revoked {
                proxies: d.get_varint()?,
                servers: d.get_varint()?,
            }),
            10 => Ok(ControlResponse::Error(d.get_str()?)),
            tag => Err(WireError::BadTag {
                ty: "ControlResponse",
                tag,
            }),
        }
    }
}

/// How long a synchronous `Hibernate` op waits for the spill to land
/// before answering `Ack(false)`. The request stays queued either way —
/// the agent still hibernates at its next safe yield point.
const HIBERNATE_WAIT: Duration = Duration::from_secs(2);

/// Serves [`ControlRequest`]s against a set of [`ControlView`]s. Pure
/// logic, no I/O — [`ControlServer`] drives it from sockets, and tests
/// drive it directly to pin remote/local parity.
pub fn serve_request(views: &[ControlView], req: &ControlRequest) -> ControlResponse {
    match req {
        ControlRequest::Health => ControlResponse::Health {
            version: CONTROL_VERSION,
            servers: views.iter().map(|v| v.name().clone()).collect(),
        },
        ControlRequest::Status => ControlResponse::Status(
            views
                .iter()
                .map(|v| {
                    let journal = v.journal();
                    ServerStatus {
                        server: v.name().clone(),
                        resident: v.resident_agents() as u64,
                        hibernated: v.hibernated_list().len() as u64,
                        hibernated_bytes: v.hibernated_bytes() as u64,
                        in_flight: v.in_flight_agents().len() as u64,
                        pending_sends: v.pending_send_count() as u64,
                        journal_next_seq: journal.next_seq(),
                        journal_dropped: journal.dropped(),
                    }
                })
                .collect(),
        ),
        ControlRequest::ListAgents => {
            let mut out = Vec::new();
            for v in views {
                out.extend(list_agents(v));
            }
            ControlResponse::Agents(out)
        }
        ControlRequest::AgentInfo { agent } => {
            for v in views {
                if let Some(detail) = agent_info(v, agent) {
                    return ControlResponse::Agent(Some(detail));
                }
            }
            ControlResponse::Agent(None)
        }
        ControlRequest::Metrics => ControlResponse::Metrics(
            views
                .iter()
                .map(|v| (v.name().clone(), v.telemetry()))
                .collect(),
        ),
        ControlRequest::JournalTail { cursor, max } => {
            let max = (*max as usize).min(MAX_ITEMS);
            ControlResponse::Journal(
                views
                    .iter()
                    .map(|v| journal_page(v, *cursor, max))
                    .collect(),
            )
        }
        ControlRequest::JournalFollow { cursors, max } => {
            let max = (*max as usize).min(MAX_ITEMS);
            ControlResponse::Journal(
                views
                    .iter()
                    .map(|v| {
                        let cursor = cursors.iter().find(|(s, _)| s == v.name()).map(|(_, c)| *c);
                        journal_page(v, cursor, max)
                    })
                    .collect(),
            )
        }
        ControlRequest::Logs { tail } => {
            let tail = (*tail as usize).min(MAX_ITEMS);
            let mut out = Vec::new();
            for v in views {
                let server = v.name().clone();
                out.extend(
                    v.logs_tail(tail)
                        .into_iter()
                        .map(|(agent, text)| (server.clone(), (agent, text))),
                );
            }
            ControlResponse::Logs(out)
        }
        ControlRequest::Trace => {
            let mut jsonl = String::new();
            for v in views {
                jsonl.push_str(&v.export_jsonl());
            }
            ControlResponse::Trace(jsonl)
        }
        ControlRequest::Hibernate { agent } => {
            let Some(view) = views.iter().find(|v| v.record_of(agent).is_some()) else {
                return ControlResponse::Ack(false);
            };
            if view.is_hibernated(agent) {
                return ControlResponse::Ack(true);
            }
            if !view.hibernate(agent) {
                return ControlResponse::Ack(false);
            }
            // The spill happens on the agent's own task at its next
            // yield; wait briefly so the common case answers done.
            let deadline = Instant::now() + HIBERNATE_WAIT;
            while Instant::now() < deadline {
                if view.is_hibernated(agent) {
                    return ControlResponse::Ack(true);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            ControlResponse::Ack(false)
        }
        ControlRequest::Wake { agent } => ControlResponse::Ack(views.iter().any(|v| v.wake(agent))),
        ControlRequest::Revoke { resource } => {
            let mut proxies = 0u64;
            for v in views {
                proxies += v.revoke_resource(resource) as u64;
            }
            ControlResponse::Revoked {
                proxies,
                servers: views.len() as u64,
            }
        }
    }
}

/// The three inventory sources of one server, merged: resident agents
/// (tagged hibernated when their bundle is stored) and in-flight
/// custody entries.
fn list_agents(v: &ControlView) -> Vec<AgentEntry> {
    let server = v.name().clone();
    let hibernated: std::collections::HashSet<Urn> = v.hibernated_list().into_iter().collect();
    let mut out: Vec<AgentEntry> = v.project_agents(|r| AgentEntry {
        server: server.clone(),
        agent: r.agent.clone(),
        state: if hibernated.contains(&r.agent) {
            AgentState::Hibernated
        } else {
            AgentState::Resident
        },
        hop: 0,
        domain: r.domain.0,
        fuel_used: r.usage.fuel,
        bindings: r.usage.bindings as u64,
    });
    for (agent, hop) in v.in_flight_agents() {
        out.push(AgentEntry {
            server: server.clone(),
            agent,
            state: AgentState::InFlight,
            hop,
            domain: 0,
            fuel_used: 0,
            bindings: 0,
        });
    }
    out.sort_by(|a, b| a.agent.cmp(&b.agent));
    out
}

fn agent_info(v: &ControlView, agent: &Urn) -> Option<AgentDetail> {
    let r = v.record_of(agent)?;
    let state = if v.is_hibernated(agent) {
        AgentState::Hibernated
    } else {
        AgentState::Resident
    };
    Some(AgentDetail {
        entry: AgentEntry {
            server: v.name().clone(),
            agent: r.agent,
            state,
            hop: 0,
            domain: r.domain.0,
            fuel_used: r.usage.fuel,
            bindings: r.usage.bindings as u64,
        },
        owner: r.owner.to_string(),
        creator: r.creator.to_string(),
        home: r.home.to_string(),
        fuel_limit: r.limits.fuel,
        alloc_bytes: r.usage.alloc_bytes,
        bound_resources: r.bindings.iter().map(|b| b.to_string()).collect(),
    })
}

fn journal_page(v: &ControlView, cursor: Option<u64>, max: usize) -> JournalPage {
    let journal = v.journal();
    // Read before the records: an empty page then resumes at a seq no
    // later than anything appended while it was being read.
    let next_seq = journal.next_seq();
    let records = match cursor {
        // Tail: the newest `max`.
        None => journal.recent(max),
        // Follow: oldest-first from the cursor, capped.
        Some(c) => journal.page(c, max),
    };
    let next_cursor = records
        .last()
        .map_or_else(|| cursor.unwrap_or(next_seq), |r| r.seq + 1);
    JournalPage {
        server: v.name().clone(),
        entries: records
            .into_iter()
            .map(|r| JournalEntry {
                seq: r.seq,
                at: r.at,
                severity: r.severity.index(),
                label: r.event.label().to_string(),
                agent: r.event.agent().map(|a| a.to_string()),
                text: r.event.render(),
            })
            .collect(),
        next_cursor,
        dropped: journal.dropped(),
    }
}

/// The control socket server: an accept loop plus one thread per
/// connection, each answering framed [`ControlRequest`]s against the
/// same set of [`ControlView`]s until the peer hangs up or
/// [`ControlServer::shutdown`] is called.
pub struct ControlServer {
    addr: NetAddr,
    stop: Arc<AtomicBool>,
    accept_join: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ControlServer {
    /// Binds `addr` and starts serving `views`. `tcp:127.0.0.1:0` binds
    /// an ephemeral port — read the effective address back with
    /// [`ControlServer::addr`]. A UDS path left behind by a dead process
    /// is removed before binding (the bind would otherwise fail), and
    /// removed again on shutdown.
    pub fn serve(addr: &NetAddr, views: Vec<ControlView>) -> io::Result<ControlServer> {
        if let NetAddr::Uds(path) = addr {
            let _ = std::fs::remove_file(path);
        }
        let (listener, effective) = Listener::bind(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let views = Arc::new(views);
        // The listener is non-blocking: the loop polls, so it sees the
        // stop flag within one poll and never spins on a failing accept.
        // Dropping the listener on exit removes a UDS socket file.
        let accept_join = std::thread::Builder::new()
            .name("ajanta-ctl-accept".into())
            .spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    let Ok(Some(stream)) = listener.accept() else {
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    };
                    let views = Arc::clone(&views);
                    let conn_stop = Arc::clone(&accept_stop);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("ajanta-ctl-conn".into())
                        .spawn(move || serve_connection(stream, &views, &conn_stop))
                    {
                        let mut conns = accept_conns.lock();
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                }
            })
            .expect("spawning control accept thread");
        Ok(ControlServer {
            addr: effective,
            stop,
            accept_join: Some(accept_join),
            conns,
        })
    }

    /// The effective bound address (resolved ephemeral port included).
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    /// Stops accepting, disconnects idle handlers, joins all threads,
    /// and removes a UDS socket file.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        for handle in std::mem::take(&mut *self.conns.lock()) {
            let _ = handle.join();
        }
    }
}

/// One connection: framed sequential request/response until EOF, a
/// framing error, or server shutdown. Read timeouts let the handler
/// poll the stop flag while idle.
fn serve_connection(mut stream: Stream, views: &[ControlView], stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Serve every complete frame already buffered.
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => {
                    let response = match ControlRequest::from_bytes(&frame) {
                        Ok(req) => serve_request(views, &req),
                        Err(e) => ControlResponse::Error(format!("bad request: {e}")),
                    };
                    if stream
                        .write_all(&encode_frame(&response.to_bytes()))
                        .is_err()
                    {
                        return;
                    }
                    let _ = stream.flush();
                }
                Ok(None) => break,
                // Framing lost: the only sane recovery is hanging up.
                Err(_) => return,
            }
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// A blocking control-socket client: one connection, sequential
/// [`ControlClient::call`]s.
pub struct ControlClient {
    stream: Stream,
    fb: FrameBuffer,
}

impl ControlClient {
    /// Connects to a control socket.
    pub fn connect(addr: &NetAddr) -> io::Result<ControlClient> {
        let stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(ControlClient {
            stream,
            fb: FrameBuffer::new(),
        })
    }

    /// Parses `addr` (`uds:/path` or `tcp:host:port`) and connects.
    pub fn connect_str(addr: &str) -> io::Result<ControlClient> {
        let addr: NetAddr = addr
            .parse()
            .map_err(|e: String| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        ControlClient::connect(&addr)
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &ControlRequest) -> io::Result<ControlResponse> {
        self.stream.write_all(&encode_frame(&req.to_bytes()))?;
        self.stream.flush()?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.fb.next_frame() {
                Ok(Some(frame)) => {
                    return ControlResponse::from_bytes(&frame)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "control connection closed mid-response",
                    ));
                }
                n => self.fb.extend(&chunk[..n]),
            }
        }
    }
}

/// Revokes `resource` across a whole world: one [`ControlRequest::Revoke`]
/// per endpoint, in the order given. Each endpoint fans out to every
/// server it fronts before the next endpoint is contacted, so after this
/// returns every server in the fleet has journaled the revocation.
/// Returns `(live proxies invalidated, servers reached)`.
pub fn revoke_everywhere(endpoints: &[NetAddr], resource: &Urn) -> io::Result<(u64, u64)> {
    let mut proxies = 0u64;
    let mut servers = 0u64;
    for addr in endpoints {
        let mut client = ControlClient::connect(addr)?;
        match client.call(&ControlRequest::Revoke {
            resource: resource.clone(),
        })? {
            ControlResponse::Revoked {
                proxies: p,
                servers: s,
            } => {
                proxies += p;
                servers += s;
            }
            ControlResponse::Error(e) => {
                return Err(io::Error::other(format!("revoke at {addr}: {e}")));
            }
            other => {
                return Err(io::Error::other(format!(
                    "revoke at {addr}: unexpected response {other:?}"
                )));
            }
        }
    }
    Ok((proxies, servers))
}

/// Client-side journal follower: per-server cursors over repeated
/// [`ControlRequest::JournalTail`] calls, verifying the no-gap invariant
/// (sequence numbers are dense, so `first.seq > cursor` means eviction —
/// tolerated only when the page's `dropped` account grew to cover it).
pub struct JournalFollower {
    cursors: HashMap<Urn, u64>,
    dropped_seen: HashMap<Urn, u64>,
    /// Gaps not covered by the drop counters (protocol bugs).
    pub unexplained_gaps: u64,
}

impl Default for JournalFollower {
    fn default() -> Self {
        JournalFollower::new()
    }
}

impl JournalFollower {
    /// A follower with no cursors (first poll tails, then follows).
    pub fn new() -> Self {
        JournalFollower {
            cursors: HashMap::new(),
            dropped_seen: HashMap::new(),
            unexplained_gaps: 0,
        }
    }

    /// The request to send next: every known server resumes at its own
    /// cursor, servers not yet seen are tailed.
    pub fn request(&self, max: u64) -> ControlRequest {
        let mut cursors: Vec<(Urn, u64)> =
            self.cursors.iter().map(|(s, c)| (s.clone(), *c)).collect();
        cursors.sort();
        ControlRequest::JournalFollow { cursors, max }
    }

    /// Ingests one page, advancing that server's cursor; returns the
    /// entries. Gap accounting: sequence numbers are dense per server,
    /// so a first-entry seq beyond the cursor is explained only by
    /// growth of the server's drop counter. A served page has no
    /// interior hole, but a page is outside input, so a hole *inside*
    /// it is checked against the same account.
    pub fn ingest(&mut self, page: &JournalPage) -> Vec<JournalEntry> {
        let prev_dropped = self.dropped_seen.get(&page.server).copied().unwrap_or(0);
        let mut gaps = 0u64;
        if let (Some(cursor), Some(first)) = (
            self.cursors.get(&page.server).copied(),
            page.entries.first(),
        ) {
            if first.seq > cursor {
                gaps += first.seq - cursor;
            }
        }
        for pair in page.entries.windows(2) {
            gaps += pair[1].seq.saturating_sub(pair[0].seq + 1);
        }
        if gaps > 0 && page.dropped <= prev_dropped {
            self.unexplained_gaps += gaps;
        }
        self.cursors.insert(page.server.clone(), page.next_cursor);
        self.dropped_seen.insert(page.server.clone(), page.dropped);
        page.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urn(kind: &str, leaf: &str) -> Urn {
        match kind {
            "agent" => Urn::agent("x.org", [leaf]).unwrap(),
            "server" => Urn::server("x.org", [leaf]).unwrap(),
            _ => Urn::resource("x.org", [leaf]).unwrap(),
        }
    }

    #[test]
    fn requests_roundtrip_on_the_wire() {
        let reqs = [
            ControlRequest::Health,
            ControlRequest::Status,
            ControlRequest::ListAgents,
            ControlRequest::AgentInfo {
                agent: urn("agent", "a"),
            },
            ControlRequest::Metrics,
            ControlRequest::JournalTail {
                cursor: Some(42),
                max: 100,
            },
            ControlRequest::JournalTail {
                cursor: None,
                max: 10,
            },
            ControlRequest::JournalFollow {
                cursors: vec![(urn("server", "s"), 7)],
                max: 64,
            },
            ControlRequest::Logs { tail: 5 },
            ControlRequest::Trace,
            ControlRequest::Hibernate {
                agent: urn("agent", "a"),
            },
            ControlRequest::Wake {
                agent: urn("agent", "a"),
            },
            ControlRequest::Revoke {
                resource: urn("resource", "r"),
            },
        ];
        for req in reqs {
            let bytes = req.to_bytes();
            assert_eq!(ControlRequest::from_bytes(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_on_the_wire() {
        let entry = AgentEntry {
            server: urn("server", "s"),
            agent: urn("agent", "a"),
            state: AgentState::Hibernated,
            hop: 3,
            domain: 7,
            fuel_used: 99,
            bindings: 1,
        };
        let responses = [
            ControlResponse::Health {
                version: CONTROL_VERSION,
                servers: vec![urn("server", "s")],
            },
            ControlResponse::Status(vec![ServerStatus {
                server: urn("server", "s"),
                resident: 1,
                hibernated: 2,
                hibernated_bytes: 3,
                in_flight: 4,
                pending_sends: 5,
                journal_next_seq: 6,
                journal_dropped: 7,
            }]),
            ControlResponse::Agents(vec![entry.clone()]),
            ControlResponse::Agent(Some(AgentDetail {
                entry,
                owner: "o".into(),
                creator: "c".into(),
                home: "h".into(),
                fuel_limit: 1000,
                alloc_bytes: 12,
                bound_resources: vec!["r".into()],
            })),
            ControlResponse::Agent(None),
            ControlResponse::Metrics(vec![(urn("server", "s"), TelemetrySnapshot::empty())]),
            ControlResponse::Journal(vec![JournalPage {
                server: urn("server", "s"),
                entries: vec![JournalEntry {
                    seq: 1,
                    at: 2,
                    severity: 1,
                    label: "rejected".into(),
                    agent: None,
                    text: "kind=replay detail=x".into(),
                }],
                next_cursor: 2,
                dropped: 0,
            }]),
            ControlResponse::Logs(vec![(
                urn("server", "s"),
                (urn("agent", "a"), "hello".into()),
            )]),
            ControlResponse::Trace("{}\n".into()),
            ControlResponse::Ack(true),
            ControlResponse::Revoked {
                proxies: 4,
                servers: 3,
            },
            ControlResponse::Error("nope".into()),
        ];
        for resp in responses {
            let bytes = resp.to_bytes();
            assert_eq!(ControlResponse::from_bytes(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        assert!(matches!(
            ControlRequest::from_bytes(&[99]),
            Err(WireError::BadTag { .. })
        ));
        assert!(matches!(
            ControlResponse::from_bytes(&[99]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn follower_accounts_gaps_against_drops() {
        let server = urn("server", "s");
        let mut f = JournalFollower::new();
        let page = |first_seq: u64, n: u64, dropped: u64| JournalPage {
            server: server.clone(),
            entries: (first_seq..first_seq + n)
                .map(|seq| JournalEntry {
                    seq,
                    at: 0,
                    severity: 0,
                    label: "agent-log".into(),
                    agent: None,
                    text: String::new(),
                })
                .collect(),
            next_cursor: first_seq + n,
            dropped,
        };
        // Tail establishes the cursor at 10.
        f.ingest(&page(5, 5, 0));
        // Seamless continuation: no gap.
        f.ingest(&page(10, 3, 0));
        assert_eq!(f.unexplained_gaps, 0);
        // Gap of 7 explained by the drop counter growing.
        f.ingest(&page(20, 2, 7));
        assert_eq!(f.unexplained_gaps, 0);
        // Gap with no new drops: flagged.
        f.ingest(&page(30, 1, 7));
        assert_eq!(f.unexplained_gaps, 8);
        // Hole inside a page with no new drops: also flagged.
        let mut holed = page(31, 2, 7);
        holed.entries[1].seq = 34;
        holed.next_cursor = 35;
        f.ingest(&holed);
        assert_eq!(f.unexplained_gaps, 10);
    }
}
