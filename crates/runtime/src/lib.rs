//! The Ajanta agent-server runtime: hosting, migration, itineraries.
//!
//! This crate assembles the paper's Fig. 1 out of the lower layers: an
//! [`AgentServer`] runs as a thread, accepts agents over the simulated
//! network, gives each a protection domain and an **agent environment**
//! (the `host` reference of Section 4), and executes it under the
//! server's reference monitor, policy, and quotas.
//!
//! * [`messages`] — the server-to-server protocol messages (transfer,
//!   reports, agent-to-agent mail), carried in sealed datagrams.
//! * [`directory`] — the certificate directory servers use to find each
//!   other's keys (the PKI lookup the paper abstracts).
//! * [`vmres`] — resources implemented *by agent bytecode*: what makes
//!   the paper's dynamic server extension (Section 5.5) real — an agent
//!   installs a resource, dies, and later agents call it.
//! * [`mod@env`] — the agent environment: `go`, `get_resource`, proxy
//!   invocation, messaging, logging — every primitive mediated.
//! * [`bundle`] — durable agent state: the serialized bundle and the
//!   store hibernated agents spill to.
//! * [`wal`] — the admission write-ahead log a restarted server replays
//!   so in-flight agents survive a crash.
//! * `custody` — the reliable-delivery core the server loop drives: the
//!   dedup memory, the unacked frames and their one retry schedule
//!   ([`RetryPolicy`]), with no I/O of its own.
//! * [`server`] — the server proper plus its control handle.
//! * [`owner`] — the owner-side application endpoint that mints
//!   credentials and launches agents.
//! * [`itinerary`] — helpers for the itinerary encoding agents carry.
//! * [`world`] — a test/experiment harness that wires up a CA, N servers,
//!   a directory and owners in one call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod control;
mod custody;
pub mod directory;
pub mod env;
pub mod itinerary;
pub mod messages;
pub mod multiproc;
pub mod owner;
pub mod sched;
pub mod server;
pub mod vmres;
pub mod wal;
pub mod world;

pub use bundle::{AgentBundle, BundleStore, WarmState, BUNDLE_VERSION};
pub use control::{
    AgentDetail, AgentEntry, AgentState, ControlClient, ControlRequest, ControlResponse,
    ControlServer, JournalEntry, JournalFollower, JournalPage, ServerStatus, CONTROL_VERSION,
};
pub use custody::RetryPolicy;
pub use directory::Directory;
pub use itinerary::{Itinerary, ItineraryError};
pub use messages::{AgentStatus, Message, Report, ReportStatus};
pub use multiproc::{
    derive_world, run_child, run_parent, ChildOpts, KillPlan, SmokeOpts, SmokeReport,
};
pub use owner::Owner;
pub use sched::{SchedDepths, Scheduler, DEFAULT_SLICE_FUEL};
pub use server::{AgentServer, ControlView, QueryError, ServerConfig, ServerHandle};
pub use vmres::VmResource;
pub use wal::{AdmissionWal, WalRecord, WalRecovery};
pub use world::{TransportMode, World};

// Telemetry types surface through the runtime so experiments and
// examples can match on journal events without a direct core import.
pub use ajanta_core::telemetry::{
    Counter, CountersSnapshot, Event, Histo, HistoPath, HistoSet, HistoSnapshot, Journal, Record,
    RejectKind, Severity, SpanContext, SpanId, SpanKind, TelemetrySnapshot, TraceId,
};
pub use ajanta_core::trace::{scan_anomalies, Anomaly, SpanRec, TraceForest, TraceRecord};
