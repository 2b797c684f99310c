//! **The paper's contribution**: proxy-based protected resource access for
//! mobile agents (Tripathi & Karnik, ICPP 1998, Section 5).
//!
//! An agent server must let visiting — untrusted, mobile — agents use its
//! resources *"only in ways it is authorized to"* while being unable to
//! *"breach system security by accessing resources it is not authorized to
//! use"* (Section 5.2). The design here is the paper's:
//!
//! * [`credentials`] — each agent carries signed, tamper-evident
//!   credentials binding its identity to its owner and creator, with
//!   delegated-rights restrictions and expiry (Section 5.2).
//! * [`rights`] — the rights algebra those restrictions are expressed in:
//!   delegation can only shrink privileges, never grow them.
//! * [`domain`] — protection domains and the server's **domain database**
//!   (Section 5.3): owner, creator, home site, authorizations, usage
//!   limits, current usage, live bindings.
//! * [`monitor`] — the reference monitor mediating system-level
//!   operations (the Java security-manager analogue); deliberately
//!   limited to *"generic protection of system resources"* (Section 5.4),
//!   leaving application-level policy to resources and proxies.
//! * [`resource`] — the `Resource` / `AccessProtocol` interfaces of
//!   Figs. 3 and 7.
//! * [`proxy`] — dynamically created, per-agent proxies (Fig. 5) with
//!   per-method enable/disable, expiry, usage metering and charging,
//!   selective revocation, and identity-based capability confinement
//!   (Section 5.5).
//! * [`registry`] — the resource registry and the six-step dynamic
//!   binding protocol of Fig. 6.
//! * [`policy`] — the server security policy consulted at `get_proxy`
//!   time: rights by principal, group, or name subtree.
//! * [`buffer`] — the paper's running example, a bounded buffer with a
//!   hand-written typed proxy mirroring Figs. 4–5 line for line.
//! * [`proxygen`] — the "simple lexical processing tool" (Section 5.5)
//!   that generates proxies: a [`resource::MethodTable`]-driven generic
//!   proxy plus the [`crate::declare_resource_proxy!`] macro for typed
//!   proxies, both resolving method names to interned
//!   [`resource::MethodId`]s at bind time.
//! * [`telemetry`] — the typed event journal unifying the monitor's
//!   audit log (Section 3.2), proxy metering/accounting (Section 5.5),
//!   and the server's security-event stream into one bounded,
//!   counter-backed ring — now with distributed-trace spans and
//!   lock-free latency histograms for the hot paths.
//! * [`trace`] — causal tour reconstruction: JSONL journal export,
//!   cross-server merge into per-trace span trees, and anomaly scanning
//!   (orphan spans, retry storms, accesses after revocation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod credentials;
pub mod domain;
pub mod monitor;
pub mod policy;
pub mod proxy;
pub mod proxygen;
pub mod registry;
pub mod resource;
pub mod rights;
pub mod telemetry;
pub mod trace;

pub use buffer::{BoundedBuffer, Buffer, BufferProxy};
pub use credentials::{CredentialError, Credentials, CredentialsBuilder, Endorsement};
pub use domain::{AgentRecord, DomainDatabase, DomainError, DomainId, Usage, UsageLimits};
pub use monitor::{HostMonitor, SystemOp, Violation};
pub use policy::{Groups, PrincipalPattern, SecurityPolicy};
pub use proxy::{
    AccessError, BoundMeter, Meter, MeterMode, MeterReading, ProxyControl, ResourceProxy,
};
pub use proxygen::{Guarded, ProxyPolicy};
pub use registry::{BindError, ResourceRegistry};
pub use resource::{
    AccessProtocol, MethodId, MethodSpec, MethodTable, ProtectedResource, Requester, Resource,
    ResourceError,
};
pub use rights::{Grant, MethodPattern, Rights, Scope};
pub use telemetry::{
    Counter, CounterSet, Event, Histo, HistoPath, HistoSet, HistoSnapshot, Journal, JournalHook,
    Record, RejectKind, Severity, SpanContext, SpanId, SpanKind, TraceId,
};
pub use trace::{scan_anomalies, Anomaly, SpanRec, TraceForest, TraceRecord, TraceTree};

/// Hidden re-export used by [`declare_resource_proxy!`] expansions in
/// downstream crates.
#[doc(hidden)]
pub use ajanta_vm as __vm;
