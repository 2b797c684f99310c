//! The reference monitor (Java security-manager analogue).
//!
//! Paper Section 3.2: *"the security manager acts as a reference
//! monitor"* — every security-sensitive operation traps to one policy
//! point, and an installed monitor cannot be replaced. Section 5.4 then
//! deliberately narrows its job: *"our approach is to limit the use of the
//! security manager to providing generic protection of system resources
//! and not have it directly deal with the protection of application-level
//! objects"* — application-level policy lives in resources and proxies.
//!
//! Accordingly [`HostMonitor`] checks only **system-level** operations:
//! thread/domain manipulation (Section 5.3: "thread group manipulation
//! operations must therefore be treated as privileged"), registry
//! mutation, domain-database writes, agent launch/dispatch, and monitor
//! replacement itself. Every decision is appended to the shared
//! [`telemetry::Journal`](crate::telemetry::Journal) as an
//! [`Event::Audit`], and the journal's
//! `AuditAllowed`/`AuditDenied` counters count them exactly, so the
//! monitor holds no (unbounded) private state of its own.

use std::sync::Arc;

use crate::domain::DomainId;
use crate::telemetry::{Event, Journal};

/// A system-level operation subject to mediation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemOp {
    /// Create a thread inside `target` — an agent may only create threads
    /// in its own domain; the server may create them anywhere.
    CreateThread {
        /// Domain the new thread would join.
        target: DomainId,
    },
    /// Manipulate (suspend/kill/modify) threads of `target`.
    ManipulateDomain {
        /// Domain being manipulated.
        target: DomainId,
    },
    /// Mutate the resource registry (register/unregister).
    MutateRegistry,
    /// Mutate the domain database.
    MutateDomainDatabase,
    /// Dispatch an agent into the network from this server.
    DispatchAgent,
    /// Replace or reconfigure the security monitor itself.
    ReplaceMonitor,
}

impl SystemOp {
    /// Stable kebab-case label (used by the JSONL trace export).
    pub fn as_str(&self) -> &'static str {
        match self {
            SystemOp::CreateThread { .. } => "create-thread",
            SystemOp::ManipulateDomain { .. } => "manipulate-domain",
            SystemOp::MutateRegistry => "mutate-registry",
            SystemOp::MutateDomainDatabase => "mutate-domain-database",
            SystemOp::DispatchAgent => "dispatch-agent",
            SystemOp::ReplaceMonitor => "replace-monitor",
        }
    }
}

impl std::fmt::Display for SystemOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A refused operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Who attempted the operation.
    pub caller: DomainId,
    /// What was attempted.
    pub op: SystemOp,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} denied {:?}: {}", self.caller, self.op, self.reason)
    }
}

impl std::error::Error for Violation {}

/// The server's reference monitor.
///
/// The policy is fixed at construction (agents cannot install their own —
/// paper Section 3.2: "Applets are not permitted to install their own
/// security managers"); even the server goes through [`HostMonitor::check`]
/// so the audit log is complete. Decisions are journaled in the shared
/// [`Journal`] — pass one in with [`HostMonitor::with_journal`] to unify
/// the audit trail with the rest of the server's telemetry, or use
/// [`HostMonitor::new`] for a standalone monitor with a private journal.
#[derive(Debug)]
pub struct HostMonitor {
    /// Whether agents may dispatch (launch) further agents from here.
    agents_may_dispatch: bool,
    journal: Arc<Journal>,
}

impl Default for HostMonitor {
    fn default() -> Self {
        HostMonitor::new()
    }
}

impl HostMonitor {
    /// A monitor with the default policy (agents may dispatch agents —
    /// needed for the dynamic-extension scenario of Section 5.5) and a
    /// private journal.
    pub fn new() -> Self {
        HostMonitor::with_journal(Arc::new(Journal::new()), true)
    }

    /// A stricter monitor that refuses agent-initiated dispatch.
    pub fn no_agent_dispatch() -> Self {
        HostMonitor::with_journal(Arc::new(Journal::new()), false)
    }

    /// A monitor appending its audit decisions to `journal`.
    pub fn with_journal(journal: Arc<Journal>, agents_may_dispatch: bool) -> Self {
        HostMonitor {
            agents_may_dispatch,
            journal,
        }
    }

    /// The journal this monitor audits into.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The single mediation point.
    pub fn check(&self, caller: DomainId, op: SystemOp) -> Result<(), Violation> {
        let decision = self.decide(caller, &op);
        self.journal.append(Event::Audit {
            caller,
            op: op.clone(),
            allowed: decision.is_none(),
        });
        match decision {
            None => Ok(()),
            Some(reason) => Err(Violation { caller, op, reason }),
        }
    }

    /// Pure policy function: `None` = allow, `Some(reason)` = deny.
    fn decide(&self, caller: DomainId, op: &SystemOp) -> Option<&'static str> {
        if caller.is_server() {
            // The server domain is trusted for everything except replacing
            // the monitor, which nobody may do at runtime.
            return match op {
                SystemOp::ReplaceMonitor => Some("the monitor cannot be replaced at runtime"),
                _ => None,
            };
        }
        match op {
            SystemOp::CreateThread { target } | SystemOp::ManipulateDomain { target } => {
                if *target == caller {
                    None
                } else {
                    Some("agents may only manage threads in their own domain")
                }
            }
            SystemOp::MutateRegistry => {
                // Registration itself is allowed — agents may install
                // resources (Section 5.5's dynamic extension); ownership
                // checks inside the registry prevent touching others'
                // entries.
                None
            }
            SystemOp::MutateDomainDatabase => {
                Some("only the server domain updates the domain database")
            }
            SystemOp::DispatchAgent => {
                if self.agents_may_dispatch {
                    None
                } else {
                    Some("agent dispatch from this server is disabled")
                }
            }
            SystemOp::ReplaceMonitor => Some("the monitor cannot be replaced at runtime"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Counter;

    #[test]
    fn server_domain_is_trusted() {
        let m = HostMonitor::new();
        for op in [
            SystemOp::CreateThread {
                target: DomainId(5),
            },
            SystemOp::ManipulateDomain {
                target: DomainId(5),
            },
            SystemOp::MutateRegistry,
            SystemOp::MutateDomainDatabase,
            SystemOp::DispatchAgent,
        ] {
            m.check(DomainId::SERVER, op).unwrap();
        }
    }

    #[test]
    fn agents_manage_only_their_own_threads() {
        let m = HostMonitor::new();
        let me = DomainId(3);
        let other = DomainId(4);
        m.check(me, SystemOp::CreateThread { target: me }).unwrap();
        m.check(me, SystemOp::ManipulateDomain { target: me })
            .unwrap();
        assert!(m
            .check(me, SystemOp::CreateThread { target: other })
            .is_err());
        assert!(m
            .check(me, SystemOp::ManipulateDomain { target: other })
            .is_err());
        // In particular, an agent cannot act on the SERVER domain.
        assert!(m
            .check(
                me,
                SystemOp::ManipulateDomain {
                    target: DomainId::SERVER
                }
            )
            .is_err());
    }

    #[test]
    fn domain_database_writes_are_server_only() {
        let m = HostMonitor::new();
        assert!(m
            .check(DomainId(1), SystemOp::MutateDomainDatabase)
            .is_err());
        m.check(DomainId::SERVER, SystemOp::MutateDomainDatabase)
            .unwrap();
    }

    #[test]
    fn registry_mutation_open_to_agents() {
        // Dynamic extension (Section 5.5) requires visiting agents to be
        // able to register resources; fine-grained ownership control is the
        // registry's job.
        let m = HostMonitor::new();
        m.check(DomainId(2), SystemOp::MutateRegistry).unwrap();
    }

    #[test]
    fn dispatch_policy_configurable() {
        let open = HostMonitor::new();
        open.check(DomainId(1), SystemOp::DispatchAgent).unwrap();
        let strict = HostMonitor::no_agent_dispatch();
        assert!(strict.check(DomainId(1), SystemOp::DispatchAgent).is_err());
        // Server dispatch is always allowed.
        strict
            .check(DomainId::SERVER, SystemOp::DispatchAgent)
            .unwrap();
    }

    #[test]
    fn nobody_replaces_the_monitor() {
        let m = HostMonitor::new();
        assert!(m.check(DomainId(1), SystemOp::ReplaceMonitor).is_err());
        assert!(m.check(DomainId::SERVER, SystemOp::ReplaceMonitor).is_err());
    }

    #[test]
    fn audit_log_records_everything() {
        let m = HostMonitor::new();
        m.check(DomainId::SERVER, SystemOp::MutateRegistry).unwrap();
        let _ = m.check(DomainId(1), SystemOp::MutateDomainDatabase);
        let decisions: Vec<bool> = m
            .journal()
            .snapshot()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::Audit { allowed, .. } => Some(allowed),
                _ => None,
            })
            .collect();
        assert_eq!(decisions, [true, false]);
        assert_eq!(m.journal().counter(Counter::AuditAllowed), 1);
        assert_eq!(m.journal().counter(Counter::AuditDenied), 1);
    }

    #[test]
    fn audit_goes_to_the_shared_journal() {
        let journal = Arc::new(Journal::new());
        let m = HostMonitor::with_journal(Arc::clone(&journal), true);
        let _ = m.check(DomainId(9), SystemOp::MutateDomainDatabase);
        assert_eq!(journal.counter(Counter::AuditDenied), 1);
        let snap = journal.snapshot();
        assert!(matches!(
            snap[0].event,
            Event::Audit {
                caller: DomainId(9),
                allowed: false,
                ..
            }
        ));
    }

    #[test]
    fn audit_counters_are_exact_past_journal_capacity() {
        let journal = Arc::new(Journal::with_capacity(8));
        let m = HostMonitor::with_journal(Arc::clone(&journal), true);
        for _ in 0..100 {
            m.check(DomainId::SERVER, SystemOp::MutateRegistry).unwrap();
        }
        // The journal retains only 8 records, but the counters are exact.
        assert_eq!(journal.counter(Counter::AuditAllowed), 100);
        assert_eq!(journal.len(), 8);
        assert_eq!(journal.counter(Counter::AuditDenied), 0);
    }

    #[test]
    fn violation_display_is_informative() {
        let m = HostMonitor::new();
        let err = m
            .check(DomainId(7), SystemOp::MutateDomainDatabase)
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("domain[7]"));
        assert!(text.contains("server domain"));
    }
}
