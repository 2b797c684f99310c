//! The resource registry and the dynamic binding protocol (paper Fig. 6).
//!
//! The six steps, as implemented across this crate and `ajanta-runtime`:
//!
//! 1. **resource registers itself** — [`ResourceRegistry::register`],
//!    mediated by the [`HostMonitor`] and recorded with ownership so
//!    nobody else can modify the entry;
//! 2. **agent requests a resource** — the agent environment's
//!    `get_resource` primitive (in `ajanta-runtime`) calls
//!    [`ResourceRegistry::bind`];
//! 3. **server looks up resource in registry** — the name lookup inside
//!    `bind`;
//! 4. **`get_proxy` method is invoked** — the upcall to the resource's
//!    [`AccessProtocol::get_proxy`], executing the resource's embedded
//!    policy against the requester's verified identity and rights;
//! 5. **proxy object is returned to agent** — `bind`'s return value;
//! 6. **agent accesses resource via proxy** — [`ResourceProxy::invoke`].
//!
//! Step 4 runs on the requesting agent's thread in the paper; here it runs
//! on whatever thread calls `bind` — the agent's hosting thread in the
//! runtime — with the same trust story: `get_proxy` receives only the
//! verified [`Requester`] facts, never agent-controlled data.

use std::collections::HashMap;
use std::sync::Arc;

use ajanta_naming::{NameRegistry, RegistryError, Urn};
use parking_lot::RwLock;

use crate::domain::DomainId;
use crate::monitor::{HostMonitor, SystemOp, Violation};
use crate::proxy::{AccessError, ResourceProxy};
use crate::resource::{AccessProtocol, Requester};

/// Why a bind (or registration) failed.
#[derive(Debug)]
pub enum BindError {
    /// The reference monitor refused the registry mutation.
    Monitor(Violation),
    /// Name-level registration failed (duplicate, not owner, ...).
    Name(RegistryError),
    /// No resource is registered under this name.
    NotFound(Urn),
    /// The resource's access protocol refused (or a proxy error).
    Denied(AccessError),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Monitor(v) => write!(f, "{v}"),
            BindError::Name(e) => write!(f, "{e}"),
            BindError::NotFound(n) => write!(f, "no resource registered as {n}"),
            BindError::Denied(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BindError {}

impl From<Violation> for BindError {
    fn from(v: Violation) -> Self {
        BindError::Monitor(v)
    }
}

impl From<RegistryError> for BindError {
    fn from(e: RegistryError) -> Self {
        BindError::Name(e)
    }
}

impl From<AccessError> for BindError {
    fn from(e: AccessError) -> Self {
        BindError::Denied(e)
    }
}

/// The server's resource registry.
///
/// The name directory and the object map sit under one lock, so a name
/// is listed exactly when its object binds: `register` and `unregister`
/// update both in one critical section.
pub struct ResourceRegistry {
    entries: RwLock<Entries>,
}

/// Registration metadata plus the objects `bind` hands out.
#[derive(Default)]
struct Entries {
    names: NameRegistry,
    objects: HashMap<Urn, Arc<dyn AccessProtocol>>,
}

impl Default for ResourceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ResourceRegistry {
            entries: RwLock::new(Entries::default()),
        }
    }

    /// Step 1: registers `resource` on behalf of `registrar` (the domain
    /// performing the call — the server itself, or a visiting agent
    /// installing a resource dynamically, Section 5.5).
    pub fn register(
        &self,
        monitor: &HostMonitor,
        caller: DomainId,
        registrar: &Urn,
        resource: Arc<dyn AccessProtocol>,
    ) -> Result<(), BindError> {
        monitor.check(caller, SystemOp::MutateRegistry)?;
        let name = resource.name().clone();
        let description = format!("resource owned by {}", resource.owner());
        let mut entries = self.entries.write();
        entries
            .names
            .register(name.clone(), registrar.clone(), description)?;
        entries.objects.insert(name, resource);
        Ok(())
    }

    /// Removes a registration; only the original registrar may.
    pub fn unregister(
        &self,
        monitor: &HostMonitor,
        caller: DomainId,
        registrar: &Urn,
        name: &Urn,
    ) -> Result<Arc<dyn AccessProtocol>, BindError> {
        monitor.check(caller, SystemOp::MutateRegistry)?;
        let mut entries = self.entries.write();
        entries.names.unregister(name, registrar)?;
        entries
            .objects
            .remove(name)
            .ok_or_else(|| BindError::NotFound(name.clone()))
    }

    /// Steps 3–5: looks the resource up and upcalls its `get_proxy`.
    pub fn bind(
        &self,
        requester: &Requester,
        name: &Urn,
        now: u64,
    ) -> Result<ResourceProxy, BindError> {
        let resource = self
            .entries
            .read()
            .objects
            .get(name)
            .cloned()
            .ok_or_else(|| BindError::NotFound(name.clone()))?;
        // The upcall (step 4) runs outside the registry lock: a slow or
        // reentrant get_proxy must not block other binds.
        let proxy = resource.get_proxy(requester, now)?;
        Ok(proxy)
    }

    /// Directory listing (names only — never the objects).
    pub fn list(&self) -> Vec<Urn> {
        self.entries
            .read()
            .names
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.entries.read().objects.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::{Meter, ProxyControl};
    use crate::resource::{MethodSpec, Resource, ResourceError};
    use crate::rights::Rights;
    use ajanta_vm::{Ty, Value};

    /// A resource whose get_proxy enables exactly the methods the
    /// requester's rights permit, denying when none are.
    struct Gate {
        name: Urn,
        owner: Urn,
    }

    impl Resource for Gate {
        fn name(&self) -> &Urn {
            &self.name
        }
        fn owner(&self) -> &Urn {
            &self.owner
        }
        fn methods(&self) -> Vec<MethodSpec> {
            vec![
                MethodSpec::new("query", [], Ty::Int),
                MethodSpec::new("buy", [], Ty::Int),
            ]
        }
        fn invoke(&self, method: &str, _args: &[Value]) -> Result<Value, ResourceError> {
            match method {
                "query" => Ok(Value::Int(1)),
                "buy" => Ok(Value::Int(2)),
                other => Err(ResourceError::NoSuchMethod(other.into())),
            }
        }
    }

    impl AccessProtocol for Gate {
        fn get_proxy(
            self: Arc<Self>,
            requester: &Requester,
            _now: u64,
        ) -> Result<ResourceProxy, AccessError> {
            let table = self.method_table();
            let enabled: Vec<_> = table
                .iter()
                .filter(|(_, name)| requester.rights.permits(self.name(), name))
                .map(|(id, _)| id)
                .collect();
            if enabled.is_empty() {
                return Err(AccessError::PolicyDenied {
                    resource: self.name().clone(),
                    reason: "no methods permitted".into(),
                });
            }
            let control =
                ProxyControl::new(requester.domain, [], table, enabled, None, Meter::off());
            Ok(ResourceProxy::new(self, control))
        }
    }

    fn gate(name: &str) -> Arc<Gate> {
        Arc::new(Gate {
            name: Urn::resource("acme.com", [name]).unwrap(),
            owner: Urn::owner("acme.com", ["admin"]).unwrap(),
        })
    }

    fn requester(rights: Rights) -> Requester {
        Requester {
            agent: Urn::agent("umn.edu", ["a"]).unwrap(),
            owner: Urn::owner("umn.edu", ["alice"]).unwrap(),
            domain: DomainId(1),
            rights,
        }
    }

    fn server_urn() -> Urn {
        Urn::server("acme.com", ["s1"]).unwrap()
    }

    #[test]
    fn full_six_step_protocol() {
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        let g = gate("catalog");
        let rname = g.name().clone();

        // Step 1.
        reg.register(&monitor, DomainId::SERVER, &server_urn(), g)
            .unwrap();
        assert_eq!(reg.len(), 1);

        // Steps 2–5.
        let rq = requester(Rights::none().grant_method(rname.clone(), "query"));
        let proxy = reg.bind(&rq, &rname, 0).unwrap();

        // Step 6.
        assert_eq!(
            proxy.invoke(rq.domain, "query", &[], 0).unwrap(),
            Value::Int(1)
        );
        // "buy" was not permitted, so the proxy has it disabled.
        assert_eq!(
            proxy.invoke(rq.domain, "buy", &[], 0),
            Err(AccessError::MethodDisabled("buy".into()))
        );
    }

    #[test]
    fn bind_unknown_name_fails() {
        let reg = ResourceRegistry::new();
        let rq = requester(Rights::all());
        let missing = Urn::resource("acme.com", ["ghost"]).unwrap();
        assert!(matches!(
            reg.bind(&rq, &missing, 0),
            Err(BindError::NotFound(_))
        ));
    }

    #[test]
    fn policy_denial_propagates() {
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        let g = gate("catalog");
        let rname = g.name().clone();
        reg.register(&monitor, DomainId::SERVER, &server_urn(), g)
            .unwrap();
        let rq = requester(Rights::none());
        assert!(matches!(
            reg.bind(&rq, &rname, 0),
            Err(BindError::Denied(AccessError::PolicyDenied { .. }))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        reg.register(&monitor, DomainId::SERVER, &server_urn(), gate("catalog"))
            .unwrap();
        assert!(matches!(
            reg.register(&monitor, DomainId::SERVER, &server_urn(), gate("catalog")),
            Err(BindError::Name(RegistryError::AlreadyRegistered(_)))
        ));
    }

    #[test]
    fn agents_can_register_but_not_unregister_others_entries() {
        // Dynamic extension: a visiting agent installs a resource...
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        let agent_urn = Urn::agent("umn.edu", ["installer"]).unwrap();
        let agent_domain = DomainId(5);
        reg.register(&monitor, agent_domain, &agent_urn, gate("installed"))
            .unwrap();

        // ...a different principal cannot remove it...
        let eve = Urn::agent("evil.org", ["eve"]).unwrap();
        let name = Urn::resource("acme.com", ["installed"]).unwrap();
        assert!(matches!(
            reg.unregister(&monitor, DomainId(6), &eve, &name),
            Err(BindError::Name(RegistryError::NotOwner { .. }))
        ));

        // ...but the installer can.
        reg.unregister(&monitor, agent_domain, &agent_urn, &name)
            .unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn installed_resource_outlives_installer() {
        // The paper's scenario: agent installs a resource, terminates;
        // later agents bind to it.
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        let installer = Urn::agent("umn.edu", ["installer"]).unwrap();
        {
            let g = gate("persistent");
            reg.register(&monitor, DomainId(5), &installer, g).unwrap();
            // Installer's domain is evicted; registry entry remains.
        }
        let rname = Urn::resource("acme.com", ["persistent"]).unwrap();
        let rq = requester(Rights::on_resource(rname.clone()));
        let proxy = reg.bind(&rq, &rname, 0).unwrap();
        assert_eq!(
            proxy.invoke(rq.domain, "query", &[], 0).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn list_names_only() {
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        reg.register(&monitor, DomainId::SERVER, &server_urn(), gate("b"))
            .unwrap();
        reg.register(&monitor, DomainId::SERVER, &server_urn(), gate("a"))
            .unwrap();
        let names: Vec<String> = reg.list().iter().map(|n| n.leaf().to_string()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn every_listed_name_binds_while_registrations_land() {
        // A name is listed exactly when its object is registered, so a
        // reader racing a stream of registrations never sees a listed
        // name fail to bind.
        const RESOURCES: usize = 5_000;
        let reg = Arc::new(ResourceRegistry::new());
        let writer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let monitor = HostMonitor::new();
                for i in 0..RESOURCES {
                    reg.register(
                        &monitor,
                        DomainId::SERVER,
                        &server_urn(),
                        gate(&format!("r{i:05}")),
                    )
                    .unwrap();
                }
            })
        };
        let rq = requester(Rights::all());
        let check = |names: &[Urn]| {
            for name in names {
                if let Err(e) = reg.bind(&rq, name, 0) {
                    panic!("{name} is listed but does not bind: {e}");
                }
            }
        };
        while !writer.is_finished() {
            // Names sort by index, so the tail is the newest registrations.
            let names = reg.list();
            check(&names[names.len().saturating_sub(4)..]);
        }
        writer.join().unwrap();
        let names = reg.list();
        assert_eq!(names.len(), RESOURCES);
        check(&names);
    }

    #[test]
    fn per_agent_proxies_are_independent() {
        // "A separate proxy is created for each agent": revoking one
        // agent's proxy must not affect another's.
        let monitor = HostMonitor::new();
        let reg = ResourceRegistry::new();
        let g = gate("catalog");
        let rname = g.name().clone();
        reg.register(&monitor, DomainId::SERVER, &server_urn(), g)
            .unwrap();

        let rq1 = Requester {
            domain: DomainId(1),
            ..requester(Rights::on_resource(rname.clone()))
        };
        let rq2 = Requester {
            domain: DomainId(2),
            ..requester(Rights::on_resource(rname.clone()))
        };
        let p1 = reg.bind(&rq1, &rname, 0).unwrap();
        let p2 = reg.bind(&rq2, &rname, 0).unwrap();

        p1.control().revoke(DomainId::SERVER).unwrap();
        assert_eq!(
            p1.invoke(rq1.domain, "query", &[], 0),
            Err(AccessError::Revoked)
        );
        // Agent 2 is unaffected.
        assert_eq!(
            p2.invoke(rq2.domain, "query", &[], 0).unwrap(),
            Value::Int(1)
        );
    }
}
