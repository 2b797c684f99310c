//! Shared experiment fixtures: stores, requesters, mechanisms.

use std::sync::Arc;

use ajanta_baselines::{DualEnv, RecordStore, SecurityManagerGate, WrappedResource};
use ajanta_core::{
    DomainId, Guarded, PrincipalPattern, ProxyPolicy, Requester, Rights, SecurityPolicy,
};
use ajanta_naming::Urn;
use ajanta_workloads::records::{record_population, RecordSpec};

/// The well-known store name every fixture registers under.
pub fn store_name() -> Urn {
    Urn::resource("stores.org", ["db"]).unwrap()
}

/// A deterministic store.
pub fn store(spec: &RecordSpec) -> Arc<RecordStore> {
    RecordStore::new(
        store_name(),
        Urn::owner("stores.org", ["admin"]).unwrap(),
        record_population(spec),
    )
}

/// The canonical experiment principals.
pub fn agent_urn() -> Urn {
    Urn::agent("users.org", ["bench", "1"]).unwrap()
}

/// The owner behind [`agent_urn`].
pub fn owner_urn() -> Urn {
    Urn::owner("users.org", ["bench"]).unwrap()
}

/// A requester with full rights in domain 1.
pub fn requester() -> Requester {
    Requester {
        agent: agent_urn(),
        owner: owner_urn(),
        domain: DomainId(1),
        rights: Rights::all(),
    }
}

/// How many decoy principals populate ACLs and policies — an "open
/// server" has many known principals, and per-call identity evaluation
/// must scan past them. This is the population the paper's argument is
/// about; a one-entry ACL would make every mechanism look cheap.
pub const DECOY_PRINCIPALS: usize = 64;

/// All five access mechanisms over the same store.
pub struct Mechanisms {
    /// The raw, unprotected resource (floor).
    pub direct: Arc<RecordStore>,
    /// The paper's proxy path (via `Guarded::get_proxy`).
    pub guarded: Arc<Guarded<RecordStore>>,
    /// Wrapper + per-call ACL.
    pub wrapper: Arc<WrappedResource>,
    /// Central security-manager gate.
    pub gate: Arc<SecurityManagerGate>,
    /// Safe/trusted dual environment.
    pub dualenv: DualEnv,
}

/// Builds every mechanism around one store population, with the default
/// decoy-principal count.
pub fn mechanisms(spec: &RecordSpec) -> Mechanisms {
    mechanisms_with_decoys(spec, DECOY_PRINCIPALS)
}

/// Like [`mechanisms`], with an explicit principal population — the knob
/// the X4b ablation sweeps.
pub fn mechanisms_with_decoys(spec: &RecordSpec, decoys: usize) -> Mechanisms {
    let policy = || {
        let mut policy = SecurityPolicy::new();
        for i in 0..decoys {
            policy.add_rule(
                PrincipalPattern::Exact(Urn::owner("users.org", [format!("decoy{i}")]).unwrap()),
                Rights::on_resource(Urn::resource("stores.org", [format!("other{i}")]).unwrap()),
            );
        }
        policy.add_rule(
            PrincipalPattern::Exact(owner_urn()),
            Rights::on_resource(store_name()),
        );
        policy
    };
    let direct = store(spec);
    let guarded = Guarded::new(Arc::clone(&direct), ProxyPolicy::default());
    let wrapper = WrappedResource::new(direct.clone() as Arc<dyn ajanta_core::Resource>);
    for i in 0..decoys {
        wrapper.grant(
            Urn::owner("users.org", [format!("decoy{i}")]).unwrap(),
            Rights::on_resource(Urn::resource("stores.org", [format!("other{i}")]).unwrap()),
        );
    }
    wrapper.grant(owner_urn(), Rights::all());
    let gate = SecurityManagerGate::new(policy());
    gate.add_resource(direct.clone() as Arc<dyn ajanta_core::Resource>);
    let dualenv = DualEnv::start(
        policy(),
        vec![direct.clone() as Arc<dyn ajanta_core::Resource>],
    );
    Mechanisms {
        direct,
        guarded,
        wrapper,
        gate,
        dualenv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_core::AccessProtocol;
    use ajanta_vm::Value;

    #[test]
    fn all_mechanisms_agree_on_results() {
        let spec = RecordSpec {
            count: 50,
            ..Default::default()
        };
        let m = mechanisms(&spec);
        let expected = Value::Int(50);

        use ajanta_core::Resource;
        assert_eq!(m.direct.invoke("count", &[]).unwrap(), expected);

        let rq = requester();
        let proxy = Arc::clone(&m.guarded).get_proxy(&rq, 0).unwrap();
        assert_eq!(proxy.invoke(rq.domain, "count", &[], 0).unwrap(), expected);

        assert_eq!(
            m.wrapper.invoke(&owner_urn(), "count", &[]).unwrap(),
            expected
        );
        assert_eq!(
            m.gate
                .invoke(&agent_urn(), &owner_urn(), &store_name(), "count", &[])
                .unwrap(),
            expected
        );
        assert_eq!(
            m.dualenv
                .invoke(&agent_urn(), &owner_urn(), &store_name(), "count", &[])
                .unwrap(),
            expected
        );
    }
}
