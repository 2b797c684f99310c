//! Protection domains and the domain database (paper Section 5.3).
//!
//! Java identifies an agent's protection domain by its thread group; here
//! every executing context carries an explicit [`DomainId`] with the same
//! observable semantics — a context in one domain cannot act as another.
//! Domain 0 is reserved for the **server domain**.
//!
//! *"The agent server maintains a domain database. For each agent, it
//! stores several items of information including its thread-group, owner,
//! creator, and home-site address. It also includes access authorization
//! for various server resources, usage limits and current usage. If the
//! agent is currently granted access to any server resources, then
//! information about the binding objects is also maintained here. This
//! database can be updated only by a thread executing in the server's
//! protection domain."*

use std::collections::{BTreeMap, HashMap};

use ajanta_naming::Urn;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::rights::Rights;

/// A protection-domain identifier. Domain 0 is the server's own domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(pub u64);

impl DomainId {
    /// The server's own protection domain.
    pub const SERVER: DomainId = DomainId(0);

    /// True for the server domain.
    pub fn is_server(self) -> bool {
        self == Self::SERVER
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_server() {
            f.write_str("domain[server]")
        } else {
            write!(f, "domain[{}]", self.0)
        }
    }
}

/// Per-agent resource quotas, enforced by the runtime's interpreter limits
/// and accounted here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageLimits {
    /// Instruction-fuel budget for the agent's whole stay.
    pub fuel: u64,
    /// Byte-allocation budget.
    pub alloc_bytes: u64,
    /// Maximum resource bindings (live proxies) at once.
    pub max_bindings: usize,
}

impl Default for UsageLimits {
    fn default() -> Self {
        UsageLimits {
            fuel: 100_000_000,
            alloc_bytes: 256 << 20,
            max_bindings: 64,
        }
    }
}

/// Current usage, updated by the server as the agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Usage {
    /// Fuel consumed so far.
    pub fuel: u64,
    /// Bytes allocated so far.
    pub alloc_bytes: u64,
    /// Live resource bindings.
    pub bindings: usize,
}

/// Everything the server knows about one hosted agent.
#[derive(Debug, Clone)]
pub struct AgentRecord {
    /// The agent's global name.
    pub agent: Urn,
    /// Its protection domain (the thread-group analogue).
    pub domain: DomainId,
    /// The owning principal.
    pub owner: Urn,
    /// The creating principal.
    pub creator: Urn,
    /// Home-site address for status reports.
    pub home: Urn,
    /// Access authorization for server resources, as granted by the
    /// server's policy intersected with the credentials' delegation.
    pub authorization: Rights,
    /// Quotas for this agent.
    pub limits: UsageLimits,
    /// Consumption so far.
    pub usage: Usage,
    /// Names of resources this agent currently holds proxies to
    /// ("information about the binding objects").
    pub bindings: Vec<Urn>,
}

/// Why a domain-database operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// Only the server domain may mutate the database.
    NotServerDomain(DomainId),
    /// No record for this domain.
    UnknownDomain(DomainId),
    /// No record for this agent name.
    UnknownAgent(Urn),
    /// The agent name is already registered.
    DuplicateAgent(Urn),
    /// The operation would exceed a usage limit.
    QuotaExceeded {
        /// Which quota ("fuel", "alloc", "bindings").
        what: &'static str,
        /// The configured limit.
        limit: u64,
        /// The value the operation would have reached.
        requested: u64,
    },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::NotServerDomain(d) => {
                write!(f, "{d} may not update the domain database")
            }
            DomainError::UnknownDomain(d) => write!(f, "no record for {d}"),
            DomainError::UnknownAgent(a) => write!(f, "no record for agent {a}"),
            DomainError::DuplicateAgent(a) => write!(f, "agent already registered: {a}"),
            DomainError::QuotaExceeded {
                what,
                limit,
                requested,
            } => write!(f, "{what} quota exceeded: {requested} > {limit}"),
        }
    }
}

impl std::error::Error for DomainError {}

/// Records one [`DomainDatabase::iter`] page copies under the lock.
const LIST_PAGE: usize = 512;

/// The server's domain database.
///
/// Every mutating method takes the **caller's** domain and refuses
/// non-server callers — the paper's "can be updated only by a thread
/// executing in the server's protection domain" rule, enforced in the API
/// rather than by convention.
///
/// Both indices and the id allocator sit under one lock, so an agent's
/// name and its record appear and disappear together: a reader that finds
/// the name also finds the record. Lookups return **clones** of the
/// record: a snapshot that stays valid after the lock is released.
#[derive(Debug)]
pub struct DomainDatabase {
    index: RwLock<Index>,
}

#[derive(Debug)]
struct Index {
    /// Domain id → record, in domain order so listings can page.
    by_domain: BTreeMap<DomainId, AgentRecord>,
    /// Agent name → domain id.
    by_agent: HashMap<Urn, DomainId>,
    next_domain: u64,
}

impl Default for DomainDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainDatabase {
    /// An empty database. Domain ids start at 1 (0 is the server).
    pub fn new() -> Self {
        DomainDatabase {
            index: RwLock::new(Index {
                by_domain: BTreeMap::new(),
                by_agent: HashMap::new(),
                next_domain: 1,
            }),
        }
    }

    fn require_server(caller: DomainId) -> Result<(), DomainError> {
        if caller.is_server() {
            Ok(())
        } else {
            Err(DomainError::NotServerDomain(caller))
        }
    }

    /// Creates a fresh protection domain for an arriving agent and records
    /// it. Server-domain only.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        caller: DomainId,
        agent: Urn,
        owner: Urn,
        creator: Urn,
        home: Urn,
        authorization: Rights,
        limits: UsageLimits,
    ) -> Result<DomainId, DomainError> {
        Self::require_server(caller)?;
        let mut index = self.index.write();
        if index.by_agent.contains_key(&agent) {
            return Err(DomainError::DuplicateAgent(agent));
        }
        let domain = DomainId(index.next_domain);
        index.next_domain += 1;
        index.by_agent.insert(agent.clone(), domain);
        index.by_domain.insert(
            domain,
            AgentRecord {
                agent,
                domain,
                owner,
                creator,
                home,
                authorization,
                limits,
                usage: Usage::default(),
                bindings: Vec::new(),
            },
        );
        Ok(domain)
    }

    /// Removes a departing/terminated agent. Server-domain only. By the
    /// time this returns, both indices are clear and the agent's name may
    /// be re-admitted.
    pub fn evict(&self, caller: DomainId, domain: DomainId) -> Result<AgentRecord, DomainError> {
        Self::require_server(caller)?;
        let mut index = self.index.write();
        let record = index
            .by_domain
            .remove(&domain)
            .ok_or(DomainError::UnknownDomain(domain))?;
        index.by_agent.remove(&record.agent);
        Ok(record)
    }

    /// Looks up by domain (read-only; any caller — reads are not
    /// restricted, only updates are). Returns a snapshot.
    pub fn record(&self, domain: DomainId) -> Option<AgentRecord> {
        self.index.read().by_domain.get(&domain).cloned()
    }

    /// Looks up by agent name. Returns a snapshot.
    pub fn record_of(&self, agent: &Urn) -> Option<AgentRecord> {
        let index = self.index.read();
        let domain = index.by_agent.get(agent)?;
        index.by_domain.get(domain).cloned()
    }

    /// The domain hosting `agent`, if present.
    pub fn domain_of(&self, agent: &Urn) -> Option<DomainId> {
        self.index.read().by_agent.get(agent).copied()
    }

    /// Number of resident agents.
    pub fn len(&self) -> usize {
        self.index.read().by_domain.len()
    }

    /// True when no agents are resident.
    pub fn is_empty(&self) -> bool {
        self.index.read().by_domain.is_empty()
    }

    /// Every record, ordered by domain (status queries from owners,
    /// Section 4): [`DomainDatabase::project`] with a full copy of each.
    pub fn iter(&self) -> impl Iterator<Item = AgentRecord> {
        self.project(AgentRecord::clone).into_iter()
    }

    /// `f` of every record, ordered by domain, so a caller copies only
    /// what it needs. Records are read [`LIST_PAGE`] at a time, each page
    /// under its own hold of the lock, so listing 100k agents stalls an
    /// admission or eviction for one page, never for the whole table.
    /// Each page is a snapshot; an agent admitted or evicted while the
    /// listing runs may or may not appear in it.
    pub fn project<T>(&self, mut f: impl FnMut(&AgentRecord) -> T) -> Vec<T> {
        let mut out = Vec::new();
        let mut from = DomainId(0);
        loop {
            // Collected apart, so growing `out` never holds the lock.
            let mut page = Vec::with_capacity(LIST_PAGE);
            for (id, record) in self.index.read().by_domain.range(from..).take(LIST_PAGE) {
                page.push(f(record));
                from = DomainId(id.0 + 1);
            }
            let last = page.len() < LIST_PAGE;
            out.append(&mut page);
            if last {
                return out;
            }
        }
    }

    /// Applies `f` to one record under the write lock.
    fn update<T>(
        &self,
        caller: DomainId,
        domain: DomainId,
        f: impl FnOnce(&mut AgentRecord) -> Result<T, DomainError>,
    ) -> Result<T, DomainError> {
        Self::require_server(caller)?;
        let mut index = self.index.write();
        let rec = index
            .by_domain
            .get_mut(&domain)
            .ok_or(DomainError::UnknownDomain(domain))?;
        f(rec)
    }

    /// Charges fuel against an agent's quota. Server-domain only.
    pub fn charge_fuel(
        &self,
        caller: DomainId,
        domain: DomainId,
        fuel: u64,
    ) -> Result<(), DomainError> {
        self.update(caller, domain, |rec| {
            let new = rec.usage.fuel.saturating_add(fuel);
            if new > rec.limits.fuel {
                return Err(DomainError::QuotaExceeded {
                    what: "fuel",
                    limit: rec.limits.fuel,
                    requested: new,
                });
            }
            rec.usage.fuel = new;
            Ok(())
        })
    }

    /// Records a new resource binding. Server-domain only.
    pub fn add_binding(
        &self,
        caller: DomainId,
        domain: DomainId,
        resource: Urn,
    ) -> Result<(), DomainError> {
        self.update(caller, domain, |rec| {
            if rec.bindings.len() + 1 > rec.limits.max_bindings {
                return Err(DomainError::QuotaExceeded {
                    what: "bindings",
                    limit: rec.limits.max_bindings as u64,
                    requested: rec.bindings.len() as u64 + 1,
                });
            }
            rec.bindings.push(resource);
            rec.usage.bindings = rec.bindings.len();
            Ok(())
        })
    }

    /// Drops a recorded binding (e.g. after revocation). Server-domain
    /// only. Returns whether the binding was present.
    pub fn remove_binding(
        &self,
        caller: DomainId,
        domain: DomainId,
        resource: &Urn,
    ) -> Result<bool, DomainError> {
        self.update(caller, domain, |rec| {
            let before = rec.bindings.len();
            rec.bindings.retain(|r| r != resource);
            rec.usage.bindings = rec.bindings.len();
            Ok(rec.bindings.len() != before)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> (Urn, Urn, Urn, Urn) {
        (
            Urn::agent("umn.edu", ["a1"]).unwrap(),
            Urn::owner("umn.edu", ["alice"]).unwrap(),
            Urn::owner("umn.edu", ["launcher"]).unwrap(),
            Urn::server("umn.edu", ["home"]).unwrap(),
        )
    }

    fn admit(db: &DomainDatabase) -> DomainId {
        let (a, o, c, h) = names();
        db.admit(
            DomainId::SERVER,
            a,
            o,
            c,
            h,
            Rights::all(),
            UsageLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn admit_assigns_distinct_nonserver_domains() {
        let db = DomainDatabase::new();
        let d1 = admit(&db);
        let (_, o, c, h) = names();
        let a2 = Urn::agent("umn.edu", ["a2"]).unwrap();
        let d2 = db
            .admit(
                DomainId::SERVER,
                a2,
                o,
                c,
                h,
                Rights::none(),
                UsageLimits::default(),
            )
            .unwrap();
        assert_ne!(d1, d2);
        assert!(!d1.is_server());
        assert!(!d2.is_server());
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn only_server_domain_may_mutate() {
        let db = DomainDatabase::new();
        let d = admit(&db);
        let (a2, o, c, h) = names();
        let agent_domain = d;

        assert_eq!(
            db.admit(
                agent_domain,
                a2.child("evil").unwrap(),
                o,
                c,
                h,
                Rights::all(),
                UsageLimits::default()
            )
            .unwrap_err(),
            DomainError::NotServerDomain(agent_domain)
        );
        assert!(matches!(
            db.charge_fuel(agent_domain, d, 1),
            Err(DomainError::NotServerDomain(_))
        ));
        assert!(matches!(
            db.add_binding(agent_domain, d, names().0),
            Err(DomainError::NotServerDomain(_))
        ));
        assert!(matches!(
            db.evict(agent_domain, d),
            Err(DomainError::NotServerDomain(_))
        ));
        // Reads are open.
        assert!(db.record(d).is_some());
    }

    #[test]
    fn duplicate_agents_rejected() {
        let db = DomainDatabase::new();
        admit(&db);
        let (a, o, c, h) = names();
        assert_eq!(
            db.admit(
                DomainId::SERVER,
                a.clone(),
                o,
                c,
                h,
                Rights::none(),
                UsageLimits::default()
            )
            .unwrap_err(),
            DomainError::DuplicateAgent(a)
        );
    }

    #[test]
    fn lookup_by_name_and_domain_agree() {
        let db = DomainDatabase::new();
        let d = admit(&db);
        let (a, ..) = names();
        assert_eq!(db.domain_of(&a), Some(d));
        assert_eq!(db.record_of(&a).unwrap().domain, d);
        assert_eq!(db.record(d).unwrap().agent, a);
    }

    #[test]
    fn evict_frees_both_indices() {
        let db = DomainDatabase::new();
        let d = admit(&db);
        let (a, ..) = names();
        let rec = db.evict(DomainId::SERVER, d).unwrap();
        assert_eq!(rec.agent, a);
        assert!(db.is_empty());
        assert_eq!(db.domain_of(&a), None);
        assert!(matches!(
            db.evict(DomainId::SERVER, d),
            Err(DomainError::UnknownDomain(_))
        ));
        // The name can be reused after eviction (re-arrival).
        admit(&db);
    }

    #[test]
    fn fuel_quota_enforced() {
        let db = DomainDatabase::new();
        let (a, o, c, h) = names();
        let d = db
            .admit(
                DomainId::SERVER,
                a,
                o,
                c,
                h,
                Rights::all(),
                UsageLimits {
                    fuel: 100,
                    ..Default::default()
                },
            )
            .unwrap();
        db.charge_fuel(DomainId::SERVER, d, 60).unwrap();
        db.charge_fuel(DomainId::SERVER, d, 40).unwrap();
        let err = db.charge_fuel(DomainId::SERVER, d, 1).unwrap_err();
        assert_eq!(
            err,
            DomainError::QuotaExceeded {
                what: "fuel",
                limit: 100,
                requested: 101
            }
        );
        assert_eq!(db.record(d).unwrap().usage.fuel, 100);
    }

    #[test]
    fn binding_quota_and_bookkeeping() {
        let db = DomainDatabase::new();
        let (a, o, c, h) = names();
        let d = db
            .admit(
                DomainId::SERVER,
                a,
                o,
                c,
                h,
                Rights::all(),
                UsageLimits {
                    max_bindings: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        let r1 = Urn::resource("x.org", ["r1"]).unwrap();
        let r2 = Urn::resource("x.org", ["r2"]).unwrap();
        let r3 = Urn::resource("x.org", ["r3"]).unwrap();
        db.add_binding(DomainId::SERVER, d, r1.clone()).unwrap();
        db.add_binding(DomainId::SERVER, d, r2).unwrap();
        assert!(matches!(
            db.add_binding(DomainId::SERVER, d, r3),
            Err(DomainError::QuotaExceeded {
                what: "bindings",
                ..
            })
        ));
        assert_eq!(db.record(d).unwrap().usage.bindings, 2);
        assert!(db.remove_binding(DomainId::SERVER, d, &r1).unwrap());
        assert!(!db.remove_binding(DomainId::SERVER, d, &r1).unwrap());
        assert_eq!(db.record(d).unwrap().usage.bindings, 1);
    }

    #[test]
    fn iter_supports_status_queries() {
        let db = DomainDatabase::new();
        admit(&db);
        let owners: Vec<_> = db.iter().map(|r| r.owner.clone()).collect();
        assert_eq!(owners.len(), 1);
        assert_eq!(owners[0], names().1);
    }

    /// A projection reads the same records as full copies do, across
    /// page boundaries.
    #[test]
    fn projection_matches_full_records_across_pages() {
        let db = DomainDatabase::new();
        let (_, o, c, h) = names();
        for i in 0..1_200 {
            let agent = Urn::agent("umn.edu", [format!("a{i}")]).unwrap();
            let d = db
                .admit(
                    DomainId::SERVER,
                    agent,
                    o.clone(),
                    c.clone(),
                    h.clone(),
                    Rights::none(),
                    UsageLimits::default(),
                )
                .unwrap();
            db.charge_fuel(DomainId::SERVER, d, i).unwrap();
            if i % 7 == 0 {
                let r = Urn::resource("x.org", [format!("r{i}")]).unwrap();
                db.add_binding(DomainId::SERVER, d, r).unwrap();
            }
            // Holes in the domain order, too.
            if i % 5 == 0 {
                db.evict(DomainId::SERVER, d).unwrap();
            }
        }
        let summary = |r: &AgentRecord| (r.agent.clone(), r.domain, r.usage.fuel, r.usage.bindings);
        let projected = db.project(summary);
        let full: Vec<_> = db.iter().map(|r| summary(&r)).collect();
        assert_eq!(projected.len(), 960);
        assert!(projected.len() > 512, "records must span pages");
        assert_eq!(projected, full);
    }

    #[test]
    fn a_reader_that_finds_a_name_finds_its_record() {
        // One thread admits agents without evicting. A reader probing the
        // agent being admitted right now must never find the name mapped
        // to a domain whose record is missing.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const AGENTS: usize = 100_000;
        let db = Arc::new(DomainDatabase::new());
        let agents: Arc<Vec<Urn>> = Arc::new(
            (0..AGENTS)
                .map(|i| Urn::agent("umn.edu", [format!("a{i}")]).unwrap())
                .collect(),
        );
        let admitted = Arc::new(AtomicUsize::new(0));
        let writer = {
            let (db, agents, admitted) =
                (Arc::clone(&db), Arc::clone(&agents), Arc::clone(&admitted));
            std::thread::spawn(move || {
                let (_, o, c, h) = names();
                for (i, agent) in agents.iter().enumerate() {
                    db.admit(
                        DomainId::SERVER,
                        agent.clone(),
                        o.clone(),
                        c.clone(),
                        h.clone(),
                        Rights::none(),
                        UsageLimits::default(),
                    )
                    .unwrap();
                    admitted.store(i + 1, Ordering::Release);
                }
            })
        };
        let mut hits = 0usize;
        loop {
            let next = admitted.load(Ordering::Acquire);
            if next == AGENTS {
                break;
            }
            if let Some(d) = db.domain_of(&agents[next]) {
                assert!(
                    db.record(d).is_some(),
                    "{} maps to {d}, which has no record",
                    agents[next]
                );
                hits += 1;
            }
        }
        writer.join().unwrap();
        assert_eq!(db.len(), AGENTS);
        assert!(db
            .iter()
            .map(|r| r.domain)
            .eq((1..=AGENTS as u64).map(DomainId)));
        // The probe must have raced some admissions to mean anything.
        assert!(hits > 0, "the reader never caught an admission in flight");
    }

    #[test]
    fn display_formats() {
        assert_eq!(DomainId::SERVER.to_string(), "domain[server]");
        assert_eq!(DomainId(3).to_string(), "domain[3]");
    }
}
