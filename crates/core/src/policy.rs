//! The server's security policy (paper Sections 5.2, 5.5).
//!
//! Authorization — *"mechanisms to agent servers for specifying restricted
//! access rights for agents"* — is a function from the authenticated facts
//! about a principal to [`Rights`]. The policy here grants by:
//!
//! * exact principal name (the agent's owner, or the agent itself);
//! * **group** membership — *"a set of principals may be aggregated
//!   together in a group to represent a common role"* (Section 2);
//! * name subtree (e.g. every owner at `umn.edu`);
//! * a default for anybody who authenticates.
//!
//! The effective authorization handed to the domain database is
//! `policy_rights(owner ∪ agent ∪ groups) ∩ delegated` — the server's view
//! intersected with what the owner delegated, so neither side alone can
//! grant more than both agree on.

use std::collections::BTreeMap;

use ajanta_naming::Urn;

use crate::rights::Rights;

/// Who a policy rule applies to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrincipalPattern {
    /// Exactly this principal (owner or agent name).
    Exact(Urn),
    /// Members of this group.
    Group(Urn),
    /// Any principal within this name subtree.
    Subtree(Urn),
    /// Every authenticated principal.
    Anyone,
}

/// Group membership directory.
///
/// Groups contain principals; membership is consulted at authorization
/// time, so changing a group immediately affects future `get_proxy`
/// decisions (but not proxies already issued — revoke those explicitly).
#[derive(Debug, Default, Clone)]
pub struct Groups {
    members: BTreeMap<Urn, Vec<Urn>>,
}

impl Groups {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `member` to `group` (creating the group as needed).
    pub fn add(&mut self, group: Urn, member: Urn) {
        let members = self.members.entry(group).or_default();
        if !members.contains(&member) {
            members.push(member);
        }
    }

    /// Removes `member` from `group`. Returns whether it was present.
    pub fn remove(&mut self, group: &Urn, member: &Urn) -> bool {
        match self.members.get_mut(group) {
            Some(ms) => {
                let before = ms.len();
                ms.retain(|m| m != member);
                ms.len() != before
            }
            None => false,
        }
    }

    /// Whether `member` is in `group`.
    pub fn contains(&self, group: &Urn, member: &Urn) -> bool {
        self.members
            .get(group)
            .is_some_and(|ms| ms.contains(member))
    }

    /// All groups `member` belongs to.
    pub fn groups_of<'a>(&'a self, member: &'a Urn) -> impl Iterator<Item = &'a Urn> + 'a {
        self.members
            .iter()
            .filter(move |(_, ms)| ms.contains(member))
            .map(|(g, _)| g)
    }
}

/// A server's authorization policy.
#[derive(Debug, Default, Clone)]
pub struct SecurityPolicy {
    rules: Vec<(PrincipalPattern, Rights)>,
    groups: Groups,
}

impl SecurityPolicy {
    /// An empty policy: authenticated principals get no rights (deny by
    /// default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder-style).
    pub fn allow(mut self, who: PrincipalPattern, rights: Rights) -> Self {
        self.add_rule(who, rights);
        self
    }

    /// Adds a rule in place (for policies that change at runtime —
    /// Section 5.1: "security policies of such resources can be
    /// dynamically modified by their owners").
    pub fn add_rule(&mut self, who: PrincipalPattern, rights: Rights) {
        self.rules.push((who, rights));
    }

    /// Removes all rules matching a pattern; returns how many were
    /// removed.
    pub fn remove_rules(&mut self, who: &PrincipalPattern) -> usize {
        let before = self.rules.len();
        self.rules.retain(|(w, _)| w != who);
        before - self.rules.len()
    }

    /// Mutable access to the group directory.
    pub fn groups_mut(&mut self) -> &mut Groups {
        &mut self.groups
    }

    /// The group directory.
    pub fn groups(&self) -> &Groups {
        &self.groups
    }

    /// Rights this policy grants to an agent with the given (verified)
    /// identities. The union over all matching rules, for any of the
    /// presented principals (agent name and owner).
    pub fn rights_for(&self, agent: &Urn, owner: &Urn) -> Rights {
        let mut acc = Rights::none();
        for (pattern, rights) in &self.rules {
            let matches = match pattern {
                PrincipalPattern::Exact(p) => p == agent || p == owner,
                PrincipalPattern::Group(g) => {
                    self.groups.contains(g, agent) || self.groups.contains(g, owner)
                }
                PrincipalPattern::Subtree(root) => agent.is_within(root) || owner.is_within(root),
                PrincipalPattern::Anyone => true,
            };
            if matches {
                acc = acc.union(rights);
            }
        }
        acc
    }

    /// The full authorization pipeline: server policy ∩ owner delegation.
    pub fn authorize(&self, agent: &Urn, owner: &Urn, delegated: &Rights) -> Rights {
        self.rights_for(agent, owner).intersect(delegated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(n: &str) -> Urn {
        Urn::owner("umn.edu", [n]).unwrap()
    }
    fn agent(n: &str) -> Urn {
        Urn::agent("umn.edu", ["tour", n]).unwrap()
    }
    fn res(n: &str) -> Urn {
        Urn::resource("acme.com", [n]).unwrap()
    }
    fn group(n: &str) -> Urn {
        Urn::group("acme.com", [n]).unwrap()
    }

    #[test]
    fn deny_by_default() {
        let p = SecurityPolicy::new();
        assert!(p.rights_for(&agent("a"), &owner("alice")).is_none());
    }

    #[test]
    fn exact_rule_matches_owner_or_agent() {
        let p = SecurityPolicy::new().allow(
            PrincipalPattern::Exact(owner("alice")),
            Rights::on_resource(res("db")),
        );
        let r = p.rights_for(&agent("a"), &owner("alice"));
        assert!(r.permits(&res("db"), "query"));
        assert!(p.rights_for(&agent("a"), &owner("bob")).is_none());

        let p2 = SecurityPolicy::new().allow(
            PrincipalPattern::Exact(agent("a")),
            Rights::on_resource(res("db")),
        );
        assert!(p2
            .rights_for(&agent("a"), &owner("bob"))
            .permits(&res("db"), "query"));
    }

    #[test]
    fn group_rule_follows_membership() {
        let mut p = SecurityPolicy::new().allow(
            PrincipalPattern::Group(group("customers")),
            Rights::on_resource(res("catalog")),
        );
        p.groups_mut().add(group("customers"), owner("alice"));
        assert!(p
            .rights_for(&agent("a"), &owner("alice"))
            .permits(&res("catalog"), "query"));
        assert!(p.rights_for(&agent("a"), &owner("eve")).is_none());

        // Membership changes take effect immediately.
        p.groups_mut().remove(&group("customers"), &owner("alice"));
        assert!(p.rights_for(&agent("a"), &owner("alice")).is_none());
    }

    #[test]
    fn subtree_rule_covers_organization() {
        let root = Urn::owner("umn.edu", ["staff"]).unwrap();
        let p = SecurityPolicy::new().allow(
            PrincipalPattern::Subtree(root.clone()),
            Rights::on_resource(res("db")),
        );
        let staff_member = root.child("carol").unwrap();
        assert!(p
            .rights_for(&agent("a"), &staff_member)
            .permits(&res("db"), "q"));
        assert!(p.rights_for(&agent("a"), &owner("outsider")).is_none());
    }

    #[test]
    fn anyone_rule_is_a_floor() {
        let p = SecurityPolicy::new().allow(
            PrincipalPattern::Anyone,
            Rights::none().grant_method(res("catalog"), "query"),
        );
        let r = p.rights_for(&agent("x"), &owner("stranger"));
        assert!(r.permits(&res("catalog"), "query"));
        assert!(!r.permits(&res("catalog"), "buy"));
    }

    #[test]
    fn rules_union() {
        let mut p = SecurityPolicy::new()
            .allow(PrincipalPattern::Anyone, Rights::on_resource(res("a")))
            .allow(
                PrincipalPattern::Exact(owner("alice")),
                Rights::on_resource(res("b")),
            );
        let r = p.rights_for(&agent("x"), &owner("alice"));
        assert!(r.permits(&res("a"), "m") && r.permits(&res("b"), "m"));
        // Removing the alice rule removes resource b.
        assert_eq!(p.remove_rules(&PrincipalPattern::Exact(owner("alice"))), 1);
        let r = p.rights_for(&agent("x"), &owner("alice"));
        assert!(r.permits(&res("a"), "m") && !r.permits(&res("b"), "m"));
    }

    #[test]
    fn authorize_intersects_delegation() {
        let p = SecurityPolicy::new().allow(
            PrincipalPattern::Exact(owner("alice")),
            Rights::on_subtree(Urn::resource("acme.com", ["catalog"]).unwrap()),
        );
        // Owner delegated only query on one sub-resource.
        let delegated = Rights::none().grant_method(
            Urn::resource("acme.com", ["catalog", "books"]).unwrap(),
            "query",
        );
        let eff = p.authorize(&agent("a"), &owner("alice"), &delegated);
        assert!(eff.permits(
            &Urn::resource("acme.com", ["catalog", "books"]).unwrap(),
            "query"
        ));
        // Server would have allowed "buy", but the owner did not delegate it.
        assert!(!eff.permits(
            &Urn::resource("acme.com", ["catalog", "books"]).unwrap(),
            "buy"
        ));
        // The owner delegated nothing outside the server's grant either.
        assert!(!eff.permits(&res("other"), "query"));
    }

    #[test]
    fn groups_of_lists_memberships() {
        let mut g = Groups::new();
        g.add(group("a"), owner("x"));
        g.add(group("b"), owner("x"));
        g.add(group("a"), owner("x")); // idempotent
        let x = owner("x");
        let gs: Vec<_> = g.groups_of(&x).collect();
        assert_eq!(gs.len(), 2);
        assert!(!g.remove(&group("zzz"), &owner("x")));
    }
}
