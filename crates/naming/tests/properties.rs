//! Property-based tests for the name grammar and registry.

use ajanta_naming::{NameKind, NameRegistry, Urn};
use proptest::prelude::*;

/// Strategy for canonical authority strings.
fn authority() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9][a-z0-9]{0,8}", 1..4).prop_map(|labels| labels.join("."))
}

/// Strategy for canonical path segments.
fn segment() -> impl Strategy<Value = String> {
    "[a-z0-9._-]{1,12}".prop_map(|s| s)
}

fn kind() -> impl Strategy<Value = NameKind> {
    prop::sample::select(NameKind::ALL.to_vec())
}

fn urn() -> impl Strategy<Value = Urn> {
    (
        authority(),
        kind(),
        proptest::collection::vec(segment(), 1..5),
    )
        .prop_map(|(a, k, p)| Urn::new(a, k, p).expect("strategy emits canonical components"))
}

proptest! {
    /// print → parse is the identity for every canonical name.
    #[test]
    fn display_parse_roundtrip(u in urn()) {
        let text = u.to_string();
        let back: Urn = text.parse().unwrap();
        prop_assert_eq!(back, u);
    }

    /// Parsing is injective on canonical forms: distinct names render
    /// distinctly.
    #[test]
    fn display_is_injective(a in urn(), b in urn()) {
        prop_assert_eq!(a == b, a.to_string() == b.to_string());
    }

    /// A child is always within its parent; siblings are not ancestors.
    #[test]
    fn child_within_parent(u in urn(), seg in segment()) {
        let child = u.child(&seg).unwrap();
        prop_assert!(child.is_within(&u));
        prop_assert!(child.is_within(&child));
        // The parent is within the child only if they are equal, which
        // cannot happen since the child has a strictly longer path.
        prop_assert!(!u.is_within(&child));
    }

    /// `is_within` is transitive along chains of children.
    #[test]
    fn within_is_transitive(u in urn(), s1 in segment(), s2 in segment()) {
        let c1 = u.child(&s1).unwrap();
        let c2 = c1.child(&s2).unwrap();
        prop_assert!(c2.is_within(&c1));
        prop_assert!(c1.is_within(&u));
        prop_assert!(c2.is_within(&u));
    }

    /// Ordering agrees with equality and is antisymmetric.
    #[test]
    fn ordering_consistent(a in urn(), b in urn()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }

    /// Sharing the name's parts changes none of its comparisons: `cmp`,
    /// `==`, the hash and the `Debug` text equal those of a plain struct
    /// with the same fields in the same order.
    #[test]
    fn shared_layout_compares_hashes_and_prints_as_plain_fields(a in urn(), b in urn()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        #[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        struct Urn {
            authority: String,
            kind: NameKind,
            path: Vec<String>,
        }
        fn plain(u: &ajanta_naming::Urn) -> Urn {
            Urn {
                authority: u.authority().to_string(),
                kind: u.kind(),
                path: u.path().to_vec(),
            }
        }
        fn hash<T: Hash>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }

        let (pa, pb) = (plain(&a), plain(&b));
        prop_assert_eq!(a.cmp(&b), pa.cmp(&pb));
        prop_assert_eq!(a == b, pa == pb);
        prop_assert_eq!(hash(&a), hash(&pa));
        prop_assert_eq!(format!("{a:?}"), format!("{pa:?}"));
        prop_assert_eq!(format!("{b:#?}"), format!("{pb:#?}"));
    }

    /// Registry: after a register, lookup returns the record; after an
    /// owner-authorized unregister, it does not; a wrong caller never
    /// changes the registry.
    #[test]
    fn registry_owner_gating(name in urn(), owner in urn(), thief in urn()) {
        prop_assume!(owner != thief);
        let mut reg = NameRegistry::new();
        reg.register(name.clone(), owner.clone(), "d").unwrap();
        prop_assert!(reg.lookup(&name).is_some());
        prop_assert!(reg.unregister(&name, &thief).is_err());
        prop_assert!(reg.lookup(&name).is_some());
        reg.unregister(&name, &owner).unwrap();
        prop_assert!(reg.lookup(&name).is_none());
    }

    /// Registry `find_within` returns exactly the subtree members.
    #[test]
    fn registry_find_within_exact(
        root in urn(),
        inside in proptest::collection::vec(segment(), 1..4),
        outside in urn(),
    ) {
        prop_assume!(!outside.is_within(&root));
        let mut reg = NameRegistry::new();
        let owner = Urn::owner("o.org", ["o"]).unwrap();
        let mut expected = 0usize;
        let mut n = root.clone();
        for seg in &inside {
            n = n.child(seg).unwrap();
            if reg.register(n.clone(), owner.clone(), "").is_ok() {
                expected += 1;
            }
        }
        let _ = reg.register(outside.clone(), owner.clone(), "");
        prop_assert_eq!(reg.find_within(&root).count(), expected);
    }
}
