//! Property tests for the durability layer: the `AgentBundle` encoding
//! round-trips exactly (warm or cold), decoding arbitrary bytes is
//! total, and WAL recovery is idempotent — replaying a log any number
//! of times admits each `(agent, hop)` at most once and never
//! resurrects a resolved admission. A torn tail (the crash the WAL
//! exists for) loses only the torn record, never the intact prefix. The
//! one-pass `recover` agrees with a quadratic reference model on random
//! logs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ajanta_core::credentials::CredentialsBuilder;
use ajanta_core::Rights;
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair};
use ajanta_naming::Urn;
use ajanta_runtime::wal::{AdmissionWal, WalRecord};
use ajanta_runtime::{AgentBundle, SpanContext, SpanId, TraceId, WarmState, BUNDLE_VERSION};
use ajanta_vm::{assemble, AgentImage, FrameState, InterpState, Value};
use ajanta_wire::Wire;
use proptest::prelude::*;

/// A fresh scratch path per proptest case (cases run concurrently).
fn scratch() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ajanta-wal-props-{}-{n}.log", std::process::id()))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
    ]
}

fn frame() -> impl Strategy<Value = FrameState> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(value(), 0..4),
        proptest::collection::vec(value(), 0..4),
    )
        .prop_map(|(func, ip, locals, stack)| FrameState {
            func,
            ip,
            locals,
            stack,
        })
}

fn warm_state() -> impl Strategy<Value = WarmState> {
    (
        proptest::collection::vec(value(), 0..4),
        proptest::collection::vec(frame(), 0..3),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(
            |(
                globals,
                frames,
                (fuel_used, alloc_used, host_calls),
                rng_state,
                children,
                last_sender,
            )| {
                WarmState {
                    interp: InterpState {
                        globals,
                        fuel_used,
                        alloc_used,
                        host_calls,
                        frames,
                    },
                    rng_state,
                    children,
                    last_sender,
                }
            },
        )
}

/// A structurally valid bundle: real signed credentials (the decoder
/// parses the signature layout even though round-trip never verifies
/// it), a tiny assembled module, and arbitrary dynamic state.
fn bundle() -> impl Strategy<Value = AgentBundle> {
    (
        any::<u64>(),
        "[a-z]{1,8}",
        1u64..1000,
        proptest::collection::vec(any::<u8>(), 0..32),
        (any::<u64>(), any::<u64>()),
        proptest::option::of(warm_state()),
    )
        .prop_map(|(seed, name, hop, arg, (trace, span), warm)| {
            let mut rng = DetRng::new(seed);
            let ca = KeyPair::generate(&mut rng);
            let keys = KeyPair::generate(&mut rng);
            let owner = Urn::owner("x.org", [name.as_str()]).unwrap();
            let cert = Certificate::issue(
                owner.to_string(),
                keys.public,
                "ca",
                &ca,
                u64::MAX,
                1,
                &mut rng,
            );
            let credentials =
                CredentialsBuilder::new(Urn::agent("x.org", [name.as_str(), "0"]).unwrap(), owner)
                    .owner_chain(vec![cert])
                    .delegate(Rights::all())
                    .sign(&keys, &mut rng);
            let module = assemble(
                r#"
                    module tiny
                    func run(arg: bytes) -> int
                      push 1
                      ret
                "#,
            )
            .expect("fixture assembles");
            AgentBundle {
                agent: Urn::agent("x.org", [name.as_str(), "0"]).unwrap(),
                hop,
                credentials,
                image: AgentImage {
                    module,
                    globals: vec![],
                    entry: "run".into(),
                },
                arg,
                ctx: SpanContext::root(TraceId(trace), SpanId(span)),
                warm,
            }
        })
}

fn key(b: &AgentBundle) -> (Urn, u64) {
    (b.agent.clone(), b.hop)
}

/// The reference model of `AdmissionWal::recover`: the original
/// quadratic algorithm, a `retain` over the open admissions per record
/// and a linear scan of the resolved keys per resolution.
fn reference_recover(records: Vec<WalRecord>) -> (Vec<(Urn, u64)>, Vec<AgentBundle>) {
    let mut resolved: Vec<(Urn, u64)> = Vec::new();
    let mut admitted: Vec<AgentBundle> = Vec::new();
    for record in records {
        match record {
            WalRecord::Admit(bundle) => {
                admitted.retain(|b| !(b.agent == bundle.agent && b.hop == bundle.hop));
                admitted.push(*bundle);
            }
            WalRecord::Resolve { agent, hop } => {
                admitted.retain(|b| !(b.agent == agent && b.hop == hop));
                if !resolved.iter().any(|(a, h)| *a == agent && *h == hop) {
                    resolved.push((agent, hop));
                }
            }
        }
    }
    (resolved, admitted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode ∘ decode is the identity on any bundle — warm or cold,
    /// mid-call-stack or idle. This is the contract hibernation and
    /// WAL replay both stand on.
    #[test]
    fn agent_bundle_roundtrips(b in bundle()) {
        let bytes = b.to_bytes();
        let decoded = AgentBundle::from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &b);
        // Re-encoding is canonical.
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Decoding is total: arbitrary bytes either parse or produce a
    /// typed error — never a panic.
    #[test]
    fn agent_bundle_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        match AgentBundle::from_bytes(&bytes) {
            Ok(b) => {
                let again = AgentBundle::from_bytes(&b.to_bytes()).expect("re-encoding decodes");
                prop_assert_eq!(again, b);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// An unknown version byte is rejected up front with an error that
    /// names the version, not misparsed as the current layout.
    #[test]
    fn agent_bundle_rejects_unknown_versions(b in bundle(), v in any::<u8>()) {
        prop_assume!(v != BUNDLE_VERSION);
        let mut bytes = b.to_bytes();
        bytes[0] = v;
        match AgentBundle::from_bytes(&bytes) {
            Err(ajanta_wire::WireError::BadTag { ty, tag }) => {
                prop_assert!(ty.contains("version"), "error names the version field: {ty}");
                prop_assert_eq!(tag, v);
            }
            other => prop_assert!(false, "expected BadTag, got {:?}", other.map(|_| "Ok")),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random logs over a few keys — duplicate admissions, resolves
    /// of keys never admitted, repeated resolves, and re-admissions
    /// after a resolve — `recover` returns exactly what the reference
    /// model does: the same resolved keys in the same order, and the
    /// same open bundles (the newest per key) in the same order.
    #[test]
    fn wal_recover_matches_the_reference_model(
        template in bundle(),
        ops in proptest::collection::vec((any::<bool>(), 0u8..5, 0u64..3), 0..80),
    ) {
        let records: Vec<WalRecord> = ops
            .iter()
            .enumerate()
            .map(|(pos, &(admit, agent, hop))| {
                let agent = Urn::agent("x.org", [format!("a{agent}")]).unwrap();
                if admit {
                    // The position tags each bundle, so a stale one
                    // kept in place of the newest shows.
                    let mut b = template.clone();
                    b.agent = agent;
                    b.hop = hop;
                    b.arg = (pos as u64).to_le_bytes().to_vec();
                    WalRecord::Admit(Box::new(b))
                } else {
                    WalRecord::Resolve { agent, hop }
                }
            })
            .collect();
        let (resolved, unresolved) = reference_recover(records.clone());
        let got = AdmissionWal::recover(records);
        prop_assert_eq!(got.resolved, resolved);
        prop_assert_eq!(got.unresolved, unresolved);
    }
}

proptest! {
    // Each case touches the filesystem; fewer, richer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery is idempotent under arbitrary log duplication: a log
    /// whose whole record sequence was appended `copies` times (the
    /// crash-during-replay shape) recovers each `(agent, hop)` at most
    /// once, and resolved keys never come back as unresolved.
    #[test]
    fn wal_recovery_is_idempotent(
        bundles in proptest::collection::vec(bundle(), 1..4),
        resolve_mask in proptest::collection::vec(any::<bool>(), 4),
        copies in 1usize..4,
    ) {
        // Distinct (agent, hop) keys; duplicate generated keys collapse.
        let mut seen = std::collections::BTreeSet::new();
        let bundles: Vec<_> = bundles
            .into_iter()
            .filter(|b| seen.insert(key(b)))
            .collect();

        let path = scratch();
        let wal = AdmissionWal::open(&path).expect("wal opens");
        for _ in 0..copies {
            for (i, b) in bundles.iter().enumerate() {
                wal.append(&WalRecord::Admit(Box::new(b.clone()))).expect("admit appends");
                if resolve_mask[i] {
                    let (agent, hop) = key(b);
                    wal.append(&WalRecord::Resolve { agent, hop }).expect("resolve appends");
                }
            }
        }
        drop(wal);

        let recovery = AdmissionWal::recover(AdmissionWal::replay(&path).expect("replays"));
        let unresolved: Vec<_> = recovery.unresolved.iter().map(key).collect();
        let resolved: std::collections::BTreeSet<_> = recovery.resolved.iter().cloned().collect();
        for (i, b) in bundles.iter().enumerate() {
            let k = key(b);
            if resolve_mask[i] {
                prop_assert!(resolved.contains(&k), "resolved key survives recovery");
                prop_assert!(!unresolved.contains(&k), "resolved key must not replay");
            } else {
                // An unresolved key replays exactly once no matter how
                // many copies of the log were concatenated.
                prop_assert_eq!(unresolved.iter().filter(|u| **u == k).count(), 1);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A torn tail — the file cut mid-record by a crash — loses only
    /// the torn record: replay still returns every intact record.
    #[test]
    fn wal_replay_tolerates_torn_tail(
        bundles in proptest::collection::vec(bundle(), 2..4),
        cut_seed in any::<usize>(),
    ) {
        let path = scratch();
        let wal = AdmissionWal::open(&path).expect("wal opens");
        let mut last_start = 0u64;
        for b in &bundles {
            last_start = std::fs::metadata(&path).expect("stat").len();
            wal.append(&WalRecord::Admit(Box::new(b.clone()))).expect("appends");
        }
        drop(wal);

        let full = std::fs::read(&path).expect("read log");
        let tail = full.len() - last_start as usize;
        // Cut somewhere inside the final record (1..tail bytes short).
        let cut = 1 + cut_seed % tail.max(1);
        let torn = &full[..full.len() - cut.min(tail)];
        std::fs::write(&path, torn).expect("write torn log");

        let records = AdmissionWal::replay(&path).expect("torn log still replays");
        // Only the torn record is lost.
        prop_assert_eq!(records.len(), bundles.len() - 1);
        for (record, b) in records.iter().zip(&bundles) {
            match record {
                WalRecord::Admit(got) => prop_assert_eq!(got.as_ref(), b),
                other => prop_assert!(false, "expected Admit, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
