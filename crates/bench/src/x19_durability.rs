//! X19 — durability: what hibernation buys and what WAL replay costs.
//!
//! Two measurements:
//!
//! 1. **Hibernate/wake cycle.** A warm interpreter suspended mid-run
//!    (call stack parked, a churned byte accumulator in its globals) is
//!    exported → [`WarmState`] → [`AgentBundle`] → [`BundleStore::put`]
//!    (the hibernate path), then `take` → decode → `import_state` (the
//!    wake path) — the exact serialization round trip the runtime's
//!    hibernation performs. Reported: mean ns each way and the memory
//!    trade — the warm agent's resident footprint (interpreter heap
//!    estimate plus the image and credentials the server keeps for a
//!    resident agent) versus the single serialized buffer a hibernated
//!    agent holds instead.
//! 2. **WAL replay.** A log of `records` unresolved admissions is
//!    replayed and recovered the way a restarted server does at boot;
//!    reported as records/s.
//!
//! Latency numbers are wall-clock and machine-dependent; the byte
//! numbers are exact and seed-stable.

use std::sync::Arc;
use std::time::Instant;

use ajanta_core::credentials::CredentialsBuilder;
use ajanta_core::telemetry::{SpanContext, SpanId, TraceId};
use ajanta_core::{Credentials, Rights};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair};
use ajanta_naming::Urn;
use ajanta_runtime::wal::{AdmissionWal, WalRecord};
use ajanta_runtime::{AgentBundle, BundleStore, WarmState};
use ajanta_vm::{assemble, verify, AgentImage, Interpreter, Limits, NoHost, SliceOutcome, Value};
use ajanta_wire::Wire;

/// An agent that churns a byte accumulator: each loop pass concatenates
/// a 16-byte chunk, so a mid-run suspension carries real mobile state.
const CHURN: &str = r#"
    module churn
    data chunk = "0123456789abcdef"
    global acc: bytes

    func main(arg: bytes) -> int
      locals i: int
      push 0
      store i
    loop:
      gload acc
      pushd chunk
      bconcat
      gstore acc
      load i
      push 1
      add
      store i
      load i
      push 512
      lt
      jz done
      jump loop
    done:
      push 0
      ret
"#;

/// One hibernate/wake measurement against one bundle store.
#[derive(Debug, Clone)]
pub struct CycleRow {
    /// The store measured ("in-memory").
    pub store: &'static str,
    /// Hibernate/wake round trips measured.
    pub cycles: u64,
    /// What a warm resident agent holds: interpreter heap estimate plus
    /// the encoded image and credentials the server keeps for it.
    pub warm_bytes: u64,
    /// What the hibernated agent holds instead: its serialized bundle.
    pub bundle_bytes: u64,
    /// Mean ns to serialize + store (the hibernate path).
    pub hibernate_ns: f64,
    /// Mean ns to take + decode + `import_state` (the wake path).
    pub wake_ns: f64,
}

/// The WAL replay measurement.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Admission records in the log.
    pub records: u64,
    /// Wall ns for replay + recovery.
    pub wall_ns: u64,
    /// Unresolved bundles recovery handed back for re-admission.
    pub readmitted: u64,
}

impl ReplayRow {
    /// Records recovered per wall-clock second.
    pub fn records_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.records as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Mints one signed credential set off a deterministic CA, same shape
/// as the runtime's world builder.
fn credentials(agent: &Urn, seed: u64) -> Credentials {
    let mut rng = DetRng::new(seed);
    let ca = KeyPair::generate(&mut rng);
    let keys = KeyPair::generate(&mut rng);
    let owner = Urn::owner("x19.test", ["bench"]).unwrap();
    let cert = Certificate::issue(
        owner.to_string(),
        keys.public,
        "ca",
        &ca,
        u64::MAX,
        1,
        &mut rng,
    );
    CredentialsBuilder::new(agent.clone(), owner)
        .owner_chain(vec![cert])
        .delegate(Rights::all())
        .sign(&keys, &mut rng)
}

/// Builds the warm fixture: a suspended mid-churn interpreter and the
/// bundle that hibernating it produces. Returns the bundle, the warm
/// resident byte estimate, and the verified module wakes resume on.
fn warm_fixture() -> (AgentBundle, u64, Arc<ajanta_vm::VerifiedModule>) {
    let module = assemble(CHURN).expect("churn assembles");
    let image = AgentImage {
        module: module.clone(),
        globals: vec![Value::Bytes(vec![])],
        entry: "main".into(),
    };
    image.validate().expect("churn image is consistent");
    let verified = Arc::new(verify(module).expect("churn verifies"));

    let limits = Limits::default();
    let mut interp = Interpreter::new(Arc::clone(&verified), limits);
    interp.start("main", vec![Value::Bytes(vec![])]);
    // Run most of the churn, then park mid-loop: the suspension carries
    // a multi-KiB accumulator plus live locals, like a real idle agent
    // that did work before going quiet.
    for _ in 0..40 {
        match interp.run_slice(100, &mut NoHost) {
            SliceOutcome::Yielded => {}
            SliceOutcome::Done(_) => panic!("churn finished before suspension"),
        }
    }

    let agent = Urn::agent("x19.test", ["bench", "0"]).unwrap();
    let credentials = credentials(&agent, 0x19);
    let warm_bytes =
        (interp.approx_mem_bytes() + image.to_bytes().len() + credentials.to_bytes().len()) as u64;
    let bundle = AgentBundle {
        agent,
        hop: 3,
        credentials,
        image,
        arg: Vec::new(),
        ctx: SpanContext::root(TraceId(0x19), SpanId(1)),
        warm: Some(WarmState {
            interp: interp.export_state(),
            rng_state: 0x5eed,
            children: 1,
            last_sender: Vec::new(),
        }),
    };
    (bundle, warm_bytes, verified)
}

/// Measures `cycles` hibernate/wake round trips against `store`.
fn cycle_trial(store: &BundleStore, label: &'static str, cycles: u64) -> CycleRow {
    let (bundle, warm_bytes, verified) = warm_fixture();
    let limits = Limits::default();
    let mut bundle_bytes = 0u64;
    let mut hibernate_ns = 0u64;
    let mut wake_ns = 0u64;
    let mut sink = 0usize;
    for _ in 0..cycles {
        let t0 = Instant::now();
        bundle_bytes = store.put(&bundle) as u64;
        hibernate_ns += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let woken = store.take(&bundle.agent).expect("bundle comes back");
        let warm = woken.warm.expect("fixture is warm");
        let resumed = Interpreter::import_state(Arc::clone(&verified), limits, warm.interp)
            .expect("snapshot re-validates");
        wake_ns += t1.elapsed().as_nanos() as u64;
        sink += resumed.approx_mem_bytes();
    }
    assert!(sink > 0, "woken interpreters have resident state");
    CycleRow {
        store: label,
        cycles,
        warm_bytes,
        bundle_bytes,
        hibernate_ns: hibernate_ns as f64 / cycles.max(1) as f64,
        wake_ns: wake_ns as f64 / cycles.max(1) as f64,
    }
}

/// Replays a WAL of `records` unresolved admissions, timing what a
/// restarted server pays at boot.
fn replay_trial(records: u64) -> ReplayRow {
    let (bundle, _, _) = warm_fixture();
    let path = std::env::temp_dir().join(format!("ajanta-x19-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal = AdmissionWal::open(&path).expect("wal opens");
    for hop in 0..records {
        let mut b = bundle.clone();
        b.hop = hop;
        wal.append(&WalRecord::Admit(Box::new(b))).expect("appends");
    }
    drop(wal);

    let t0 = Instant::now();
    let replayed = AdmissionWal::replay(&path).expect("replays");
    let recovery = AdmissionWal::recover(replayed);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_file(&path);
    ReplayRow {
        records,
        wall_ns,
        readmitted: recovery.unresolved.len() as u64,
    }
}

/// Runs the full experiment: the hibernate/wake cycle, then the WAL
/// replay.
pub fn run(cycles: u64, wal_records: u64) -> (Vec<CycleRow>, ReplayRow) {
    let rows = vec![cycle_trial(&BundleStore::in_memory(), "in-memory", cycles)];
    (rows, replay_trial(wal_records))
}

/// Renders both tables; the ratio column is the memory the hibernated
/// agent holds as a fraction of its warm resident footprint.
pub fn table(rows: &[CycleRow], replay: &ReplayRow) -> String {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let ratio = if r.warm_bytes > 0 {
                format!(
                    "{:.0}%",
                    100.0 * r.bundle_bytes as f64 / r.warm_bytes as f64
                )
            } else {
                "-".into()
            };
            vec![
                r.store.to_string(),
                crate::fmt_bytes(r.warm_bytes),
                crate::fmt_bytes(r.bundle_bytes),
                ratio,
                crate::fmt_ns(r.hibernate_ns),
                crate::fmt_ns(r.wake_ns),
            ]
        })
        .collect();
    let mut out = crate::render_table(
        &format!(
            "X19 — durability: hibernate/wake cycle, {} round trips \
             (bytes exact; latency wall-clock)",
            rows.first().map_or(0, |r| r.cycles)
        ),
        &[
            "bundle store",
            "warm resident",
            "hibernated",
            "ratio",
            "hibernate",
            "wake",
        ],
        &rendered,
    );
    out.push('\n');
    out.push_str(&crate::render_table(
        "X19 — durability: WAL replay at restart",
        &["records", "replay wall", "records/s", "readmitted"],
        &[vec![
            replay.records.to_string(),
            crate::fmt_ns(replay.wall_ns as f64),
            format!("{:.0}", replay.records_per_s()),
            replay.readmitted.to_string(),
        ]],
    ));
    out
}

/// Machine-readable summary for the CI artifact (`X19_JSON=<path>`).
pub fn json_summary(rows: &[CycleRow], replay: &ReplayRow) -> String {
    let mut out = String::from("{\n  \"cycle\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"store\": \"{}\", \"cycles\": {}, \"warm_bytes\": {}, \
             \"bundle_bytes\": {}, \"hibernate_ns\": {:.0}, \"wake_ns\": {:.0}}}{}\n",
            r.store,
            r.cycles,
            r.warm_bytes,
            r.bundle_bytes,
            r.hibernate_ns,
            r.wake_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"wal\": {{\"records\": {}, \"wall_ms\": {:.3}, \
         \"records_per_s\": {:.1}, \"readmitted\": {}}}\n}}\n",
        replay.records,
        replay.wall_ns as f64 / 1e6,
        replay.records_per_s(),
        replay.readmitted,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claim: a hibernated idle agent holds strictly
    /// less memory than it did warm, and the cycle numbers are sane.
    #[test]
    fn hibernated_agent_is_smaller_than_warm() {
        let (rows, replay) = run(8, 64);
        assert_eq!(rows.len(), 1);
        for r in &rows {
            assert!(
                r.bundle_bytes < r.warm_bytes,
                "{}: hibernated bundle ({} B) must undercut warm residency ({} B)",
                r.store,
                r.bundle_bytes,
                r.warm_bytes
            );
            assert!(r.bundle_bytes > 0 && r.hibernate_ns > 0.0 && r.wake_ns > 0.0);
        }
        // Every logged admission was unresolved, so all replay.
        assert_eq!(replay.readmitted, replay.records);
        assert!(replay.records_per_s() > 0.0);
        let json = json_summary(&rows, &replay);
        assert!(json.contains("\"store\": \"in-memory\""));
        assert!(json.contains("\"records_per_s\""));
        let rendered = table(&rows, &replay);
        assert!(rendered.contains("X19"));
    }
}
