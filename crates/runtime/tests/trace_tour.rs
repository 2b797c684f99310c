//! Acceptance test for the causal tracing layer: a 32-agent tour over a
//! link dropping 20% of all frames must still reconstruct into complete
//! trace trees — every span reachable from its tour's root dispatch,
//! zero orphans — with retries attached as children of the transfer
//! they re-drove, and all five latency histograms non-degenerate.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_core::{BoundedBuffer, Guarded, ProxyPolicy, Rights};
use ajanta_naming::Urn;
use ajanta_net::LinkFault;
use ajanta_runtime::itinerary::Itinerary;
use ajanta_runtime::multiproc::tourist_image;
use ajanta_runtime::{
    scan_anomalies, Anomaly, Counter, HistoPath, ReportStatus, RetryPolicy, SpanKind, TraceForest,
    World,
};

#[test]
fn lossy_tour_reconstructs_complete_trace_trees() {
    const AGENTS: usize = 32;
    const STOPS: usize = 5;
    let mut world = World::builder(6)
        .retry(RetryPolicy {
            max_attempts: 14,
            ack_grace: Duration::from_millis(10),
        })
        .journal_capacity(1 << 16)
        .build();
    let fault = Arc::new(LinkFault::new(0xFA17_0001, 0.20));
    world.net.set_adversary(Some(fault.clone()));

    // Every visited server hosts its own `jobs` buffer under the same
    // URN, so the carried resource name resolves at each stop.
    for i in 1..=STOPS {
        let buf = BoundedBuffer::new(
            Urn::resource("tour.org", ["jobs"]).unwrap(),
            Urn::owner("tour.org", ["admin"]).unwrap(),
            2 * AGENTS,
        );
        world
            .server(i)
            .register_resource(Guarded::new(buf, ProxyPolicy::default()))
            .unwrap();
    }

    let mut owner = world.owner("traveler");
    let home = world.server(0).name().clone();
    let tour = Itinerary::new((1..=STOPS).map(|i| world.server(i).name().clone()));
    let mut launched = HashSet::new();
    for _ in 0..AGENTS {
        let agent = owner.next_agent_name("tracer");
        launched.insert(agent.clone());
        let creds = owner.credentials(agent, home.clone(), Rights::all(), u64::MAX);
        world
            .server(0)
            .launch_tour(&tour, creds, tourist_image(&tour));
    }

    let reports = world
        .server(0)
        .wait_agents(AGENTS, Duration::from_secs(120));
    let reported: HashSet<_> = reports.iter().map(|r| r.agent.clone()).collect();
    assert_eq!(reported, launched, "every agent must report home");
    let completed = reports
        .iter()
        .filter(|r| matches!(r.status, ReportStatus::Completed(_)))
        .count();
    assert!(completed > 0, "at least some tours must complete cleanly");
    assert!(fault.dropped_count() > 0, "adversary never dropped a frame");

    // Quiesce before exporting: a Transfer span is journaled when its
    // leg resolves (ack or dead-stop), so wait for every in-flight
    // reliable send to drain — otherwise the export can race a leg whose
    // Retry spans are journaled but whose Transfer span is still open.
    // Quiescence = zero pending sends AND no new spans across a settle
    // window (an entry leaves the pending map a beat before its span is
    // appended, so the count alone can lie for a few microseconds).
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let pending: usize = world.servers.iter().map(|s| s.pending_send_count()).sum();
        let spans: u64 = world
            .servers
            .iter()
            .map(|s| s.journal().counter(Counter::SpansRecorded))
            .sum();
        std::thread::sleep(Duration::from_millis(10));
        let pending_after: usize = world.servers.iter().map(|s| s.pending_send_count()).sum();
        let spans_after: u64 = world
            .servers
            .iter()
            .map(|s| s.journal().counter(Counter::SpansRecorded))
            .sum();
        if pending == 0 && pending_after == 0 && spans == spans_after {
            break;
        }
        assert!(
            Instant::now() < drain_deadline,
            "reliable sends never drained"
        );
    }

    // Reconstruct: merge every server's JSONL export and build the
    // forest, exactly as `ajantactl trace` would offline.
    let jsonl = world.export_traces();
    let records = ajanta_core::trace::parse_jsonl(&jsonl).expect("exported JSONL parses");
    let forest = TraceForest::build(records);

    // One trace per launched agent, and — the tentpole invariant — every
    // span in every journal links back to its root: zero orphans.
    assert_eq!(forest.traces.len(), AGENTS, "one trace per tour");
    for (trace, tree) in &forest.traces {
        for &i in &tree.orphans {
            let s = &tree.spans[i];
            eprintln!(
                "ORPHAN trace={trace} span={} parent={:?} kind={} server={} detail={}",
                s.span, s.parent, s.kind, s.server, s.detail
            );
        }
    }
    assert_eq!(
        forest.orphan_count(),
        0,
        "a complete journal merge must leave no orphan spans"
    );
    for anomaly in scan_anomalies(&forest, 14) {
        assert!(
            !matches!(anomaly, Anomaly::OrphanSpan { .. }),
            "unexpected orphan anomaly: {anomaly}"
        );
    }

    // Retries must have fired under 20% loss, and every Retry span must
    // hang off the Transfer leg it re-drove.
    let mut retries = 0usize;
    for tree in forest.traces.values() {
        for span in &tree.spans {
            if span.kind == SpanKind::Retry {
                retries += 1;
                let parent = span.parent.expect("retry spans are never roots");
                let parent = tree.span(parent).expect("retry parent resolves");
                assert!(
                    matches!(parent.kind, SpanKind::Transfer | SpanKind::Report),
                    "retry must be a child of the leg it re-drove, got {}",
                    parent.kind
                );
            }
        }
    }
    assert!(retries > 0, "20% loss must produce Retry spans");

    // Every trace saw admissions, binds, and accesses along the tour.
    for (trace, tree) in &forest.traces {
        let kinds: HashSet<SpanKind> = tree.spans.iter().map(|s| s.kind).collect();
        for want in [
            SpanKind::Dispatch,
            SpanKind::Transfer,
            SpanKind::Admission,
            SpanKind::Bind,
            SpanKind::Access,
            SpanKind::Report,
        ] {
            assert!(kinds.contains(&want), "trace {trace} is missing {want}");
        }
    }

    // All five hot-path histograms are non-degenerate once merged across
    // the world: populated, ordered quantiles, a real maximum.
    for path in [
        HistoPath::ProxyCheck,
        HistoPath::Bind,
        HistoPath::TransferRtt,
        HistoPath::RetryBackoff,
        HistoPath::HopLatency,
    ] {
        let snap = world.merged_histos(path);
        let (p50, p99) = (snap.quantile(0.50), snap.quantile(0.99));
        assert!(snap.count > 0, "{} histogram is empty", path.name());
        assert!(snap.max > 0, "{} histogram max is zero", path.name());
        assert!(p50 > 0, "{} p50 degenerate", path.name());
        assert!(
            p99 >= p50,
            "{} quantiles out of order: p99 {p99} < p50 {p50}",
            path.name()
        );
    }
    world.shutdown();
}
