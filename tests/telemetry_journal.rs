//! The telemetry journal's concurrency and bounding contract:
//!
//! * below capacity, concurrent appenders lose nothing;
//! * sequence numbers are unique and records collate in monotone order;
//! * a record is visible only with every lower seq, so a follower's
//!   `since` page is dense from its cursor even under concurrent appends;
//! * past capacity, memory stays bounded and every eviction is counted
//!   exactly — in the journal's own drop counter and in the server's
//!   end-to-end configuration.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use ajanta::core::telemetry::{Counter, Event, Journal, RejectKind};
use ajanta::core::Rights;
use ajanta::runtime::World;
use ajanta::vm::{assemble, AgentImage};

fn reject(n: u64) -> Event {
    Event::Rejected {
        kind: RejectKind::BadDatagram,
        detail: format!("synthetic #{n}"),
    }
}

/// Spawns `threads` appenders pushing `per_thread` events each.
fn hammer(journal: &Arc<Journal>, threads: u64, per_thread: u64) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let journal = Arc::clone(journal);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    journal.append(reject(t * per_thread + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_appends_lose_nothing_below_capacity() {
    let journal = Arc::new(Journal::with_capacity(8192));
    hammer(&journal, 8, 500);

    assert_eq!(journal.len(), 4000, "no event may be lost below capacity");
    assert_eq!(journal.dropped(), 0);
    assert_eq!(journal.counter(Counter::EventsAppended), 4000);
    assert_eq!(journal.counter(Counter::Rejections), 4000);

    // Sequence numbers are dense 0..4000 and the snapshot collates them
    // in strictly increasing order.
    let seqs: Vec<u64> = journal.snapshot().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..4000).collect::<Vec<_>>());
}

#[test]
fn concurrent_drop_accounting_is_exact_past_capacity() {
    let journal = Arc::new(Journal::with_capacity(128));
    hammer(&journal, 8, 1000);

    // Memory stays bounded at the configured capacity...
    assert_eq!(journal.capacity(), 128);
    assert_eq!(journal.len(), 128);
    // ...every eviction is counted, nothing double- or under-counted...
    assert_eq!(journal.dropped(), 8000 - 128);
    assert_eq!(journal.counter(Counter::EventsDropped), 8000 - 128);
    assert_eq!(journal.counter(Counter::EventsAppended), 8000);
    // ...and the retained records still carry unique, monotone seqs.
    let seqs: Vec<u64> = journal.snapshot().iter().map(|r| r.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "non-monotone: {seqs:?}"
    );
}

#[test]
fn single_threaded_eviction_keeps_the_newest_records() {
    let journal = Journal::with_capacity(32);
    for i in 0..500u64 {
        journal.append_at(i, reject(i));
    }
    assert_eq!(journal.len(), 32);
    assert_eq!(journal.dropped(), 500 - 32);
    // Eviction is exact FIFO: precisely the newest 32 survive.
    let seqs: Vec<u64> = journal.snapshot().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (468..500).collect::<Vec<_>>());
}

/// Four threads append while a reader follows with `since`: every page
/// must start at the reader's cursor and continue without a gap. Nothing
/// is evicted, so any hole would be a record whose seq was visible
/// before a lower one was.
#[test]
fn since_pages_are_dense_under_concurrent_appenders() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let total = THREADS * PER_THREAD;
    let journal = Arc::new(Journal::with_capacity(total as usize));
    let start = Arc::new(Barrier::new(THREADS as usize + 1));
    let appenders: Vec<_> = (0..THREADS)
        .map(|t| {
            let (journal, start) = (Arc::clone(&journal), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    journal.append(reject(t * PER_THREAD + i));
                    // Interleave with the reader, so pages race appends.
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    start.wait();
    let (mut cursor, mut pages) = (0u64, 0u64);
    let mut holed: Vec<(u64, Vec<u64>)> = Vec::new();
    while cursor < total {
        let page = journal.since(cursor);
        let Some(last) = page.last() else {
            std::thread::yield_now();
            continue;
        };
        pages += 1;
        if !page.iter().zip(cursor..).all(|(r, seq)| r.seq == seq) {
            holed.push((cursor, page.iter().take(6).map(|r| r.seq).collect()));
        }
        cursor = last.seq + 1;
    }
    for a in appenders {
        a.join().unwrap();
    }
    assert_eq!(journal.dropped(), 0);
    assert!(
        holed.is_empty(),
        "{} of {pages} pages were not dense from their cursor, e.g. (cursor, first seqs) {:?}",
        holed.len(),
        &holed[..holed.len().min(3)]
    );
}

/// A tiny agent that logs `lines` lines, then returns.
fn chatty_agent(lines: usize) -> AgentImage {
    let mut src = String::from(
        "module chatty\n import env.log (bytes) -> int\n data line = \"tick\"\n func run(arg: bytes) -> int\n",
    );
    for _ in 0..lines {
        src.push_str("  pushd line\n  hostcall env.log\n  drop\n");
    }
    src.push_str("  push 1\n  ret\n");
    let module = assemble(&src).unwrap();
    AgentImage {
        globals: module.initial_globals(),
        module,
        entry: "run".into(),
    }
}

#[test]
fn server_journal_is_bounded_end_to_end() {
    // A deliberately tiny journal: one chatty agent writes far more log
    // lines than the journal retains. Memory stays bounded, the counters
    // stay exact, and the server keeps working.
    let mut world = World::builder(2).journal_capacity(24).build();
    let mut owner = world.owner("chatterbox");
    let agent = owner.next_agent_name("chatty");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent, home, Rights::all(), u64::MAX);
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, chatty_agent(200));
    let reports = world.server(0).wait_reports(1, Duration::from_secs(10));
    assert_eq!(reports.len(), 1);

    let journal = world.server(1).journal();
    assert_eq!(journal.capacity(), 24, "capacity is exact");
    assert!(journal.len() <= journal.capacity());
    assert!(
        journal.dropped() > 0,
        "200 log lines must overflow 24 slots"
    );
    assert_eq!(journal.counter(Counter::LogLines), 200);
    // The bounded view still returns the most recent lines.
    assert!(!world.server(1).logs_tail(usize::MAX).is_empty());
    // Lifecycle events were journaled at both ends.
    assert_eq!(journal.counter(Counter::AgentsAdmitted), 1);
    let home_journal = world.server(0).journal();
    assert_eq!(home_journal.counter(Counter::AgentsDispatched), 1);
    assert_eq!(home_journal.counter(Counter::AgentsReported), 1);
    world.shutdown();
}
