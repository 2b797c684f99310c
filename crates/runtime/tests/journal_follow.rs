//! Journal follow under concurrent appends, through the control plane's
//! request core. Kept in its own test binary: its appender threads load
//! every CPU for about a second, which would perturb the timing of
//! tests running beside it.

use std::time::{Duration, Instant};

use ajanta_naming::Urn;
use ajanta_runtime::control::serve_request;
use ajanta_runtime::{ControlResponse, Event, JournalFollower, World};

const WAIT: Duration = Duration::from_secs(20);

/// Four threads append to one server's journal while a follower pages
/// it through `serve_request`. Pages race the appends, cursor by
/// cursor; the follower must still see every seq exactly once and raise
/// no gap alarm.
#[test]
fn follow_under_concurrent_appends_loses_nothing() {
    const APPENDERS: u64 = 4;
    const PER_APPENDER: u64 = 8_000;
    let world = World::builder(1).journal_capacity(1 << 16).build();
    let views = world.control_views();
    let journal = world.server(0).journal();
    let agent = Urn::agent("users.org", ["ops", "follow"]).unwrap();

    let mut follower = JournalFollower::new();
    let mut seen = Vec::new();
    let poll = |follower: &mut JournalFollower, seen: &mut Vec<u64>| {
        let ControlResponse::Journal(pages) = serve_request(&views, &follower.request(512)) else {
            panic!("follow answered with a non-journal response");
        };
        for page in &pages {
            seen.extend(follower.ingest(page).iter().map(|e| e.seq));
        }
    };
    // The first poll tails the journal and pins the cursor.
    poll(&mut follower, &mut seen);
    let start = seen.first().copied().unwrap_or_else(|| journal.next_seq());

    let appenders: Vec<_> = (0..APPENDERS)
        .map(|t| {
            let journal = world.server(0).journal();
            let agent = agent.clone();
            std::thread::spawn(move || {
                for i in 0..PER_APPENDER {
                    journal.append(Event::AgentLog {
                        agent: agent.clone(),
                        text: format!("{t}:{i}"),
                    });
                    // Interleave with the follower's polls.
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    while appenders.iter().any(|h| !h.is_finished()) {
        poll(&mut follower, &mut seen);
    }
    for h in appenders {
        h.join().unwrap();
    }
    let end = journal.next_seq();
    let deadline = Instant::now() + WAIT;
    while seen.last().is_none_or(|&s| s + 1 < end) && Instant::now() < deadline {
        poll(&mut follower, &mut seen);
    }

    assert_eq!(follower.unexplained_gaps, 0, "follower raised a gap alarm");
    assert_eq!(journal.dropped(), 0, "the journal must retain everything");
    let expected: Vec<u64> = (start..end).collect();
    assert_eq!(seen.len(), expected.len(), "records lost or repeated");
    assert_eq!(seen, expected, "every seq exactly once, in order");
    world.shutdown();
}
