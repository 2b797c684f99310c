//! A journal follower that never loses a record to the publish race.
//!
//! `Journal::append_at` takes a record's `seq` before the record lands in
//! its shard, so `Journal::since(cursor)` can return seq `n + 1` while `n`
//! is still on its way. A follower that moved its cursor past such a hole
//! would lose record `n` for good. This one holds its cursor at a hole
//! until the hole fills, and skips it only when eviction explains it: the
//! journal has dropped records not yet charged to earlier holes, and more
//! than `capacity` sequence numbers were taken after it, so its shard has
//! wrapped past it.

use ajanta_runtime::{Journal, Record};

/// The journal-wide figures a poll judges holes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalView {
    /// `Journal::dropped()`: records evicted so far.
    pub dropped: u64,
    /// `Journal::next_seq()`: sequence numbers taken so far.
    pub next_seq: u64,
    /// `Journal::capacity()`: records retained at most.
    pub capacity: u64,
}

/// Follows one journal from the moment it was created.
#[derive(Debug, Clone)]
pub struct Follower {
    cursor: u64,
    dropped_at_start: u64,
    charged: u64,
    /// Polls that stopped at a hole still being published.
    pub holes_held: u64,
    /// Sequence numbers skipped because eviction explained them.
    pub skipped: u64,
}

impl Follower {
    /// A follower starting at the journal's next record.
    pub fn new(journal: &Journal) -> Follower {
        Follower::at(journal.next_seq(), journal.dropped())
    }

    /// A follower whose next record is `cursor`, with `dropped` records
    /// already evicted before it started.
    pub fn at(cursor: u64, dropped: u64) -> Follower {
        Follower {
            cursor,
            dropped_at_start: dropped,
            charged: 0,
            holes_held: 0,
            skipped: 0,
        }
    }

    /// Reads what the journal has published since the last poll.
    pub fn poll(&mut self, journal: &Journal) -> Vec<Record> {
        let page = journal.since(self.cursor);
        let view = JournalView {
            dropped: journal.dropped(),
            next_seq: journal.next_seq(),
            capacity: journal.capacity() as u64,
        };
        self.advance(page, view)
    }

    /// Consumes one `since(cursor)` page (ordered by seq): returns the
    /// records that continue the sequence without a gap and stops at the
    /// first hole eviction does not explain.
    pub fn advance(&mut self, page: Vec<Record>, view: JournalView) -> Vec<Record> {
        let mut out = Vec::new();
        for record in page {
            if record.seq < self.cursor {
                continue;
            }
            while self.cursor < record.seq {
                if !self.evicted(self.cursor, view) {
                    self.holes_held += 1;
                    return out;
                }
                self.charged += 1;
                self.skipped += 1;
                self.cursor += 1;
            }
            self.cursor += 1;
            out.push(record);
        }
        out
    }

    fn evicted(&self, seq: u64, view: JournalView) -> bool {
        let uncharged = view.dropped - self.dropped_at_start > self.charged;
        uncharged && view.next_seq > seq.saturating_add(view.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_naming::Urn;
    use ajanta_runtime::{Event, Severity};
    use std::sync::{Arc, Barrier};

    fn rec(seq: u64) -> Record {
        Record {
            seq,
            at: 0,
            severity: Severity::Info,
            event: Event::AgentLog {
                agent: Urn::agent("x.org", ["a"]).unwrap(),
                text: String::new(),
            },
        }
    }

    fn seqs(records: &[Record]) -> Vec<u64> {
        records.iter().map(|r| r.seq).collect()
    }

    fn view(dropped: u64, next_seq: u64) -> JournalView {
        JournalView {
            dropped,
            next_seq,
            capacity: 64,
        }
    }

    #[test]
    fn holds_at_a_hole_until_it_fills() {
        let mut f = Follower::at(0, 0);
        let got = f.advance(vec![rec(0), rec(1), rec(3)], view(0, 4));
        assert_eq!(seqs(&got), [0, 1]);
        assert_eq!(f.holes_held, 1);
        // Seq 2 landed: the next page starts at it and nothing repeats.
        let got = f.advance(vec![rec(2), rec(3), rec(4)], view(0, 5));
        assert_eq!(seqs(&got), [2, 3, 4]);
        assert_eq!((f.holes_held, f.skipped), (1, 0));
    }

    #[test]
    fn skips_only_what_eviction_explains() {
        // 82 seqs taken with capacity 64: seqs below 18 have been wrapped
        // over and 13 drops are uncharged, so 5..=17 are skipped; 18 and
        // 19 are inside the retained window, hence still landing.
        let mut f = Follower::at(5, 0);
        let page: Vec<Record> = (20..82).map(rec).collect();
        let got = f.advance(page.clone(), view(13, 82));
        assert!(got.is_empty());
        assert_eq!((f.skipped, f.holes_held), (13, 1));
        let mut page2 = vec![rec(18), rec(19)];
        page2.extend(page);
        let got = f.advance(page2, view(13, 82));
        assert_eq!(seqs(&got), (18..82).collect::<Vec<_>>());
        // A wrapped hole with no uncharged drop is held, never skipped.
        let mut f = Follower::at(0, 7);
        let got = f.advance((70..80).map(rec).collect(), view(7, 80));
        assert!(got.is_empty());
        assert_eq!((f.skipped, f.holes_held), (0, 1));
    }

    /// Four threads append concurrently, so seqs are often published out
    /// of order; the follower must still return every record exactly
    /// once, in seq order.
    #[test]
    fn follows_concurrent_appenders_without_loss() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let journal = Arc::new(Journal::with_capacity(1 << 20));
        let start = Arc::new(Barrier::new(THREADS as usize + 1));
        let appenders: Vec<_> = (0..THREADS)
            .map(|t| {
                let (journal, start) = (Arc::clone(&journal), Arc::clone(&start));
                std::thread::spawn(move || {
                    let agent = Urn::agent("x.org", [format!("t{t}")]).unwrap();
                    start.wait();
                    for _ in 0..PER_THREAD {
                        journal.append(Event::AgentReported {
                            agent: agent.clone(),
                            status: "completed",
                        });
                    }
                })
            })
            .collect();
        let mut f = Follower::new(&journal);
        start.wait();
        let mut got = Vec::new();
        while (got.len() as u64) < THREADS * PER_THREAD {
            got.extend(seqs(&f.poll(&journal)));
        }
        for a in appenders {
            a.join().unwrap();
        }
        assert_eq!(got, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
        assert_eq!(f.skipped, 0);
        assert!(f.poll(&journal).is_empty());
    }

    /// With a tiny journal most records are evicted before the follower
    /// reads them: what it returns is still strictly ordered and unique,
    /// every seq is either returned or skipped, and skips never exceed
    /// the journal's drop count.
    #[test]
    fn accounts_for_every_seq_under_eviction() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let journal = Arc::new(Journal::with_capacity(64));
        let start = Arc::new(Barrier::new(THREADS as usize + 1));
        let appenders: Vec<_> = (0..THREADS)
            .map(|_| {
                let (journal, start) = (Arc::clone(&journal), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        journal.append(Event::AgentLog {
                            agent: Urn::agent("x.org", ["a"]).unwrap(),
                            text: String::new(),
                        });
                    }
                })
            })
            .collect();
        let mut f = Follower::new(&journal);
        start.wait();
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(seqs(&f.poll(&journal)));
            std::thread::yield_now();
        }
        for a in appenders {
            a.join().unwrap();
        }
        // Racing appends can reorder a shard, so an evicted record may
        // sit less than `capacity` seqs behind the end; a single-threaded
        // tail of 2 × capacity pushes every such hole out of the window.
        const TAIL: u64 = 128;
        for _ in 0..TAIL {
            journal.append(Event::AgentLog {
                agent: Urn::agent("x.org", ["b"]).unwrap(),
                text: String::new(),
            });
        }
        got.extend(seqs(&f.poll(&journal)));
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got.len() as u64 + f.skipped, THREADS * PER_THREAD + TAIL);
        assert!(f.skipped <= journal.dropped());
        assert!(f.skipped > 0, "a 64-record journal must have wrapped");
    }
}
