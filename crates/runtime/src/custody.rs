//! The custody core of the reliable-delivery layer. [`Custody`] does no
//! I/O — callers pass `now`, the time since the server started on its
//! custody clock (real time, or a simulator's virtual time) — and makes
//! every custody decision, returning what to send and what to log:
//!
//! - the receive rule: which ack an arriving reliable frame earns and
//!   whether it is the first copy ([`Custody::receive`]);
//! - where an admission's custody goes when its outcome leaves, and when
//!   its WAL `Resolve` falls due ([`Custody::hand_off`],
//!   [`Custody::acked`]);
//! - which tracked frames are due, plus how long until the next
//!   ([`Custody::take_due`]), and what a frame out of attempts does
//!   ([`Custody::dead_stop`]);
//! - what a restarted server remembers from its WAL
//!   ([`Custody::recover`]).
//!
//! The server loop in [`crate::server`] drives it and does every seal,
//! send, span, event, histogram and WAL append itself.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use ajanta_core::{Credentials, SpanContext};
use ajanta_naming::Urn;

use crate::bundle::AgentBundle;
use crate::messages::{Ack, Message, ReportStatus};
use crate::wal::{WalRecord, WalRecovery};

/// Retry policy for the fault-tolerant migration layer.
///
/// Reliable frames (agent transfers and home-bound reports) are tracked
/// until the receiver's delivery ack arrives. A frame still unacked
/// after its ack grace of *real* time is re-sent, and the virtual clock
/// models the retry at the grace actually waited. The grace doubles per
/// attempt, so a healthy-but-busy receiver whose acks lag (a burst of
/// admissions queued on its loop) wins the race long before attempts
/// exhaust. After [`RetryPolicy::max_attempts`] total attempts the frame
/// dead-stops: transfers consult their itinerary fallbacks (skip the
/// unreachable stop) or report `Failed(hop)` home — no orphans either
/// way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per destination before the frame dead-stops.
    pub max_attempts: u32,
    /// Real-time grace before an unacked *first* attempt counts as
    /// lost; each later attempt doubles it.
    pub ack_grace: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            ack_grace: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// Real-time ack grace for a frame on its `attempt`-th attempt:
    /// doubles per attempt so transient receiver backlog is outwaited,
    /// saturating at [`MAX_ACK_GRACE`]. The multiplication saturates too:
    /// a large configured `ack_grace` times `2^10` must clamp, not panic
    /// (`Duration * u32` overflow aborts in both debug and release).
    fn grace(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        self.ack_grace
            .checked_mul(factor)
            .unwrap_or(MAX_ACK_GRACE)
            .min(MAX_ACK_GRACE)
    }
}

/// Ceiling on the per-attempt ack grace: no backoff doubling waits more
/// than a minute of real time before a frame is declared lost.
const MAX_ACK_GRACE: Duration = Duration::from_secs(60);

/// The idempotency key of a received reliable frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FrameKey {
    /// Admission idempotency: `(agent URN, hop)`, deliberately
    /// sender-agnostic — the same hop arriving twice from *anywhere*
    /// (retry, replay, dual-path failover) is admitted once.
    Transfer {
        /// The executing identity.
        agent: Urn,
        /// The hop sequence number carried in the transfer.
        hop: u64,
    },
    /// Report dedup: scoped to the reporting server, whose private
    /// sequence counter numbers its own reports.
    Report {
        /// The reporting server.
        from: Urn,
        /// The reported-on agent.
        agent: Urn,
        /// The reporter's delivery sequence.
        seq: u64,
    },
}

/// Bounded memory of already-processed reliable frames. FIFO-evicted at
/// `SEEN_CAP`, so an adversary hammering retries cannot grow it without
/// bound; the window is far larger than any plausible retry horizon.
#[derive(Default)]
struct SeenFrames {
    set: HashSet<FrameKey>,
    order: VecDeque<FrameKey>,
}

const SEEN_CAP: usize = 8192;

impl SeenFrames {
    /// Returns true when `key` is fresh (first sighting).
    fn insert(&mut self, key: FrameKey) -> bool {
        if !self.set.insert(key.clone()) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > SEEN_CAP {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// The key a sent reliable frame is tracked under until its ack:
/// `(ack kind, agent, hop or report sequence)`.
pub(crate) type SendKey = (u8, Urn, u64);

/// A transfer's recovery plan, consulted when retries toward its current
/// destination exhaust.
pub(crate) struct Recovery {
    /// Credentials for the `Failed(hop)` home report of last resort.
    pub(crate) credentials: Credentials,
    /// Remaining itinerary stops to fall back to, in order.
    pub(crate) fallbacks: Vec<Urn>,
}

/// One reliable frame awaiting its delivery ack.
pub(crate) struct PendingSend {
    pub(crate) dest: Urn,
    pub(crate) msg: Message,
    /// Send attempts so far (≥ 1).
    pub(crate) attempt: u32,
    /// Custody-clock time (since the server started) of the last
    /// attempt; the frame falls due once its ack grace has passed since
    /// then.
    pub(crate) sent_at: Duration,
    /// `Some` for transfers (dead-stop recovery), `None` for reports.
    pub(crate) recovery: Option<Recovery>,
    /// The frame's span (transfer leg or report journey); retry spans
    /// are its children, and a transfer's span is emitted when its first
    /// ack resolves it.
    pub(crate) ctx: SpanContext,
    /// Virtual time of the very first send — the transfer-RTT and
    /// hop-latency baseline. Never updated by retries or fallbacks.
    pub(crate) first_sent_ns: u64,
    /// Virtual time of the most recent attempt, so each retry span can
    /// report the backoff actually waited.
    pub(crate) last_sent_ns: u64,
    /// The WAL admission this frame settles, set by
    /// [`Custody::hand_off`]: when the ack for this frame arrives,
    /// custody of `(agent, hop)` has passed to the receiver (or home) and
    /// a `Resolve` record is appended. Custody must ride the pending-send
    /// entry — resolving at *send* time would drop the admission from the
    /// log while the frame could still be lost.
    pub(crate) custody: Option<(Urn, u64)>,
}

/// What one [`Custody::take_due`] call found.
pub(crate) struct Due {
    /// Lapsed frames with attempts left, each with the grace it waited
    /// (at most a minute): re-send them and [`Custody::track`] them again.
    pub(crate) resend: Vec<(SendKey, PendingSend, Duration)>,
    /// Lapsed frames out of attempts: dead-stop them.
    pub(crate) exhausted: Vec<(SendKey, PendingSend)>,
    /// How long the caller may wait before asking again: until the
    /// earliest frame still tracked falls due, and never longer than a
    /// first attempt's grace — a frame tracked during the wait falls due
    /// no sooner than that.
    pub(crate) wait: Duration,
}

/// What [`Custody::receive`] decides for one reliable frame.
pub(crate) struct Receipt {
    /// The ack every copy earns.
    pub(crate) ack: Message,
    /// For a copy already seen, the rejection to journal instead of
    /// admitting or recording it.
    pub(crate) duplicate: Option<String>,
}

/// What [`Custody::dead_stop`] decides for a frame out of attempts.
pub(crate) enum DeadStop {
    /// A report is lost, with this detail to journal: a report about an
    /// undeliverable report must not recurse.
    ReportLost(String),
    /// A transfer with no fallback left ends lost: this status goes home
    /// under these credentials, carrying the leg's custody.
    SendHome {
        credentials: Box<Credentials>,
        status: ReportStatus,
    },
    /// A transfer skips its dead stop. The frame now heads for the next
    /// fallback with key, custody and span unchanged, so if the "dead"
    /// stop did admit the agent and only its acks were lost, the copy can
    /// at worst admit it at a *different* server, never one twice.
    Skip { skipped: Urn },
}

/// A server's custody state: the dedup memory of received frames and
/// the unacked frames it sent, on one retry schedule.
pub(crate) struct Custody {
    policy: RetryPolicy,
    seen: SeenFrames,
    pending: HashMap<SendKey, PendingSend>,
    /// No tracked frame falls due before this instant. Acks can leave it
    /// early, never late; until it passes, [`Custody::take_due`] answers
    /// without scanning the tracked frames.
    next_due: Duration,
}

impl Custody {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        Custody {
            policy,
            seen: SeenFrames::default(),
            pending: HashMap::new(),
            next_due: Duration::MAX,
        }
    }

    /// Whether `key` is the first sighting of its frame. The key is
    /// remembered either way, so every later copy is a duplicate.
    fn fresh(&mut self, key: FrameKey) -> bool {
        self.seen.insert(key)
    }

    /// Seeds a restarted server from its WAL: resolved keys are
    /// remembered, so a peer's retry of a settled frame is a duplicate,
    /// and the unresolved admissions come back to be re-admitted, each
    /// key once and remembered too.
    pub(crate) fn recover(&mut self, recovery: WalRecovery) -> Vec<AgentBundle> {
        for (agent, hop) in recovery.resolved {
            self.fresh(FrameKey::Transfer { agent, hop });
        }
        let mut replay = recovery.unresolved;
        replay.retain(|b| {
            self.fresh(FrameKey::Transfer {
                agent: b.agent.clone(),
                hop: b.hop,
            })
        });
        replay
    }

    /// The receive rule for a reliable frame ([`Message::Transfer`] or
    /// [`Message::Report`]; `None` for any other message): every copy is
    /// acked, so a sender whose ack was lost stops retrying, and only the
    /// first copy of a transfer's `(agent, hop)` or of a report's
    /// `(sender, agent, seq)` goes on.
    pub(crate) fn receive(&mut self, from: &Urn, msg: &Message) -> Option<Receipt> {
        let (kind, agent, seq) = match msg {
            Message::Transfer { run_as, hop, .. } => (Ack::TRANSFER, run_as, *hop),
            Message::Report { report, seq, .. } => (Ack::REPORT, &report.agent, *seq),
            _ => return None,
        };
        let key = match kind {
            Ack::TRANSFER => FrameKey::Transfer {
                agent: agent.clone(),
                hop: seq,
            },
            _ => FrameKey::Report {
                from: from.clone(),
                agent: agent.clone(),
                seq,
            },
        };
        let duplicate = (!self.fresh(key)).then(|| match kind {
            Ack::TRANSFER => format!("transfer of {agent} hop {seq} already processed"),
            _ => format!("report {seq} from {from} already recorded"),
        });
        let agent = agent.clone();
        let ack = Message::Ack { kind, agent, seq };
        Some(Receipt { ack, duplicate })
    }

    /// Where an admission's `custody` goes as its outcome leaves. On a
    /// reliable frame (`carrier`) it rides the frame, tracked until the
    /// first ack makes its `Resolve` due ([`Custody::acked`]); recorded
    /// here at its home (no carrier), it ends now, and the returned
    /// `Resolve` is due.
    pub(crate) fn hand_off(
        &mut self,
        custody: Option<(Urn, u64)>,
        carrier: Option<(SendKey, PendingSend)>,
    ) -> Option<WalRecord> {
        match carrier {
            Some((key, mut frame)) => {
                frame.custody = custody;
                self.track(key, frame);
                None
            }
            None => custody.map(|(agent, hop)| WalRecord::Resolve { agent, hop }),
        }
    }

    /// Tracks a sent frame until an ack settles it or it falls due.
    pub(crate) fn track(&mut self, key: SendKey, frame: PendingSend) {
        let due_at = frame.sent_at + self.policy.grace(frame.attempt);
        self.next_due = self.next_due.min(due_at);
        self.pending.insert(key, frame);
    }

    /// The tracked frame an ack for `key` settles. Only the first ack
    /// finds it; duplicates find nothing.
    fn settle(&mut self, key: &SendKey) -> Option<PendingSend> {
        self.pending.remove(key)
    }

    /// The frame the first ack for `key` settles, with the `Resolve` now
    /// due for the admission it carried: the receiver (or the home site)
    /// durably owns the agent's fate.
    pub(crate) fn acked(&mut self, key: &SendKey) -> Option<(PendingSend, Option<WalRecord>)> {
        let frame = self.settle(key)?;
        let resolve = frame
            .custody
            .clone()
            .map(|(agent, hop)| WalRecord::Resolve { agent, hop });
        Some((frame, resolve))
    }

    /// The dead-stop choice for a frame out of attempts: a report is
    /// lost; a transfer skips to its next fallback (`frame` is rewritten
    /// to head there, for the caller to send and track again) or, with
    /// none left, reports `Failed(hop)` home, so the home site always
    /// learns the agent's fate.
    pub(crate) fn dead_stop(key: &SendKey, frame: &mut PendingSend) -> DeadStop {
        let (_, agent, seq) = key;
        let Some(recovery) = frame.recovery.as_mut() else {
            return DeadStop::ReportLost(format!(
                "report {seq} about {agent} toward {} lost after {} attempts",
                frame.dest, frame.attempt
            ));
        };
        if recovery.fallbacks.is_empty() {
            return DeadStop::SendHome {
                credentials: Box::new(recovery.credentials.clone()),
                status: ReportStatus::Failed(format!(
                    "hop {seq}: transfer to {} lost after {} attempts",
                    frame.dest, frame.attempt
                )),
            };
        }
        let next = recovery.fallbacks.remove(0);
        frame.attempt = 1;
        DeadStop::Skip {
            skipped: std::mem::replace(&mut frame.dest, next),
        }
    }

    /// Removes every frame whose ack grace has passed by `now`, in key
    /// order and split by whether it has attempts left, and says how
    /// long the caller may wait before the next call.
    pub(crate) fn take_due(&mut self, now: Duration) -> Due {
        let longest = self.policy.grace(1);
        let mut due = Due {
            resend: Vec::new(),
            exhausted: Vec::new(),
            wait: longest,
        };
        if now < self.next_due {
            due.wait = longest.min(self.next_due - now);
            return due;
        }
        let mut next_due = Duration::MAX;
        let mut lapsed: Vec<SendKey> = self
            .pending
            .iter()
            .filter_map(|(key, frame)| {
                let due_at = frame.sent_at + self.policy.grace(frame.attempt);
                if due_at <= now {
                    return Some(key.clone());
                }
                next_due = next_due.min(due_at);
                None
            })
            .collect();
        lapsed.sort_unstable();
        self.next_due = next_due;
        due.wait = longest.min(next_due - now);
        for key in lapsed {
            let frame = self.pending.remove(&key).expect("lapsed key is tracked");
            if frame.attempt >= self.policy.max_attempts {
                due.exhausted.push((key, frame));
            } else {
                let waited = self.policy.grace(frame.attempt);
                due.resend.push((key, frame, waited));
            }
        }
        due
    }

    /// Number of tracked frames.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// Every tracked frame, in no particular order.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> impl Iterator<Item = (&SendKey, &PendingSend)> {
        self.pending.iter()
    }

    /// `(agent, hop)` admissions whose custody rides a tracked frame,
    /// sorted and deduplicated.
    pub(crate) fn in_flight(&self) -> Vec<(Urn, u64)> {
        let mut v: Vec<(Urn, u64)> = self
            .pending
            .values()
            .filter_map(|p| p.custody.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    use ajanta_core::{SpanId, TraceId};
    use ajanta_crypto::DetRng;

    const MS: Duration = Duration::from_millis(1);

    fn agent(i: u64) -> Urn {
        Urn::agent("users.org", [format!("a{i}")]).unwrap()
    }

    fn dest() -> Urn {
        Urn::server("site1.org", ["s"]).unwrap()
    }

    /// A tracked transfer frame; custody never looks inside the message.
    fn frame(sent_at: Duration, hop: u64) -> PendingSend {
        PendingSend {
            dest: dest(),
            msg: Message::Ack {
                kind: 0,
                agent: agent(hop),
                seq: hop,
            },
            attempt: 1,
            sent_at,
            recovery: None,
            ctx: SpanContext::root(TraceId(0), SpanId(0)),
            first_sent_ns: 0,
            last_sent_ns: 0,
            custody: Some((agent(hop), hop)),
        }
    }

    fn key(hop: u64) -> SendKey {
        (0, agent(hop), hop)
    }

    fn policy(max_attempts: u32, grace_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ack_grace: Duration::from_millis(grace_ms),
        }
    }

    /// Regression: `Duration * u32` aborts on overflow in both debug and
    /// release. A generously configured `ack_grace` crossed with the
    /// per-attempt doubling used to do exactly that around attempt 11;
    /// now both the multiplication and the result saturate at the
    /// ceiling.
    #[test]
    fn ack_grace_backoff_saturates_instead_of_panicking() {
        let policy = RetryPolicy {
            ack_grace: Duration::from_secs(u64::MAX / 2),
            ..RetryPolicy::default()
        };
        for attempt in [0, 1, 2, 10, 11, 12, 31, 32, 64, u32::MAX] {
            assert_eq!(policy.grace(attempt), MAX_ACK_GRACE);
        }
    }

    /// The intended shape below the ceiling: doubles per attempt, factor
    /// capped at 2^10, absolute wait capped at [`MAX_ACK_GRACE`].
    #[test]
    fn ack_grace_doubles_then_hits_both_ceilings() {
        let policy = policy(5, 10);
        assert_eq!(policy.grace(1), 10 * MS);
        assert_eq!(policy.grace(2), 20 * MS);
        assert_eq!(policy.grace(5), 160 * MS);
        // The doubling factor freezes at 2^10...
        assert_eq!(policy.grace(11), 10_240 * MS);
        assert_eq!(policy.grace(64), 10_240 * MS);
        // ...and a wider base clamps to the one-minute ceiling instead.
        let wide = RetryPolicy {
            ack_grace: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        assert_eq!(wide.grace(10), MAX_ACK_GRACE);
    }

    /// A frame falls due exactly when its attempt's grace has passed; the
    /// grace doubles per attempt, the returned wait counts down to the
    /// earliest frame, and the last attempt lapses as exhausted.
    #[test]
    fn frames_fall_due_on_one_doubling_schedule() {
        let mut custody = Custody::new(policy(3, 10));
        let idle = custody.take_due(Duration::ZERO);
        assert!(idle.resend.is_empty() && idle.exhausted.is_empty());
        assert_eq!(idle.wait, 10 * MS, "idle wait is one first-attempt grace");

        custody.track(key(1), frame(Duration::ZERO, 1));
        custody.track(key(2), frame(4 * MS, 2));
        let early = custody.take_due(9 * MS);
        assert!(early.resend.is_empty());
        assert_eq!(early.wait, MS, "frame 1 is due in 1 ms");

        let first = custody.take_due(10 * MS);
        assert_eq!(first.resend.len(), 1);
        let (k, mut f, waited) = first.resend.into_iter().next().unwrap();
        assert_eq!((k.clone(), waited), (key(1), 10 * MS));
        assert_eq!(first.wait, 4 * MS, "frame 2 is due at 14 ms");

        // The second attempt waits twice as long.
        f.attempt = 2;
        f.sent_at = 10 * MS;
        custody.track(k, f);
        let _ = custody.take_due(14 * MS);
        let second = custody.take_due(29 * MS);
        assert!(second.resend.is_empty());
        assert_eq!(second.wait, MS);
        let second = custody.take_due(30 * MS);
        let (k, mut f, waited) = second.resend.into_iter().next().unwrap();
        assert_eq!(waited, 20 * MS);

        // The third attempt is the last: its lapse is a dead stop.
        f.attempt = 3;
        f.sent_at = 30 * MS;
        custody.track(k, f);
        assert!(custody.take_due(69 * MS).exhausted.is_empty());
        let last = custody.take_due(70 * MS);
        assert_eq!(last.exhausted.len(), 1);
        assert!(last.resend.is_empty());
        assert_eq!(custody.len(), 0);
    }

    #[test]
    fn only_the_first_ack_settles_a_frame() {
        let mut custody = Custody::new(RetryPolicy::default());
        custody.track(key(7), frame(Duration::ZERO, 7));
        assert_eq!(custody.in_flight(), vec![(agent(7), 7)]);
        let settled = custody.settle(&key(7)).expect("first ack settles");
        assert_eq!(settled.custody, Some((agent(7), 7)));
        assert!(
            custody.settle(&key(7)).is_none(),
            "a duplicate ack is inert"
        );
        assert_eq!(custody.len(), 0);
        assert!(custody.in_flight().is_empty());
        assert!(custody
            .take_due(Duration::from_secs(3600))
            .resend
            .is_empty());
    }

    #[test]
    fn dedup_is_fresh_once_and_evicts_oldest_first() {
        let mut custody = Custody::new(RetryPolicy::default());
        // Keys WAL recovery found resolved are seeded the same way the
        // server seeds them, and are never fresh afterwards.
        let resolved = FrameKey::Transfer {
            agent: agent(0),
            hop: 3,
        };
        custody.fresh(resolved.clone());
        assert!(!custody.fresh(resolved.clone()));

        let report = |seq| FrameKey::Report {
            from: dest(),
            agent: agent(1),
            seq,
        };
        assert!(custody.fresh(report(0)));
        assert!(!custody.fresh(report(0)));
        // `resolved` and report 0 fill two slots; SEEN_CAP - 1 more keys
        // push exactly the oldest one out.
        for seq in 1..SEEN_CAP as u64 {
            assert!(custody.fresh(report(seq)));
        }
        assert!(custody.fresh(resolved), "the oldest key is evicted first");
        assert!(!custody.fresh(report(1)));
    }

    /// Two custody values exchange transfers and acks over a seeded link
    /// that drops, delays and so reorders frames, on a fake clock. Every
    /// tracked frame ends acked or out of attempts, and the receiver
    /// admits no `(agent, hop)` twice.
    #[test]
    fn lossy_exchange_settles_every_frame_once() {
        const FRAMES: u64 = 200;
        let mut sender = Custody::new(policy(6, 10));
        let mut receiver = Custody::new(policy(6, 10));
        let mut rng = DetRng::new(0xC057_0D1E);
        // Frames in flight, earliest arrival first: (arrival, send
        // order, is an ack, hop).
        type Link = BinaryHeap<Reverse<(Duration, u64, bool, u64)>>;
        let mut link = Link::new();
        let mut sends = 0u64;
        let mut transmit = |link: &mut Link, rng: &mut DetRng, now: Duration, ack: bool, hop| {
            sends += 1;
            if rng.unit_f64() >= 0.3 {
                let arrival = now + Duration::from_micros(rng.below(15_000));
                link.push(Reverse((arrival, sends, ack, hop)));
            }
        };

        let mut now = Duration::ZERO;
        for hop in 0..FRAMES {
            sender.track(key(hop), frame(now, hop));
            transmit(&mut link, &mut rng, now, false, hop);
        }
        let mut admitted: BTreeMap<u64, u32> = BTreeMap::new();
        let mut outcome: BTreeMap<u64, &str> = BTreeMap::new();
        while sender.len() > 0 || !link.is_empty() {
            now += Duration::from_micros(250);
            while let Some(Reverse((at, _, ack, hop))) = link.peek().copied() {
                if at > now {
                    break;
                }
                link.pop();
                if ack {
                    if sender.settle(&key(hop)).is_some() {
                        assert!(outcome.insert(hop, "acked").is_none());
                    }
                } else {
                    // Ack every copy, admit only the first.
                    transmit(&mut link, &mut rng, now, true, hop);
                    let fresh = receiver.fresh(FrameKey::Transfer {
                        agent: agent(hop),
                        hop,
                    });
                    if fresh {
                        *admitted.entry(hop).or_default() += 1;
                    }
                }
            }
            let due = sender.take_due(now);
            assert!(due.wait > Duration::ZERO && due.wait <= 10 * MS);
            for (k, mut f, _) in due.resend {
                f.attempt += 1;
                f.sent_at = now;
                transmit(&mut link, &mut rng, now, false, k.2);
                sender.track(k, f);
            }
            for (k, _) in due.exhausted {
                assert!(outcome.insert(k.2, "exhausted").is_none());
            }
        }
        assert_eq!(outcome.len() as u64, FRAMES, "every frame ends");
        assert!(admitted.values().all(|&n| n == 1), "no hop admitted twice");
        for (hop, end) in &outcome {
            if *end == "acked" {
                assert!(admitted.contains_key(hop), "an ack implies an admission");
            }
        }
        let acked = outcome.values().filter(|e| **e == "acked").count();
        assert!(acked > 0 && acked < FRAMES as usize, "both endings occur");
    }
}
