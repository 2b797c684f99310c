//! Virtual time.
//!
//! All latencies, expirations and completion times in the reproduction are
//! **virtual nanoseconds** on a shared [`VClock`]. Virtual time makes every
//! experiment deterministic and machine-independent: a transfer over a
//! 50 ms link advances the clock by exactly the modeled amount whether the
//! host is fast or slow. Credential and proxy expiry in `ajanta-core` read
//! the same clock, so "expires in 10 ms" means 10 virtual milliseconds.
//!
//! Socket transports run on the clock's wall form ([`VClock::wall`]):
//! wall-clock nanoseconds since the UNIX epoch, read on demand, so all
//! processes on one machine share a clock epoch and time passes whether
//! or not frames move.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A shared, monotone virtual clock.
///
/// Cloning yields a handle to the same clock. Monotonicity is guaranteed
/// even under concurrent advancement (`fetch_max`).
#[derive(Debug, Clone, Default)]
pub struct VClock {
    now_ns: Arc<AtomicU64>,
    /// The wall this clock follows, for the wall form; every clone
    /// carries the same anchor.
    wall: Option<WallAnchor>,
}

impl VClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that follows the wall: nanoseconds since the UNIX epoch,
    /// sampled once here and extended by the monotonic clock, so a
    /// backwards step of the system clock cannot stall it. It can still
    /// be advanced past the wall.
    pub fn wall() -> Self {
        VClock {
            now_ns: Arc::default(),
            wall: Some(WallAnchor::new()),
        }
    }

    /// Current time in nanoseconds. A wall clock first advances to the
    /// anchored wall, so its time passes even when nothing advances it.
    pub fn now(&self) -> u64 {
        match &self.wall {
            Some(wall) => self.advance_to(wall.now_ns()),
            None => self.now_ns.load(Ordering::Acquire),
        }
    }

    /// Advances the clock to at least `t` (no-op when already past).
    /// Returns the new current time.
    pub fn advance_to(&self, t: u64) -> u64 {
        self.now_ns.fetch_max(t, Ordering::AcqRel).max(t)
    }

    /// Advances the clock by `delta` nanoseconds from its current value
    /// and returns the new time.
    pub fn advance_by(&self, delta: u64) -> u64 {
        self.now(); // a wall clock counts from the wall
        self.now_ns.fetch_add(delta, Ordering::AcqRel) + delta
    }
}

/// Wall-clock nanoseconds since the UNIX epoch — sampled exactly once,
/// when a [`WallAnchor`] is created.
fn wall_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// A monotonic extension of one wall-clock sample.
///
/// A wall clock stamps every frame with "wall nanoseconds", but
/// `SystemTime` is not monotone: an NTP step (or a VM resume) can move
/// it backwards, and a naive `advance_to(wall_now_ns())` would then pin
/// the clock for the whole regression window — freezing hop latencies
/// at zero and aging every outbound datagram toward the receiver's
/// replay horizon. So the wall is read once, here, and all later "wall"
/// reads are `epoch + Instant::elapsed()`: same epoch, but immune to
/// steps in either direction.
#[derive(Debug, Clone, Copy)]
struct WallAnchor {
    epoch_wall_ns: u64,
    epoch: Instant,
}

impl WallAnchor {
    fn new() -> Self {
        Self::at(wall_now_ns())
    }

    /// Anchors at an explicit epoch (tests simulate clock steps with
    /// this; production code uses [`WallAnchor::new`]).
    fn at(epoch_wall_ns: u64) -> Self {
        WallAnchor {
            epoch_wall_ns,
            epoch: Instant::now(),
        }
    }

    /// Wall nanoseconds now: the anchor's epoch plus monotonic elapsed
    /// time. Never decreases between calls.
    fn now_ns(&self) -> u64 {
        self.epoch_wall_ns
            .saturating_add(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// Convenience: nanoseconds per millisecond.
pub const MILLIS: u64 = 1_000_000;
/// Convenience: nanoseconds per microsecond.
pub const MICROS: u64 = 1_000;
/// Convenience: nanoseconds per second.
pub const SECONDS: u64 = 1_000_000_000;

/// Renders a nanosecond quantity with a human-scale unit (`ns`, `µs`,
/// `ms`, `s`), one decimal where it matters. Trace and histogram tooling
/// renders virtual durations through this so a 50 ms link reads as
/// "50ms", not "50000000".
pub fn fmt_ns(ns: u64) -> String {
    if ns >= SECONDS {
        format!("{:.2}s", ns as f64 / SECONDS as f64)
    } else if ns >= MILLIS {
        format!("{:.1}ms", ns as f64 / MILLIS as f64)
    } else if ns >= MICROS {
        format!("{:.1}µs", ns as f64 / MICROS as f64)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance_by(10), 10);
        assert_eq!(c.now(), 10);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VClock::new();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        // Going backwards is a no-op.
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn clones_share_state() {
        let a = VClock::new();
        let b = a.clone();
        a.advance_to(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn concurrent_advancement_stays_monotone() {
        let c = VClock::new();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for j in 0..1000u64 {
                        c.advance_to(i * 1000 + j);
                    }
                });
            }
        });
        assert_eq!(c.now(), 7999);
    }

    #[test]
    fn a_wall_clock_passes_without_being_advanced() {
        let c = VClock::wall();
        let (before, clone) = (c.now(), c.clone());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(clone.now() >= before + 5 * MILLIS, "clones follow the wall");
        // Advancing past the wall holds until the wall catches up.
        let ahead = c.now() + SECONDS;
        c.advance_to(ahead);
        assert!(c.now() >= ahead);
    }

    /// The regression the anchor exists for: before it, every clock
    /// read resampled `SystemTime`, so an NTP step backwards pinned the
    /// transport clock (`advance_to` is monotone) for the whole
    /// regression window — frames all stamped identically, hop
    /// latencies zero, outbound datagrams aging toward the peer's
    /// replay horizon. The anchored clock takes one wall sample and
    /// extends it monotonically, so a post-bind step in either
    /// direction is invisible.
    #[test]
    fn transport_clock_survives_backwards_wall_step() {
        // Bind-time wall reading: T0 = 10 s after the epoch.
        let t0 = 10 * SECONDS;
        let anchor = WallAnchor::at(t0);
        let clock = VClock::new();
        clock.advance_to(anchor.now_ns());
        let at_bind = clock.now();
        assert!(at_bind >= t0);

        // NTP now steps the wall back 5 s. A resampling implementation
        // would feed this into advance_to and pin the clock until the
        // wall catches back up.
        let stepped_wall = t0 - 5 * SECONDS;
        clock.advance_to(stepped_wall); // monotone: pins, never regresses
        assert_eq!(clock.now(), at_bind, "advance_to must never go back");

        // The anchored clock keeps moving through the regression window.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = clock.advance_to(anchor.now_ns());
        assert!(
            after > at_bind,
            "anchored transport clock froze across a wall regression"
        );
        // And it stays on the bind-time epoch, not the stepped one.
        assert!(after > stepped_wall + 4 * SECONDS);
    }

    /// Two samples of the same anchor never run backwards, regardless
    /// of what `SystemTime` does in between (it is never re-read).
    #[test]
    fn wall_anchor_is_monotone() {
        let anchor = WallAnchor::new();
        let mut last = anchor.now_ns();
        for _ in 0..1000 {
            let next = anchor.now_ns();
            assert!(next >= last);
            last = next;
        }
    }

    #[test]
    fn unit_constants() {
        assert_eq!(MILLIS, 1_000 * MICROS);
        assert_eq!(SECONDS, 1_000 * MILLIS);
    }

    #[test]
    fn fmt_ns_picks_the_human_unit() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(50 * MILLIS), "50.0ms");
        assert_eq!(fmt_ns(2 * SECONDS + SECONDS / 4), "2.25s");
    }
}
