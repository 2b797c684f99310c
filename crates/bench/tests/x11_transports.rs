//! X11's trials beyond the simulation: the attack trials over
//! Unix-domain sockets and the replay across a restart. They run as
//! their own test binary, apart from the crate's wall-clock shape tests,
//! because each spins up socket worlds whose threads would share the
//! CPUs with those timings.

use ajanta_bench::x11_attacks::{restart_replay, run_over};
use ajanta_runtime::TransportMode;

/// The trials over Unix-domain sockets, with the assertions the
/// simulation's trials meet: sealing each frame once, as a datagram,
/// keeps the carried secret hidden and every tampered, forged and
/// replayed frame detected on a real wire too.
#[test]
fn attacks_over_uds_are_detected_as_on_the_simulation() {
    let rows = run_over(TransportMode::Uds, 3);
    let by = |n: &str| rows.iter().find(|r| r.attack.starts_with(n)).unwrap();

    assert_eq!(by("none").completed, 3);
    assert_eq!(by("none").detections, 0);

    let eve = by("eavesdrop");
    assert_eq!(eve.completed, 3);
    assert!(eve.note.contains("visible: no"), "{}", eve.note);

    let tamper = by("tamper");
    assert_eq!(tamper.completed, 0);
    assert!(tamper.detections >= 3);

    let forge = by("forge");
    assert_eq!(forge.completed, 3);
    assert!(forge.detections >= 3);

    let replay = by("replay");
    assert_eq!(replay.completed, 3);
    assert!(replay.detections >= 3);
    assert!(
        replay.replays >= 3,
        "replay detections should be replay-class, got {replay:?}"
    );

    assert_eq!(by("none").replays, 0);

    let drop = by("drop");
    assert_eq!(drop.completed, 0);
}

/// Frames captured before a restart are refused at open, as replays,
/// by the restarted server: every rejection it journals is one, none
/// reaches custody's dedup or admission, and the server still serves a
/// fresh agent.
#[test]
fn replay_across_a_restart_is_refused_at_open() {
    let row = restart_replay(3, 0x0711);
    assert_eq!(row.completed, 3, "{row:?}");
    // Three transfers and three report acks were captured.
    assert!(row.replays >= 6, "{row:?}");
    assert_eq!(row.detections, row.replays, "{row:?}");
    assert!(
        row.note
            .contains(" 0 left to custody dedup, 0 admitted, 0 re-admitted"),
        "{}",
        row.note
    );
    assert!(row.note.ends_with("afterwards completes"), "{}", row.note);
}
