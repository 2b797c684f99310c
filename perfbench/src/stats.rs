//! Exact-sample statistics and the counter arithmetic behind the
//! per-layer metrics.

use ajanta_core::telemetry::HISTO_BUCKETS;
use ajanta_runtime::{Counter, HistoPath, HistoSnapshot};

/// Launch→report latencies of one run's timed agents, in ms. An agent
/// that failed or never reported has no sample and counts as slower than
/// every measured one.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Records one measured latency.
    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// Records an agent that failed or never reported.
    pub fn push_failed(&mut self) {
        self.failed += 1;
    }

    /// Agents recorded, failed ones included.
    pub fn len(&self) -> usize {
        self.samples.len() + self.failed
    }

    /// The nearest-rank `q`-quantile (0 < q ≤ 1) over every recorded
    /// agent: the smallest value with at least `q` of the agents at or
    /// below it, so `n − ⌈q·n⌉` agents lie beyond it. `None` when the
    /// rank falls on a failed agent (or nothing was recorded).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        // The epsilon keeps float error in `q · n` from bumping an exact
        // rank (0.99 · 1000) up by one.
        let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        if rank > self.samples.len() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// in the window).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The counters and histograms summed over every server of a world, plus
/// the transport totals, at one instant.
#[derive(Debug, Clone)]
pub struct LayerSnapshot {
    /// `Counter::ALL` order, summed over servers.
    pub counters: Vec<u64>,
    /// The histograms the per-layer metrics read, merged over servers.
    pub histos: Vec<(HistoPath, HistoSnapshot)>,
    /// `NetStats` fields summed over the world's transports.
    pub messages_delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Socket `write` calls.
    pub write_syscalls: u64,
    /// Frames carried by those writes.
    pub frames_coalesced: u64,
}

/// Histograms a [`LayerSnapshot`] keeps.
pub const HISTOS: [HistoPath; 3] = [
    HistoPath::ReadyDwell,
    HistoPath::SliceDuration,
    HistoPath::Bind,
];

impl LayerSnapshot {
    /// Reads every server journal and transport of `world`.
    pub fn take(world: &ajanta_runtime::World) -> LayerSnapshot {
        let mut counters = vec![0u64; Counter::ALL.len()];
        let mut histos: Vec<(HistoPath, HistoSnapshot)> = HISTOS
            .iter()
            .map(|p| (*p, HistoSnapshot::empty()))
            .collect();
        for server in &world.servers {
            let journal = server.journal();
            for (slot, c) in counters.iter_mut().zip(Counter::ALL) {
                *slot += journal.counter(c);
            }
            for (path, merged) in histos.iter_mut() {
                merged.merge(&journal.histos().get(*path).snapshot());
            }
        }
        let mut snap = LayerSnapshot {
            counters,
            histos,
            messages_delivered: 0,
            bytes_delivered: 0,
            write_syscalls: 0,
            frames_coalesced: 0,
        };
        for t in world.transports() {
            let s = t.stats();
            snap.messages_delivered += s.messages_delivered;
            snap.bytes_delivered += s.bytes_delivered;
            snap.write_syscalls += s.write_syscalls;
            snap.frames_coalesced += s.frames_coalesced;
        }
        snap
    }

    fn counter(&self, c: Counter) -> u64 {
        let i = Counter::ALL
            .iter()
            .position(|x| *x == c)
            .expect("every counter is in Counter::ALL");
        self.counters[i]
    }

    fn histo(&self, p: HistoPath) -> &HistoSnapshot {
        &self
            .histos
            .iter()
            .find(|(q, _)| *q == p)
            .expect("histogram kept by LayerSnapshot")
            .1
    }
}

/// What changed between two [`LayerSnapshot`]s of one world.
#[derive(Debug, Clone)]
pub struct LayerDelta {
    before: LayerSnapshot,
    after: LayerSnapshot,
}

/// A histogram's growth over a window: sample count, sum, and per-bucket
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoDelta {
    /// Samples recorded in the window.
    pub count: u64,
    /// Their exact sum (ns).
    pub sum: u64,
    /// Per-bucket growth (see `ajanta_core::telemetry::Histo`).
    pub buckets: [u64; HISTO_BUCKETS],
}

impl HistoDelta {
    /// Exact mean of the window's samples, in µs.
    pub fn mean_us(&self) -> f64 {
        ratio(self.sum as f64, self.count as f64) / 1e3
    }

    /// Share of the window's samples of at least `2^bits` ns. Exact,
    /// because `2^bits` is a bucket edge: bucket `b` holds `[2^(b-1), 2^b)`.
    pub fn frac_at_least_pow2(&self, bits: usize) -> f64 {
        let over: u64 = self.buckets[bits + 1..].iter().sum();
        ratio(over as f64, self.count as f64)
    }
}

impl LayerDelta {
    /// The change from `before` to `after`.
    pub fn new(before: LayerSnapshot, after: LayerSnapshot) -> LayerDelta {
        LayerDelta { before, after }
    }

    /// Growth of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.after.counter(c).saturating_sub(self.before.counter(c))
    }

    /// Growth of histogram `p`.
    pub fn histo(&self, p: HistoPath) -> HistoDelta {
        let (a, b) = (self.after.histo(p), self.before.histo(p));
        let mut buckets = [0u64; HISTO_BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = a.buckets[i].saturating_sub(b.buckets[i]);
        }
        HistoDelta {
            count: a.count.saturating_sub(b.count),
            sum: a.sum.saturating_sub(b.sum),
            buckets,
        }
    }

    /// Growth of the transport totals: (messages, bytes, writes, frames
    /// written).
    pub fn net(&self) -> (u64, u64, u64, u64) {
        let (a, b) = (&self.after, &self.before);
        (
            a.messages_delivered.saturating_sub(b.messages_delivered),
            a.bytes_delivered.saturating_sub(b.bytes_delivered),
            a.write_syscalls.saturating_sub(b.write_syscalls),
            a.frames_coalesced.saturating_sub(b.frames_coalesced),
        )
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(values: impl IntoIterator<Item = f64>, failed: usize) -> Latencies {
        let mut l = Latencies::default();
        for v in values {
            l.push(v);
        }
        for _ in 0..failed {
            l.push_failed();
        }
        l
    }

    #[test]
    fn nearest_rank_leaves_ten_beyond_p99_of_a_thousand() {
        // Samples 1..=1000 in shuffled order.
        let l = lat((0..1000).map(|i| ((i * 389) % 1000 + 1) as f64), 0);
        assert_eq!(l.quantile(0.99), Some(990.0));
        assert_eq!(l.quantile(0.5), Some(500.0));
        assert_eq!(l.quantile(1.0), Some(1000.0));
        assert_eq!(l.quantile(0.0001), Some(1.0));
    }

    #[test]
    fn failed_agents_count_beyond_every_sample() {
        // 995 measured + 5 failed: the failures take the top five ranks,
        // so p99 is still the 990th smallest sample.
        let l = lat((1..=995).map(f64::from), 5);
        assert_eq!(l.len(), 1000);
        assert_eq!(l.quantile(0.99), Some(990.0));
        assert_eq!(l.quantile(0.5), Some(500.0));
        // Eleven failures: rank 990 itself is a failure.
        let l = lat((1..=989).map(f64::from), 11);
        assert_eq!(l.quantile(0.99), None);
        assert_eq!(l.quantile(0.989), Some(989.0));
        assert_eq!(lat([], 0).quantile(0.5), None);
    }

    #[test]
    fn ratios_and_medians() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn snap(retried: u64, dwell: &[u64], messages: u64) -> LayerSnapshot {
        let mut counters = vec![0u64; Counter::ALL.len()];
        let i = Counter::ALL
            .iter()
            .position(|c| *c == Counter::TransfersRetried)
            .unwrap();
        counters[i] = retried;
        let h = ajanta_core::telemetry::Histo::new();
        for v in dwell {
            h.record(*v);
        }
        LayerSnapshot {
            counters,
            histos: HISTOS
                .iter()
                .map(|p| {
                    let s = if *p == HistoPath::ReadyDwell {
                        h.snapshot()
                    } else {
                        HistoSnapshot::empty()
                    };
                    (*p, s)
                })
                .collect(),
            messages_delivered: messages,
            bytes_delivered: messages * 100,
            write_syscalls: 0,
            frames_coalesced: 0,
        }
    }

    #[test]
    fn deltas_cover_only_the_window() {
        let eight_ms = 1u64 << 23;
        let before = snap(5, &[1_000, eight_ms + 1], 40);
        let after = snap(
            9,
            &[1_000, eight_ms + 1, 3_000, eight_ms - 1, eight_ms, 1 << 30],
            120,
        );
        let d = LayerDelta::new(before, after);
        assert_eq!(d.counter(Counter::TransfersRetried), 4);
        assert_eq!(d.counter(Counter::Rejections), 0);
        let dwell = d.histo(HistoPath::ReadyDwell);
        assert_eq!(dwell.count, 4);
        assert_eq!(dwell.sum, 3_000 + (eight_ms - 1) + eight_ms + (1 << 30));
        // Exactly the samples ≥ 2^23 ns: 2^23 itself and 2^30.
        assert_eq!(dwell.frac_at_least_pow2(23), 0.5);
        assert!((dwell.mean_us() - dwell.sum as f64 / 4.0 / 1e3).abs() < 1e-9);
        assert_eq!(d.histo(HistoPath::Bind).mean_us(), 0.0);
        assert_eq!(d.net(), (80, 8000, 0, 0));
    }
}
