//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer, written to one JSONL file when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `net.datagram.seal`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// The agent URN, for spans about one agent.
    pub agent: Option<String>,
}

/// Collects spans when enabled; when disabled, [`Tracer::span`] only
/// runs its closure, so untraced runs pay nothing but a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back and
    /// the new span's id, to nest children under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Tracer, u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let r = f(self, id);
        let t1 = Instant::now();
        self.push(id, parent, name, t0, t1, None);
        r
    }

    /// Records a root span whose start and end were observed apart (an
    /// agent's launch→report).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        agent: &impl std::fmt::Display,
    ) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.push(id, None, name, start, end, Some(agent.to_string()));
        }
    }

    fn push(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        agent: Option<String>,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            agent,
        });
    }

    /// Every span recorded so far, in the order they finished.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let agent = s
                .agent
                .as_ref()
                .map_or("null".to_string(), |a| format!("\"{a}\""));
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"agent\":{}}}",
                s.id, parent, s.name, s.start_ns, s.dur_ns, selfs[&s.id], agent
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, lo);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            dur_ns,
            agent: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50; a third 60..70.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 30),
            span(4, Some(1), 60, 10),
            // A grandchild is charged to its own parent only.
            span(5, Some(4), 62, 5),
            // A child running past its parent's end is clipped.
            span(6, None, 200, 10),
            span(7, Some(6), 205, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&4], 5);
        assert_eq!(selfs[&5], 5);
        assert_eq!(selfs[&6], 5);
    }

    #[test]
    fn disabled_tracer_runs_closures_and_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", None, |t, _| t.span("b", None, |_, _| 7)), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.span("a", None, |t, id| t.span("b", Some(id), |_, _| ()));
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("b", Some(1)), ("a", None)]);
    }
}
