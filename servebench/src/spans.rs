//! In-memory span recorder of the traced run, written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: session seed and frame number, when the span serves one
    /// frame of one session.
    pub request: Option<(u64, u64)>,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<(u64, u64)>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records children laid end to end from `start`, one per measured
    /// duration. Used for the pipeline stages, which report durations but
    /// no timestamps: their placement inside the parent is nominal, their
    /// lengths are measured.
    pub fn record_sequence(
        &mut self,
        parent: usize,
        start: Instant,
        children: &[(&'static str, Duration)],
        request: Option<(u64, u64)>,
    ) {
        let mut at = start;
        for &(name, duration) in children {
            let end = at + duration;
            self.record(name, at, end, Some(parent), request);
            at = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(covered) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(child_ns);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |(seed, frame)| {
                format!("\"{seed}:{frame}\"")
            });
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let t0 = Instant::now();
        let parent = r.record(
            "frame",
            t0,
            t0 + Duration::from_micros(100),
            None,
            Some((7, 0)),
        );
        r.record_sequence(
            parent,
            t0,
            &[
                ("knn", Duration::from_micros(30)),
                ("refine", Duration::from_micros(20)),
            ],
            Some((7, 0)),
        );
        let times = r.self_times();
        assert_eq!(times["frame"], (1, 100_000, 50_000));
        assert_eq!(times["knn"], (1, 30_000, 30_000));
        let lines = r.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"parent\":0"));
        assert!(lines.contains("\"request\":\"7:0\""));
    }
}
