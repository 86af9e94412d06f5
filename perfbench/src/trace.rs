//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into each layer's public functions; they live in memory and are written
//! out once, at exit. A span's *self time* is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// A single-threaded span tree. Disabled recorders time nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end = Some(Instant::now());
        self.open.pop();
        out
    }

    fn duration(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        s.end
            .map_or(Duration::ZERO, |e| e.saturating_duration_since(s.start))
    }

    /// Self time of every closed span, in recording order.
    fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                covered[p] += self.duration(id);
            }
        }
        (0..self.spans.len())
            .map(|id| self.duration(id).saturating_sub(covered[id]))
            .collect()
    }

    /// Self times grouped by span name, in milliseconds, one entry per
    /// occurrence.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t.as_secs_f64() * 1e3);
        }
        out
    }

    /// For each closed span named `root`, the time its descendants cover
    /// (the sum of their self times), in milliseconds.
    pub fn covered_ms(&self, root: &str) -> Vec<f64> {
        let self_times = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, _)| (self.duration(id).saturating_sub(self_times[id])).as_secs_f64() * 1e3)
            .collect()
    }

    /// The span list as JSON lines: name, parent index, start offset and
    /// duration (microseconds), and self time.
    pub fn to_json_lines(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::new();
        for (id, (s, t)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"dur_us\":{},\"self_us\":{}}}\n",
                s.name,
                s.start.saturating_duration_since(self.origin).as_micros(),
                self.duration(id).as_micros(),
                t.as_micros(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(true);
        r.span("root", |r| {
            r.span("a", |_| ());
            r.span("b", |r| r.span("b.inner", |_| ()));
        });
        // Pin the durations so the test does not depend on timing.
        let t0 = Instant::now();
        for (id, ms) in [(0, 100), (1, 30), (2, 20), (3, 5)] {
            r.spans[id].start = t0;
            r.spans[id].end = Some(t0 + Duration::from_millis(ms));
        }
        let by_name = r.self_ms_by_name();
        assert_eq!(by_name["root"], vec![50.0]);
        assert_eq!(by_name["a"], vec![30.0]);
        assert_eq!(by_name["b"], vec![15.0]);
        assert_eq!(by_name["b.inner"], vec![5.0]);
        // Descendants of root: a (30) + b (15) + b.inner (5).
        assert_eq!(r.covered_ms("root"), vec![50.0]);
        assert_eq!(r.to_json_lines().lines().count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("x", |r| r.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(r.self_ms_by_name().is_empty());
    }
}
