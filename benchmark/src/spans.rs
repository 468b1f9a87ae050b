//! The benchmark's own spans: one around every call into the program.
//!
//! Spans are kept in memory and written out when the run ends. They are
//! recorded only on the traced run; the untraced run still gets every
//! duration back from [`Spans::end`], because the end-to-end `host_s` is the
//! sum of the spans around the program and excludes the oracle checks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `phase.step` (`setup.load`, `run.advance`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An open span (returned by [`Spans::begin`], consumed by [`Spans::end`]).
#[derive(Debug)]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; with `record` false it only times.
    pub fn new(record: bool) -> Self {
        Spans {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (started - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes `open` (spans close innermost first) and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans close innermost first");
            self.spans[i].end_ns = (now - self.origin).as_nanos() as u64;
        }
        now - open.started
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: a span's duration minus the part
    /// its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The span file: `{"names": [...], "spans": [[name, start_ns, end_ns,
    /// parent], ...]}` with `name` an index into `names` and `parent` an
    /// index into `spans` (−1 for a root).
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "[{name},{},{},{parent}]{sep}\n",
                s.start_ns, s.end_ns
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        out.push_str(&format!("], \"names\": [{}]}}\n", names.join(", ")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        std::thread::sleep(Duration::from_millis(2));
        s.end(inner);
        s.end(outer);
        let own = s.self_seconds();
        assert!(own["inner"] >= 0.002);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.to_json().contains("\"names\": [\"outer\", \"inner\"]"));
    }

    #[test]
    fn untraced_recorder_only_times() {
        let mut s = Spans::new(false);
        let o = s.begin("x");
        assert!(s.end(o) < Duration::from_secs(1));
        assert!(s.spans().is_empty());
    }
}
