//! Trace sinks and the per-peer tracer handle.

use std::collections::VecDeque;

use crate::cid::Cid;
use crate::event::TraceEvent;

/// A bounded ring buffer of trace events: keeps the most recent
/// `capacity` events, counting what it evicts.
///
/// Recording is deterministic: what is kept or evicted depends only on the
/// events recorded, never on wall time or thread identity. The stack never
/// calls [`RingSink::record`] unless a sink is installed (see [`Tracer`]),
/// so the sink needs no fast path of its own for the disabled case.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring sink retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }

    /// How many events were evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The per-peer tracing handle: either off (the default — every record
/// call reduces to an inlined `Option` check and the event, including its
/// detail string, is never built) or recording into a boxed [`RingSink`].
///
/// The tracer also carries the *current* correlation id, stamped by the
/// node at the start of each event handling, so deeper layers can record
/// without threading the id through every call.
#[derive(Debug, Default)]
pub struct Tracer {
    cid: Option<Cid>,
    sink: Option<Box<RingSink>>,
}

impl Tracer {
    /// The disabled tracer.
    pub fn off() -> Self {
        Tracer::default()
    }

    /// A tracer recording into a fresh [`RingSink`] of the given capacity.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            cid: None,
            sink: Some(Box::new(RingSink::new(capacity))),
        }
    }

    /// Whether events are being recorded. Callers building expensive
    /// details should branch on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Stamps the correlation id of the event currently being handled.
    #[inline]
    pub fn set_cid(&mut self, cid: Cid) {
        if self.sink.is_some() {
            self.cid = Some(cid);
        }
    }

    /// The correlation id of the event currently being handled.
    pub fn cid(&self) -> Cid {
        self.cid.unwrap_or(Cid::NONE)
    }

    /// Records one event under the current correlation id. `detail` is
    /// only invoked when a sink is installed.
    #[inline]
    pub fn record(
        &mut self,
        at: u64,
        peer: u64,
        layer: &'static str,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(sink) = &mut self.sink {
            sink.record(TraceEvent {
                at,
                peer,
                cid: self.cid.unwrap_or(Cid::NONE),
                layer,
                kind,
                detail: detail(),
            });
        }
    }

    /// Seeds the sink with events recorded by a predecessor of this tracer
    /// (a crashed node's pre-crash buffer, carried across its restart so a
    /// post-mortem still sees the events leading up to the crash). The ring
    /// bound applies as usual; no-op when disabled.
    pub fn preload(&mut self, events: Vec<TraceEvent>) {
        if let Some(sink) = &mut self.sink {
            for ev in events {
                sink.record(ev);
            }
        }
    }

    /// The retained events, oldest first (empty when disabled).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.sink.as_ref().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// Events evicted by the bounded sink so far.
    pub fn dropped(&self) -> u64 {
        self.sink.as_ref().map(|s| s.dropped()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            peer: 0,
            cid: Cid::NONE,
            layer: "net",
            kind: "t",
            detail: String::new(),
        }
    }

    #[test]
    fn ring_sink_bounds_and_counts() {
        let mut sink = RingSink::new(2);
        sink.record(ev(1));
        sink.record(ev(2));
        sink.record(ev(3));
        assert_eq!(sink.dropped(), 1);
        let kept: Vec<u64> = sink.snapshot().iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_detail() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.set_cid(Cid::new(1, 1));
        t.record(0, 0, "net", "t", || {
            unreachable!("detail must not be built")
        });
        assert!(t.snapshot().is_empty());
        assert_eq!(t.cid(), Cid::NONE, "disabled tracer tracks no cid");
    }

    #[test]
    fn enabled_tracer_stamps_current_cid() {
        let mut t = Tracer::ring(8);
        t.set_cid(Cid::new(10, 3));
        t.record(10, 7, "ds", "ScanStep", || "hop=0".into());
        t.set_cid(Cid::new(20, 9));
        t.record(20, 7, "ds", "ScanDone", String::new);
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cid, Cid::new(10, 3));
        assert_eq!(evs[1].cid, Cid::new(20, 9));
        assert_eq!(t.dropped(), 0);
    }
}
