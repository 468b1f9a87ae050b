//! Deterministic causal tracing and metrics for the PEPPER stack.
//!
//! The paper's correctness arguments are about *event interleavings*: which
//! scan hop overlapped which split, which stabilization round noticed which
//! failure. This crate is the instrument that makes those interleavings
//! visible without perturbing them:
//!
//! * [`Cid`] — a correlation id minted from `(virtual time, sequence
//!   number)` at every root cause (an external request, a harness API call)
//!   and inherited by every message and timer scheduled while handling an
//!   event that carried it. Because both components are canonical simulator
//!   state — never wall clocks, never RNG draws — traces are byte-identical
//!   across thread counts and shard layouts.
//! * [`TraceEvent`] / [`Tracer`] — structured events
//!   recorded into a bounded per-peer ring buffer ([`RingSink`]). The
//!   disabled default ([`Tracer::off`]) reduces every record call to an
//!   inlined discriminant check, so tracing costs nothing measurable when
//!   off.
//! * [`Metrics`] — a per-layer registry of counters and log₂ virtual-time
//!   histograms (messages by kind, timer fires, takeovers, WAL appends,
//!   scan hop latencies), aggregatable across peers.
//! * [`chrome_trace_json`] — renders a trace as Chrome trace-event JSON
//!   loadable in `chrome://tracing` / Perfetto.
//!
//! Determinism contract: everything recorded here is derived from virtual
//! time, canonical sequence numbers and node state. Rendering the trace of
//! two runs of the same seed must produce the same bytes — the same-seed
//! test of `tests/harness_invariants.rs` holds the whole stack to that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chrome;
mod cid;
mod event;
mod metrics;
mod sink;

pub use chrome::chrome_trace_json;
pub use cid::Cid;
pub use event::{render_trace, TraceEvent};
pub use metrics::{Histogram, Metrics};
pub use sink::{RingSink, Tracer};

/// Per-peer tracing/metrics configuration, threaded from the harness down
/// to every composed peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record [`TraceEvent`]s into a per-peer ring buffer.
    pub tracing: bool,
    /// Capacity of each peer's ring buffer (oldest events are evicted).
    pub ring_capacity: usize,
    /// Maintain the per-layer [`Metrics`] registry.
    pub metrics: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            tracing: false,
            ring_capacity: 256,
            metrics: false,
        }
    }
}

impl TraceConfig {
    /// Everything off — the zero-overhead default.
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Tracing and metrics both on, with the default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            tracing: true,
            ring_capacity: 256,
            metrics: true,
        }
    }

    /// Builder: sets the per-peer ring-buffer capacity.
    pub fn with_ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off() {
        let off = TraceConfig::off();
        assert_eq!(off, TraceConfig::default());
        assert!(!off.tracing && !off.metrics);
        let on = TraceConfig::enabled().with_ring_capacity(16);
        assert!(on.tracing && on.metrics);
        assert_eq!(on.ring_capacity, 16);
    }
}
