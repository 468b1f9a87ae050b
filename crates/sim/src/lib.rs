//! Simulation harness and experiment drivers.
//!
//! This crate turns the composed peer ([`pepper_index::PeerNode`]) plus the
//! discrete-event substrate into runnable experiments:
//!
//! * [`cluster`] — a convenience wrapper that bootstraps an index (first
//!   peer + free peers), drives workloads (item inserts/deletes, range
//!   queries, peer arrivals, failures) and collects observations;
//! * [`metrics`] — the mean of a sample set and the figures' result-table
//!   printing;
//! * [`workload`] — deterministic key generators (uniform and Zipf-skewed);
//! * [`harness`] — the deterministic fault-injection harness: seeded random
//!   op schedules, a model oracle, whole-system invariant checkers, and
//!   replayable failure artifacts (see `TESTING.md`);
//! * [`experiments`] — one driver per figure of the paper's evaluation
//!   (Figures 19–23) plus the correctness / availability / item-availability
//!   / load-balance ablations (the driver table is in [`experiments`]).
//!
//! Every experiment runs in virtual time on the deterministic simulator, so
//! results are reproducible for a given seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig};
pub use harness::{Harness, HarnessConfig, RunReport};
pub use metrics::Table;
// Observability knobs and collectors, re-exported so harness drivers (bench,
// integration tests) can name them without depending on `pepper-trace`
// directly.
pub use pepper_trace::{chrome_trace_json, render_trace, Cid, Metrics, TraceConfig, TraceEvent};
