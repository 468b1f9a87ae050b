//! Metric definitions, the per-layer cost model, and what a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::driver::{CounterKey, Measured};
use crate::json::number;
use crate::micro::LayerCosts;
use crate::stats::{median, supported_percentile};
use crate::workloads::Spec;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Whether the value is a function of (workload, seed, seconds) alone —
    /// virtual time and counts — and so repeats exactly on every host.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// What a client of the index sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 9] = [
    host("setup_s", "s"),
    host("host_s", "s"),
    host("peak_rss_mb", "MiB"),
    exact("insert_p50_ms", "ms", "lower"),
    exact("insert_p99_ms", "ms", "lower"),
    exact("query_p50_ms", "ms", "lower"),
    exact("query_p99_ms", "ms", "lower"),
    exact("msgs_per_op", "count", "lower"),
    exact("ok_share", "ratio", "higher"),
];

/// One layer each; the prefix is the layer's tag in the program's metrics
/// registry (`sim` is the benchmark driver itself).
pub const PER_LAYER: [MetricDef; 67] = [
    exact("net.events", "count", "lower"),
    exact("net.msgs_delivered", "count", "lower"),
    exact("net.timers_fired", "count", "lower"),
    MetricDef {
        better: "higher",
        ..host("net.events_per_s", "1/s")
    },
    host("net.ns_per_event", "ns"),
    host("net.cpu_s", "s"),
    exact("net.peak_queue_depth", "count", "lower"),
    exact("net.load_imbalance", "ratio", "lower"),
    host("net.null_ns_per_event", "ns"),
    exact("ring.msgs", "count", "lower"),
    exact("ring.msgs_share", "ratio", "lower"),
    exact("ring.timers", "count", "lower"),
    exact("ring.joins", "count", "lower"),
    exact("ring.leaves", "count", "lower"),
    exact("ring.succ_failed", "count", "lower"),
    exact("ring.insert_succ_p50_ms", "ms", "lower"),
    exact("ring.leave_p50_ms", "ms", "lower"),
    host("ring.handle_ns", "ns"),
    exact("router.msgs", "count", "lower"),
    exact("router.msgs_share", "ratio", "lower"),
    exact("router.timers", "count", "lower"),
    host("router.handle_ns", "ns"),
    exact("index.route_msgs", "count", "lower"),
    exact("index.route_hops_mean", "count", "lower"),
    exact("index.insert_failed", "count", "lower"),
    exact("index.takeovers", "count", "lower"),
    exact("index.takeover_p50_ms", "ms", "lower"),
    exact("index.takeover_max_ms", "ms", "lower"),
    host("index.residual_share", "ratio"),
    exact("ds.msgs", "count", "lower"),
    exact("ds.msgs_share", "ratio", "lower"),
    exact("ds.timers", "count", "lower"),
    exact("ds.scan_hops_p50", "count", "lower"),
    exact("ds.scan_hops_p99", "count", "lower"),
    exact("ds.scan_incomplete", "count", "lower"),
    exact("ds.scan_forward_timeouts", "count", "lower"),
    exact("ds.rerouted", "count", "lower"),
    exact("ds.splits", "count", "lower"),
    exact("ds.merges", "count", "lower"),
    exact("ds.redistributes", "count", "lower"),
    exact("ds.merge_p50_ms", "ms", "lower"),
    host("ds.scan_step_ns", "ns"),
    host("ds.insert_ns", "ns"),
    exact("repl.msgs", "count", "lower"),
    exact("repl.msgs_share", "ratio", "lower"),
    exact("repl.timers", "count", "lower"),
    exact("repl.recover_requests", "count", "lower"),
    exact("repl.recoveries", "count", "lower"),
    host("repl.push_ns", "ns"),
    exact("storage.wal_appends", "count", "lower"),
    exact("storage.snapshot_writes", "count", "lower"),
    exact("storage.wal_records_replayed", "count", "lower"),
    host("storage.restart_us_p50", "us"),
    host("storage.append_ns", "ns"),
    host("storage.snapshot_us", "us"),
    host("storage.replay_ns_per_record", "ns"),
    host("storage.replay_ns_per_record_10x", "ns"),
    host("trace.overhead_frac", "ratio"),
    host("sim.setup_s", "s"),
    host("sim.advance_s", "s"),
    host("sim.issue_s", "s"),
    host("sim.drain_s", "s"),
    host("sim.poll_s", "s"),
    host("sim.check_s", "s"),
    host("sim.model_s", "s"),
    exact("sim.members", "count", "lower"),
    exact("sim.ops", "count", "higher"),
];

/// The message and timer tags of one layer's `Msg` enum, as the program's
/// metrics registry counts them on delivery. Every other counter of the
/// layer is an event note. `tests/selftest.rs` checks the tables against a
/// traced run: the tagged counts must add up to the simulator's own totals.
/// (`Route` and `ScanFailed` also arrive as a peer's own delayed retry; they
/// are listed, and counted, as messages.)
pub struct LayerTags {
    /// Registry layer tag.
    pub layer: &'static str,
    /// Tags delivered over the network.
    pub msgs: &'static [&'static str],
    /// Tags delivered as the peer's own timers.
    pub timers: &'static [&'static str],
}

/// Scan traffic of the datastore (costed with `ds.scan_step_ns`; the rest of
/// the layer's traffic is costed with `ds.insert_ns`).
const SCAN_TAGS: [&str; 8] = [
    "ScanStep",
    "ScanStepAck",
    "ScanRejected",
    "NaiveScanStep",
    "ScanResult",
    "ScanDone",
    "ScanFailed",
    "ScanForwardTimeout",
];

/// Every layer that exchanges messages.
pub const LAYERS: [LayerTags; 6] = [
    LayerTags {
        layer: "ring",
        msgs: &[
            "StabRequest",
            "StabResponse",
            "StabilizeNow",
            "JoinAck",
            "Join",
            "JoinInstalled",
            "NaiveJoin",
            "LeaveAck",
            "Ping",
            "PingReply",
        ],
        timers: &["StabilizeTick", "PingTick", "PingTimeout", "InsertTimeout"],
    },
    LayerTags {
        layer: "router",
        msgs: &["GetEntry", "EntryReply"],
        timers: &["MaintainTick"],
    },
    LayerTags {
        layer: "index",
        msgs: &["Route"],
        timers: &["PredTakeover"],
    },
    LayerTags {
        layer: "ds",
        msgs: &[
            "InsertItem",
            "InsertItemAck",
            "DeleteItem",
            "DeleteItemAck",
            "NotResponsible",
            "ScanStep",
            "ScanStepAck",
            "ScanRejected",
            "NaiveScanStep",
            "ScanResult",
            "ScanDone",
            "ScanFailed",
            "HandoffInstall",
            "HandoffAck",
            "MergeRequest",
            "RedistributeGrant",
            "RedistributeAck",
            "RedistributeAbort",
            "RedistributeAbortAck",
            "MergeGrant",
            "MergeGrantAck",
            "MergeDeclined",
            "LeaveOffer",
            "LeaveOfferAck",
            "LeaveOfferDeclined",
        ],
        timers: &[
            "ScanForwardTimeout",
            "RebalanceRetry",
            "GiveTimeout",
            "LeaveOfferTimeout",
            "LeaveAbsorbTimeout",
        ],
    },
    LayerTags {
        layer: "repl",
        msgs: &["Push", "RecoverRequest", "RecoverReply"],
        timers: &["RefreshTick"],
    },
    LayerTags {
        layer: "storage",
        msgs: &[],
        timers: &["SnapshotTick"],
    },
];

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether the program's metrics registry and the span recorder were on.
    pub traced: bool,
    /// All rounds pooled.
    pub pooled: Measured,
    /// Rounds run (one fewer when traced).
    pub rounds: usize,
    /// `VmHWM` of this process, MiB.
    pub peak_rss_mb: f64,
    /// Process CPU seconds (user + system).
    pub cpu_s: f64,
    /// Micro-driver costs (traced run only).
    pub costs: Option<LayerCosts>,
    /// Traced ÷ untraced measured-phase host time of round 0, minus one.
    pub trace_overhead: Option<f64>,
}

type Values = Vec<(&'static str, Option<f64>)>;

impl Run {
    fn counter(&self, key: CounterKey) -> f64 {
        self.pooled.counters.get(&key).copied().unwrap_or(0) as f64
    }

    fn tagged(&self, layer: &'static str, tags: &[&'static str]) -> f64 {
        tags.iter().map(|t| self.counter((layer, t))).sum()
    }

    /// Every end-to-end metric; `None` where the sample is too small.
    pub fn end_to_end(&self) -> Values {
        let m = &self.pooled;
        let ops = m.issued.total().max(1) as f64;
        vec![
            ("setup_s", median(&m.setup_s)),
            ("host_s", Some(m.host_s)),
            ("peak_rss_mb", Some(self.peak_rss_mb)),
            ("insert_p50_ms", supported_percentile(&m.insert_ms, 50.0)),
            ("insert_p99_ms", supported_percentile(&m.insert_ms, 99.0)),
            ("query_p50_ms", supported_percentile(&m.query_ms, 50.0)),
            ("query_p99_ms", supported_percentile(&m.query_ms, 99.0)),
            ("msgs_per_op", Some(m.msgs_issue_phase as f64 / ops)),
            ("ok_share", Some(1.0 - m.failed.total() as f64 / ops)),
        ]
    }

    /// The cost model: host seconds the layers' unit costs predict for the
    /// work the registry counted, per layer. What it leaves of `sim.advance_s`
    /// unexplained is `index.residual_share`: the composed peer's dispatch,
    /// effect mapping and event reactions, and the memory cost of a thousand
    /// peers' state that no single-layer micro driver sees.
    pub fn model_s(&self) -> Option<BTreeMap<&'static str, f64>> {
        let c = self.costs?;
        let handled = |l: &LayerTags| self.tagged(l.layer, l.msgs) + self.tagged(l.layer, l.timers);
        let by_layer = |name: &str| LAYERS.iter().find(|l| l.layer == name).map_or(0.0, handled);
        let scans = self.tagged("ds", &SCAN_TAGS);
        let mut out = BTreeMap::new();
        out.insert(
            "net",
            self.pooled.net.events_processed as f64 * c.net_null_ns_per_event / 1e9,
        );
        out.insert("ring", by_layer("ring") * c.ring_handle_ns / 1e9);
        out.insert("router", by_layer("router") * c.router_handle_ns / 1e9);
        out.insert(
            "ds",
            (scans * c.ds_scan_step_ns + (by_layer("ds") - scans) * c.ds_insert_ns) / 1e9,
        );
        out.insert("repl", by_layer("repl") * c.repl_push_ns / 1e9);
        out.insert(
            "storage",
            self.counter(("storage", "wal_append")) * c.storage_append_ns / 1e9
                + self.counter(("storage", "snapshot_write")) * c.storage_snapshot_us / 1e6,
        );
        // What the metrics registry itself costs, as measured on round 0.
        let overhead = self.trace_overhead.unwrap_or(0.0).max(0.0);
        out.insert(
            "trace",
            self.pooled.host.advance_s * overhead / (1.0 + overhead),
        );
        Some(out)
    }

    /// Every per-layer metric (traced run); `None` where nothing was sampled.
    pub fn per_layer(&self) -> Values {
        let m = &self.pooled;
        let c = self.costs.unwrap_or_default();
        let wall = m.host.wall_s();
        let delivered = (m.net.messages_delivered as f64).max(1.0);
        let events = m.net.events_processed as f64;
        let msgs = |layer: &'static str| {
            let l = LAYERS
                .iter()
                .find(|l| l.layer == layer)
                .expect("known layer");
            self.tagged(layer, l.msgs)
        };
        let timers = |layer: &'static str| {
            let l = LAYERS
                .iter()
                .find(|l| l.layer == layer)
                .expect("known layer");
            self.tagged(layer, l.timers)
        };
        let n = |layer, name| Some(self.counter((layer, name)));
        let p50 = |v: &[f64]| supported_percentile(v, 50.0);
        let model_s: f64 = self.model_s().map_or(0.0, |m| m.values().sum());
        let routed = m.issued.total() as f64 + self.counter(("ds", "Rerouted"));
        vec![
            ("net.events", Some(events)),
            ("net.msgs_delivered", Some(m.net.messages_delivered as f64)),
            ("net.timers_fired", Some(m.net.timers_fired as f64)),
            ("net.events_per_s", Some(events / wall)),
            ("net.ns_per_event", Some(wall * 1e9 / events.max(1.0))),
            ("net.cpu_s", Some(self.cpu_s)),
            ("net.peak_queue_depth", Some(m.net.peak_queue_depth as f64)),
            ("net.load_imbalance", median(&m.load_imbalance)),
            ("net.null_ns_per_event", Some(c.net_null_ns_per_event)),
            ("ring.msgs", Some(msgs("ring"))),
            ("ring.msgs_share", Some(msgs("ring") / delivered)),
            ("ring.timers", Some(timers("ring"))),
            ("ring.joins", n("ring", "Joined")),
            ("ring.leaves", n("ring", "LeaveComplete")),
            ("ring.succ_failed", n("ring", "SuccessorFailed")),
            ("ring.insert_succ_p50_ms", p50(&m.insert_succ_ms)),
            ("ring.leave_p50_ms", p50(&m.leave_ms)),
            ("ring.handle_ns", Some(c.ring_handle_ns)),
            ("router.msgs", Some(msgs("router"))),
            ("router.msgs_share", Some(msgs("router") / delivered)),
            ("router.timers", Some(timers("router"))),
            ("router.handle_ns", Some(c.router_handle_ns)),
            ("index.route_msgs", n("index", "Route")),
            (
                "index.route_hops_mean",
                Some(self.counter(("index", "Route")) / routed.max(1.0)),
            ),
            ("index.insert_failed", Some(m.failed.insert_failed as f64)),
            ("index.takeovers", n("index", "TakeoverExtend")),
            ("index.takeover_p50_ms", p50(&m.takeover_ms)),
            (
                "index.takeover_max_ms",
                m.takeover_ms.iter().copied().reduce(f64::max),
            ),
            (
                "index.residual_share",
                Some(1.0 - model_s / m.host.advance_s.max(1e-9)),
            ),
            ("ds.msgs", Some(msgs("ds"))),
            ("ds.msgs_share", Some(msgs("ds") / delivered)),
            ("ds.timers", Some(timers("ds"))),
            ("ds.scan_hops_p50", p50(&m.scan_hops)),
            ("ds.scan_hops_p99", supported_percentile(&m.scan_hops, 99.0)),
            ("ds.scan_incomplete", n("ds", "scan_incomplete")),
            ("ds.scan_forward_timeouts", n("ds", "ScanForwardTimeout")),
            ("ds.rerouted", n("ds", "Rerouted")),
            ("ds.splits", n("ds", "HandoffInstall")),
            ("ds.merges", n("ds", "MergeGrant")),
            ("ds.redistributes", n("ds", "RedistributeGrant")),
            ("ds.merge_p50_ms", p50(&m.merge_ms)),
            ("ds.scan_step_ns", Some(c.ds_scan_step_ns)),
            ("ds.insert_ns", Some(c.ds_insert_ns)),
            ("repl.msgs", Some(msgs("repl"))),
            ("repl.msgs_share", Some(msgs("repl") / delivered)),
            ("repl.timers", Some(timers("repl"))),
            ("repl.recover_requests", n("repl", "RecoverRequest")),
            ("repl.recoveries", n("repl", "Recovered")),
            ("repl.push_ns", Some(c.repl_push_ns)),
            ("storage.wal_appends", n("storage", "wal_append")),
            ("storage.snapshot_writes", n("storage", "snapshot_write")),
            (
                "storage.wal_records_replayed",
                Some(m.wal_records_replayed as f64),
            ),
            ("storage.restart_us_p50", median(&m.restart_us)),
            ("storage.append_ns", Some(c.storage_append_ns)),
            ("storage.snapshot_us", Some(c.storage_snapshot_us)),
            (
                "storage.replay_ns_per_record",
                Some(c.storage_replay_ns_short),
            ),
            (
                "storage.replay_ns_per_record_10x",
                Some(c.storage_replay_ns_long),
            ),
            ("trace.overhead_frac", self.trace_overhead),
            ("sim.setup_s", Some(m.setup_s.iter().sum())),
            ("sim.advance_s", Some(m.host.advance_s)),
            ("sim.issue_s", Some(m.host.issue_s)),
            ("sim.drain_s", Some(m.host.drain_s)),
            ("sim.poll_s", Some(m.host.poll_s)),
            ("sim.check_s", Some(m.host.check_s)),
            ("sim.model_s", Some(model_s)),
            ("sim.members", median_usize(&m.members_end)),
            ("sim.ops", Some(m.issued.total() as f64)),
        ]
    }

    /// Sample counts behind the timings.
    pub fn samples(&self) -> Vec<(&'static str, usize)> {
        let m = &self.pooled;
        vec![
            ("setup_s", m.setup_s.len()),
            ("rounds", self.rounds),
            ("insert_ms", m.insert_ms.len()),
            ("query_ms", m.query_ms.len()),
            ("takeover_ms", m.takeover_ms.len()),
            ("insert_succ_ms", m.insert_succ_ms.len()),
            ("leave_ms", m.leave_ms.len()),
            ("merge_ms", m.merge_ms.len()),
            ("restart_us", m.restart_us.len()),
        ]
    }

    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    pub fn values(&self) -> (Values, &'static [MetricDef]) {
        if self.traced {
            (self.per_layer(), &PER_LAYER)
        } else {
            (self.end_to_end(), &END_TO_END)
        }
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let m = &self.pooled;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {} seconds {} trace {} — {}",
            self.spec.name,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.spec.why
        );
        let _ = writeln!(
            s,
            "  open loop in virtual time: one op every {} ms at a random live member, {} rounds x {} ops, \
             warm-up {} virtual s, generator lateness 0 ms (ops are issued at their due virtual instant)",
            self.spec.gap_ms,
            self.rounds,
            m.issued.total() / self.rounds.max(1) as u64,
            crate::workloads::WARMUP_S,
        );
        let _ = writeln!(
            s,
            "  ring members per round: {:?} at start, {:?} after the drain; issued {} inserts, {} deletes, {} queries over {:.0} virtual s",
            m.members_start, m.members_end, m.issued.inserts, m.issued.deletes, m.issued.queries, m.issue_virtual_s
        );
        let (values, defs) = self.values();
        for ((name, value), def) in values.iter().zip(defs) {
            assert_eq!(*name, def.name, "metric order matches its definition");
            let shown = value.map_or("n/a (too few samples)".to_string(), |v| format!("{v:.6}"));
            let _ = writeln!(s, "  {name:<34} {shown} {}", def.unit);
        }
        let counts: Vec<String> = self
            .samples()
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        let _ = writeln!(s, "  samples: {}", counts.join(" "));
        let classes: Vec<String> = m
            .failed
            .classes()
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        let _ = writeln!(
            s,
            "  failed {} of {} ops: {}; takeovers unresolved {}",
            m.failed.total(),
            m.issued.total(),
            classes.join(" "),
            m.takeovers_unresolved
        );
        if let Some(model) = self.model_s() {
            let parts: Vec<String> = model.iter().map(|(l, v)| format!("{l}={v:.3}s")).collect();
            let _ = writeln!(
                s,
                "  cost model (layer count x micro ns): {} of {:.3}s in Cluster::run",
                parts.join(" "),
                m.host.advance_s
            );
        }
        let _ = writeln!(s, "  witness {:016x}", m.witness);
        for e in &m.errors {
            let _ = writeln!(s, "  CORRECTNESS ERROR: {e}");
        }
        s
    }

    /// The detailed result document (`--out`).
    pub fn json(&self) -> String {
        let m = &self.pooled;
        let (values, defs) = self.values();
        let metrics: Vec<String> = values
            .iter()
            .zip(defs)
            .map(|((name, v), d)| {
                format!(
                    "    \"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(*v),
                    d.unit
                )
            })
            .collect();
        let samples: Vec<String> = self
            .samples()
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        let classes: Vec<String> = m
            .failed
            .classes()
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        let errors: Vec<String> = m.errors.iter().map(|e| format!("{e:?}")).collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"witness\": \"{:016x}\",\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"failed_by_class\": {{{}}},\n  \"samples\": {{{}}},\n  \"errors\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}",
            self.spec.name,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            m.witness,
            m.errors.is_empty(),
            m.issued.total(),
            m.failed.total(),
            classes.join(", "),
            samples.join(", "),
            errors.join(", "),
            metrics.join(",\n"),
        )
    }

    /// The one-line result the benchmark contract asks for, or the names of
    /// the end-to-end metrics the run is too short to support.
    pub fn contract_line(&self) -> Result<String, Vec<&'static str>> {
        let (values, defs) = self.values();
        let missing: Vec<&'static str> = values
            .iter()
            .zip(defs)
            .filter(|((_, v), _)| v.is_none() && !self.traced)
            .map(|((name, _), _)| *name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let metrics: Vec<String> = values
            .iter()
            .zip(defs)
            .map(|((name, v), d)| {
                // A per-layer metric nothing was sampled for reads 0.
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(Some(v.unwrap_or(0.0))),
                    d.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.pooled.errors.is_empty(),
            self.pooled.issued.total(),
            self.pooled.failed.total(),
            metrics.join(", ")
        ))
    }
}

fn median_usize(values: &[usize]) -> Option<f64> {
    let values: Vec<f64> = values.iter().map(|v| *v as f64).collect();
    median(&values)
}
