//! The trace inspector: causal-timeline reconstruction from a harness run.
//!
//! `experiments trace <artifact>` re-executes a replayable failure
//! artifact (`TESTING.md`) with causal tracing switched on — determinism
//! guarantees the re-execution reproduces the recorded run event for
//! event — and then renders what actually happened: per-query timelines
//! (issue → per-hop scan traffic → completion), crash/takeover cascades,
//! and a per-layer cost summary from the metrics registry. For an artifact
//! it first prints one `replay:` line saying whether the re-execution
//! reproduced the recorded violations (CI's trace-smoke job greps it).
//! `--profile P --seed S` inspects a fresh generated run instead (green runs
//! are traceable too). `--chrome PATH` additionally writes Chrome
//! trace-event JSON loadable in `chrome://tracing` / Perfetto.
//!
//! Usage (via the `experiments` binary):
//!
//! ```text
//! cargo run --release -p pepper-bench -- trace ARTIFACT [--chrome PATH] \
//!     [--timelines K]
//! cargo run --release -p pepper-bench -- trace --profile quick --seed 1 \
//!     [--ops N] [--chrome PATH] [--timelines K]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use pepper_sim::harness::{FailureArtifact, Harness, HarnessConfig, Violation};
use pepper_sim::{chrome_trace_json, Cid, TraceConfig, TraceEvent};

/// Ring capacity used for inspection: deep enough that short harness runs
/// never evict, so reconstructed timelines are complete.
const INSPECT_RING: usize = 1 << 16;

/// Event kinds that mark a chain as a failure-handling cascade.
const CASCADE_KINDS: [&str; 5] = [
    "SuccessorFailed",
    "PredTakeover",
    "TakeoverExtend",
    "RestartRejoin",
    "NewSuccessor",
];

/// Periodic-maintenance kinds elided from cascade rendering: failure
/// cascades ride the ping-timer chain that detected them, so their cid is
/// shared with every routine tick that chain ever fired — signal, not the
/// ticks, is what the timeline should show.
const PERIODIC_KINDS: [&str; 15] = [
    "PingTick",
    "Ping",
    "PingReply",
    "PingTimeout",
    "StabilizeTick",
    "StabilizeNow",
    "StabRequest",
    "StabResponse",
    "RefreshTick",
    "RefreshDue",
    "MaintainTick",
    "GetEntry",
    "EntryReply",
    "SnapshotTick",
    "SnapshotDue",
];

/// One causal chain: every event sharing a correlation id, across peers,
/// in virtual-time order.
struct Chain {
    cid: Cid,
    events: Vec<TraceEvent>,
}

impl Chain {
    fn peers(&self) -> usize {
        let set: std::collections::BTreeSet<u64> = self.events.iter().map(|e| e.peer).collect();
        set.len()
    }

    fn span_nanos(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => 0,
        }
    }

    fn has_kind(&self, kind: &str) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    fn is_query(&self) -> bool {
        self.has_kind("RangeQuery")
    }

    fn is_complete_query(&self) -> bool {
        self.is_query() && self.has_kind("QueryCompleted")
    }

    fn is_cascade(&self) -> bool {
        CASCADE_KINDS.iter().any(|k| self.has_kind(k))
    }

    /// How many failure-handling events the chain carries — the sort key
    /// for "most interesting cascade" (chain length would just rank the
    /// longest-lived timer chain first).
    fn cascade_signal(&self) -> usize {
        self.events
            .iter()
            .filter(|e| CASCADE_KINDS.contains(&e.kind))
            .count()
    }

    fn render(&self, out: &mut String, elide_periodic: bool) {
        let shown: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| !elide_periodic || !PERIODIC_KINDS.contains(&e.kind))
            .collect();
        let elided = self.events.len() - shown.len();
        let _ = write!(
            out,
            "  chain {}: {} events, {} peers, {} virtual-ns",
            self.cid,
            self.events.len(),
            self.peers(),
            self.span_nanos()
        );
        let _ = if elided > 0 {
            writeln!(out, " ({elided} periodic events elided)")
        } else {
            writeln!(out)
        };
        for ev in shown {
            let _ = writeln!(out, "    {ev}");
        }
    }
}

/// The verdict line on a replayed artifact: the replay reproduced the
/// recorded run iff it ended in as many violations, of the same invariants,
/// in the same order.
fn replay_verdict(recorded: &[Violation], replayed: &[Violation], trace_hash: u64) -> String {
    let same = recorded.len() == replayed.len()
        && recorded
            .iter()
            .zip(replayed)
            .all(|(a, b)| a.invariant == b.invariant);
    if same {
        format!(
            "replay: reproduced the recorded run ({} violation(s), trace hash {trace_hash:#x})",
            recorded.len()
        )
    } else {
        format!(
            "replay: DIVERGED from the recorded run ({} violation(s) recorded, {} replayed) \
             — the protocol code has changed since the dump",
            recorded.len(),
            replayed.len()
        )
    }
}

/// Groups every peer's buffer into causal chains (events sharing a cid),
/// dropping the `c-` sentinel, ordered by root id — i.e. by when each
/// chain's root stimulus entered the simulation.
fn chains(traces: &[(pepper_types::PeerId, Vec<TraceEvent>)]) -> Vec<Chain> {
    let mut by_cid: BTreeMap<Cid, Vec<TraceEvent>> = BTreeMap::new();
    for (_, events) in traces {
        for ev in events {
            if !ev.cid.is_none() {
                by_cid.entry(ev.cid).or_default().push(ev.clone());
            }
        }
    }
    by_cid
        .into_iter()
        .map(|(cid, mut events)| {
            events.sort_by_key(|e| (e.at, e.peer));
            Chain { cid, events }
        })
        .collect()
}

/// Runs the inspector. Returns the process exit code: non-zero on parse /
/// replay / render errors (the CI smoke contract), zero otherwise — an
/// inspected run being red is the expected case, not an error.
pub fn run(args: &[String]) -> i32 {
    let mut artifact_path: Option<PathBuf> = None;
    let mut profile: Option<String> = None;
    let mut seed = 0u64;
    let mut ops: Option<usize> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut timelines = 3usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => match it.next() {
                Some(p) => profile = Some(p.clone()),
                None => {
                    eprintln!("--profile needs a name");
                    return 2;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number");
                    return 2;
                }
            },
            "--ops" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => ops = Some(n),
                None => {
                    eprintln!("--ops needs a number");
                    return 2;
                }
            },
            "--chrome" => match it.next() {
                Some(p) => chrome = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--chrome needs a path");
                    return 2;
                }
            },
            "--timelines" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => timelines = k,
                None => {
                    eprintln!("--timelines needs a number");
                    return 2;
                }
            },
            other if artifact_path.is_none() && !other.starts_with('-') => {
                artifact_path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown trace flag `{other}`");
                return 2;
            }
        }
    }

    // Reconstruct the run, traced.
    let trace_cfg = TraceConfig::enabled().with_ring_capacity(INSPECT_RING);
    let (source, report, recorded) = if let Some(path) = artifact_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return 2;
            }
        };
        let artifact = match FailureArtifact::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("cannot parse {}: {e}", path.display());
                return 2;
            }
        };
        let mut cfg = match HarnessConfig::from_profile(&artifact.profile, artifact.seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("artifact references unknown profile: {e}");
                return 2;
            }
        };
        cfg.trace = trace_cfg;
        let source = format!(
            "artifact {} (profile {}, seed {}, step {})",
            path.display(),
            artifact.profile,
            artifact.seed,
            artifact.step
        );
        let report = Harness::replay(cfg, &artifact.trace);
        (source, report, Some(artifact.violations))
    } else if let Some(profile) = profile {
        let mut cfg = match HarnessConfig::from_profile(&profile, seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        if let Some(n) = ops {
            cfg.ops = n;
        }
        cfg.trace = trace_cfg;
        let source = format!("generated run (profile {profile}, seed {seed})");
        let report = Harness::run_generated(cfg);
        // A red generated run freezes a replayable artifact exactly like a
        // red test would; dump it so the inspector can be re-pointed at the
        // file (and so CI's trace-smoke job has an artifact to chain on).
        if let Some(artifact) = &report.artifact {
            match artifact.dump_to(&FailureArtifact::dump_dir()) {
                Ok(path) => println!("violation artifact dumped to {}", path.display()),
                Err(e) => eprintln!("failed to dump violation artifact: {e}"),
            }
        }
        (source, report, None)
    } else {
        eprintln!("usage: trace ARTIFACT | trace --profile P --seed S [--ops N]");
        return 2;
    };

    let mut out = String::new();
    let _ = writeln!(out, "== traced {source} ==");
    let _ = writeln!(
        out,
        "{} ops, {} events, {} violations, {} traced peers",
        report.trace.len(),
        report.net.events_processed,
        report.violations.len(),
        report.traces.len()
    );
    for v in &report.violations {
        let _ = writeln!(
            out,
            "  violation: {} {:?} {}",
            v.invariant, v.peers, v.details
        );
    }
    if let Some(recorded) = &recorded {
        let verdict = replay_verdict(recorded, &report.violations, report.trace.hash());
        let _ = writeln!(out, "{verdict}");
    }

    let all = chains(&report.traces);
    let queries: Vec<&Chain> = all.iter().filter(|c| c.is_complete_query()).collect();
    let cascades: Vec<&Chain> = all.iter().filter(|c| c.is_cascade()).collect();

    let _ = writeln!(
        out,
        "\n== causal chains: {} total, {} complete queries, {} failure cascades ==",
        all.len(),
        queries.len(),
        cascades.len()
    );

    // The longest complete query timelines (most hops = most interesting).
    let _ = writeln!(out, "\n== query timelines (longest {timelines}) ==");
    let mut by_len: Vec<&Chain> = queries.clone();
    by_len.sort_by_key(|c| std::cmp::Reverse(c.events.len()));
    for chain in by_len.iter().take(timelines) {
        chain.render(&mut out, false);
    }

    let _ = writeln!(out, "\n== failure cascades (top {timelines}) ==");
    let mut by_signal: Vec<&Chain> = cascades.clone();
    by_signal.sort_by_key(|c| std::cmp::Reverse(c.cascade_signal()));
    for chain in by_signal.iter().take(timelines) {
        chain.render(&mut out, true);
    }

    // Per-layer cost: how many trace events each layer logged, then the
    // metrics registry's counters and virtual-time histograms.
    let _ = writeln!(out, "\n== per-layer cost ==");
    let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, events) in &report.traces {
        for ev in events {
            *per_layer.entry(ev.layer).or_insert(0) += 1;
        }
    }
    for (layer, n) in &per_layer {
        let _ = writeln!(out, "  {layer}: {n} trace events");
    }
    let _ = write!(out, "{}", report.metrics.render());

    print!("{out}");

    if let Some(path) = chrome {
        let streams: Vec<(u64, Vec<TraceEvent>)> = report
            .traces
            .iter()
            .map(|(p, evs)| (p.raw(), evs.clone()))
            .collect();
        match std::fs::write(&path, chrome_trace_json(&streams)) {
            Ok(()) => println!("wrote chrome trace to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return 2;
            }
        }
    }

    // The CI smoke contract: a traced run that produced no reconstructable
    // chains at all means the instrumentation (or the renderer) broke.
    if all.is_empty() {
        eprintln!("trace: no causal chains reconstructed — instrumentation broken?");
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cid: Cid, at: u64, peer: u64, layer: &'static str, kind: &'static str) -> TraceEvent {
        TraceEvent {
            at,
            peer,
            cid,
            layer,
            kind,
            detail: String::new(),
        }
    }

    #[test]
    fn chains_group_by_cid_in_causal_order() {
        let cid = Cid::new(5, 1);
        let other = Cid::new(9, 2);
        let traces = vec![
            (
                pepper_types::PeerId(1),
                vec![
                    ev(cid, 10, 1, "ds", "ScanStep"),
                    ev(other, 12, 1, "ring", "Joined"),
                ],
            ),
            (
                pepper_types::PeerId(0),
                vec![
                    ev(cid, 5, 0, "api", "RangeQuery"),
                    ev(cid, 20, 0, "ds", "QueryCompleted"),
                    ev(Cid::NONE, 21, 0, "ring", "Joined"),
                ],
            ),
        ];
        let chains = chains(&traces);
        assert_eq!(chains.len(), 2, "the NONE sentinel must not form a chain");
        let q = chains.iter().find(|c| c.cid == cid).unwrap();
        assert!(q.is_complete_query());
        assert_eq!(q.peers(), 2);
        assert_eq!(q.span_nanos(), 15);
        let kinds: Vec<&str> = q.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["RangeQuery", "ScanStep", "QueryCompleted"]);
        assert!(!chains.iter().find(|c| c.cid == other).unwrap().is_query());
    }

    #[test]
    fn a_replay_reproduces_only_the_same_invariants_in_order() {
        let v = |invariant| Violation {
            invariant,
            peers: Vec::new(),
            details: String::new(),
        };
        let recorded = [v("ring-connectivity"), v("range-partition")];
        let reproduced = |replayed: &[Violation]| {
            replay_verdict(&recorded, replayed, 7).starts_with("replay: reproduced")
        };
        assert!(reproduced(&[v("ring-connectivity"), v("range-partition")]));
        assert!(!reproduced(&[v("range-partition"), v("ring-connectivity")]));
        assert!(!reproduced(&[v("ring-connectivity")]));
        assert!(!reproduced(&[]));
        assert!(replay_verdict(&[], &[], 7).starts_with("replay: reproduced"));
    }
}
