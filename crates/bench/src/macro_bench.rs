//! The macro benchmark: whole-system harness runs at increasing scale.
//!
//! Runs the fault-injection harness profiles at N ∈ {32, 128, 512, 4096}
//! peers (`standard` / `medium` / `large` / `xlarge`), measures wall time,
//! event throughput, message volume, the memory proxies the simulator
//! tracks (peak event queue depth + peak FIFO-channel count), the
//! crash-restart recovery counters, a hop-count histogram over every
//! completed range query and a per-peer delivered-load profile (the
//! baselines any routing-depth or load-balancing work has to beat), and
//! writes the results to `BENCH_macro.json` at the repository root.
//! The file is committed so every future PR can diff its perf trajectory
//! against the previous one; CI runs a reduced `--smoke` variant that
//! fails only on panic or invariant violation, never on timing noise.
//!
//! Usage (via the `experiments` binary):
//!
//! ```text
//! cargo run --release -p pepper-bench -- macro \
//!     [--smoke] [--seeds K] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use pepper_sim::harness::{matrix_seed, FailureArtifact, Harness, HarnessConfig, RunReport};
use pepper_sim::TraceConfig;

/// The trace configuration macro-bench runs execute under: the metrics
/// registry on (its per-layer counters land in the committed JSON), causal
/// tracing off (the committed events/sec trajectory measures the
/// tracing-disabled fast path).
pub fn bench_trace_config() -> TraceConfig {
    TraceConfig {
        tracing: false,
        metrics: true,
        ..TraceConfig::off()
    }
}

/// Schema identifier written into the JSON (bump on layout changes). The
/// file holds `schema`, `smoke` and `runs`: one row per `(profile, seed)`
/// with its determinism witnesses (`trace_hash`, `final_state_hash`), its
/// hop-count histogram and interpolated percentiles, its per-peer load
/// summary and its per-layer metrics registry, collected with tracing off.
pub const SCHEMA: &str = "pepper-bench-macro/v6";

/// Default output path: `BENCH_macro.json` at the repository root.
pub fn default_out_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_macro.json"
    ))
}

/// Percentile over a sorted slice, linearly interpolated between the two
/// nearest ranks (the "exclusive" definition used by numpy's default): the
/// p-th percentile sits at fractional rank `p/100 · (n−1)`. Nearest-rank
/// rounding collapses p99 onto the max for any sample smaller than 100
/// observations, which is exactly the regime the per-rung load summaries
/// live in.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

/// One measured harness run.
struct MacroRun {
    profile: String,
    peers: usize,
    ops: usize,
    seed: u64,
    wall_ms: f64,
    virtual_ms: u64,
    expected_virtual_ms: u64,
    events: u64,
    events_per_sec: f64,
    messages_sent: u64,
    messages_delivered: u64,
    peak_queue_depth: u64,
    peak_fifo_channels: u64,
    rss_proxy_peak: u64,
    final_ring_members: usize,
    trace_ops: usize,
    trace_hash: u64,
    final_state_hash: u64,
    kills: usize,
    restarts: usize,
    wal_records_replayed: u64,
    queries_checked: usize,
    queries_incomplete: usize,
    violations: usize,
    /// Histogram of routing hops per completed query: `hop_histogram[h]` =
    /// number of queries that took `h` hops (tail clamped into the last
    /// bucket).
    hop_histogram: Vec<u64>,
    hops_p50: f64,
    hops_p99: f64,
    hops_max: u64,
    /// Per-peer delivered-event load summary (messages + timers).
    load_mean: f64,
    load_p50: f64,
    load_p99: f64,
    load_max: u64,
    /// `load_max / load_mean`: the load-imbalance factor the D3-tree-style
    /// balancing work will target.
    load_imbalance: f64,
    /// Pre-rendered JSON of the per-layer metrics counters.
    metrics_json: String,
    /// Pre-rendered JSON of the per-layer metrics histogram summaries.
    metrics_hist_json: String,
}

/// Largest tracked hop count; longer routes land in the final bucket.
const HOP_BUCKETS: usize = 32;

impl MacroRun {
    fn from_report(wall_s: f64, run: RunMeta, report: &RunReport) -> Self {
        let mut hops: Vec<u64> = report.query_hops.iter().map(|&h| u64::from(h)).collect();
        hops.sort_unstable();
        let mut hop_histogram = vec![0u64; HOP_BUCKETS];
        for &h in &hops {
            hop_histogram[(h as usize).min(HOP_BUCKETS - 1)] += 1;
        }
        // Drop trailing empty buckets so the JSON stays readable.
        while hop_histogram.len() > 1 && *hop_histogram.last().unwrap() == 0 {
            hop_histogram.pop();
        }
        let mut load: Vec<u64> = report.peer_deliveries.iter().map(|&(_, n)| n).collect();
        load.sort_unstable();
        let load_mean = if load.is_empty() {
            0.0
        } else {
            load.iter().sum::<u64>() as f64 / load.len() as f64
        };
        let load_max = load.last().copied().unwrap_or(0);
        let metrics_json = {
            let entries: Vec<String> = report
                .metrics
                .counters()
                .map(|(layer, name, v)| format!("\"{layer}.{name}\": {v}"))
                .collect();
            format!("{{{}}}", entries.join(", "))
        };
        let metrics_hist_json = {
            let entries: Vec<String> = report
                .metrics
                .histograms()
                .map(|(layer, name, h)| {
                    format!(
                        "\"{layer}.{name}\": {{\"count\": {}, \"mean\": {:.1}, \"max\": {}}}",
                        h.count,
                        h.mean(),
                        h.max
                    )
                })
                .collect();
            format!("{{{}}}", entries.join(", "))
        };
        MacroRun {
            profile: run.profile,
            peers: run.peers,
            ops: run.ops,
            seed: run.seed,
            wall_ms: wall_s * 1e3,
            virtual_ms: report.virtual_elapsed.as_millis_f64() as u64,
            expected_virtual_ms: run.expected_virtual_ms,
            events: report.net.events_processed,
            events_per_sec: report.net.events_processed as f64 / wall_s,
            messages_sent: report.net.messages_sent,
            messages_delivered: report.net.messages_delivered,
            peak_queue_depth: report.net.peak_queue_depth,
            peak_fifo_channels: report.net.peak_fifo_channels,
            rss_proxy_peak: report.net.peak_queue_depth + report.net.peak_fifo_channels,
            final_ring_members: report.final_members,
            trace_ops: report.trace.len(),
            trace_hash: report.trace.hash(),
            final_state_hash: report.final_state_hash,
            kills: report.stats.kills,
            restarts: report.stats.restarts,
            wal_records_replayed: report.stats.wal_records_replayed,
            queries_checked: report.stats.queries_checked,
            queries_incomplete: report.stats.queries_incomplete,
            violations: report.violations.len(),
            hops_p50: percentile(&hops, 50.0),
            hops_p99: percentile(&hops, 99.0),
            hops_max: hops.last().copied().unwrap_or(0),
            hop_histogram,
            load_mean,
            load_p50: percentile(&load, 50.0),
            load_p99: percentile(&load, 99.0),
            load_max,
            load_imbalance: if load_mean > 0.0 {
                load_max as f64 / load_mean
            } else {
                0.0
            },
            metrics_json,
            metrics_hist_json,
        }
    }

    fn to_json(&self) -> String {
        let hop_hist: Vec<String> = self.hop_histogram.iter().map(u64::to_string).collect();
        let mut s = String::new();
        let _ = write!(
            s,
            "    {{\n      \"profile\": \"{}\",\n      \"peers\": {},\n      \"ops\": {},\n      \"seed\": {},\n      \"wall_ms\": {:.1},\n      \"virtual_ms\": {},\n      \"expected_virtual_ms\": {},\n      \"events\": {},\n      \"events_per_sec\": {:.0},\n      \"messages_sent\": {},\n      \"messages_delivered\": {},\n      \"peak_queue_depth\": {},\n      \"peak_fifo_channels\": {},\n      \"rss_proxy_peak\": {},\n      \"final_ring_members\": {},\n      \"trace_ops\": {},\n      \"trace_hash\": \"{:016x}\",\n      \"final_state_hash\": \"{:016x}\",\n      \"kills\": {},\n      \"restarts\": {},\n      \"wal_records_replayed\": {},\n      \"queries_checked\": {},\n      \"queries_incomplete\": {},\n      \"violations\": {},\n      \"hops_p50\": {:.2},\n      \"hops_p99\": {:.2},\n      \"hops_max\": {},\n      \"hop_histogram\": [{}],\n      \"load_mean\": {:.1},\n      \"load_p50\": {:.2},\n      \"load_p99\": {:.2},\n      \"load_max\": {},\n      \"load_imbalance\": {:.2},\n      \"metrics\": {},\n      \"metrics_histograms\": {}\n    }}",
            self.profile,
            self.peers,
            self.ops,
            self.seed,
            self.wall_ms,
            self.virtual_ms,
            self.expected_virtual_ms,
            self.events,
            self.events_per_sec,
            self.messages_sent,
            self.messages_delivered,
            self.peak_queue_depth,
            self.peak_fifo_channels,
            self.rss_proxy_peak,
            self.final_ring_members,
            self.trace_ops,
            self.trace_hash,
            self.final_state_hash,
            self.kills,
            self.restarts,
            self.wal_records_replayed,
            self.queries_checked,
            self.queries_incomplete,
            self.violations,
            self.hops_p50,
            self.hops_p99,
            self.hops_max,
            hop_hist.join(", "),
            self.load_mean,
            self.load_p50,
            self.load_p99,
            self.load_max,
            self.load_imbalance,
            self.metrics_json,
            self.metrics_hist_json,
        );
        s
    }
}

/// Config facts captured before the harness consumes the config.
struct RunMeta {
    profile: String,
    peers: usize,
    ops: usize,
    seed: u64,
    expected_virtual_ms: u64,
}

fn measure(cfg: HarnessConfig) -> (MacroRun, RunReport) {
    let meta = RunMeta {
        profile: cfg.profile.clone(),
        peers: cfg.initial_free_peers + 1,
        ops: cfg.ops,
        seed: cfg.seed,
        expected_virtual_ms: cfg.virtual_duration().as_millis() as u64,
    };
    let start = Instant::now();
    let report = Harness::run_generated(cfg);
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    // A violation freezes a replayable artifact exactly like a red test
    // run would: dump it so the seed-replay workflow (TESTING.md) applies
    // to bench failures too. CI uploads the dump directory on red.
    if let Some(artifact) = &report.artifact {
        match artifact.dump_to(&FailureArtifact::dump_dir()) {
            Ok(path) => eprintln!("violation artifact dumped to {}", path.display()),
            Err(e) => eprintln!("failed to dump violation artifact: {e}"),
        }
    }
    (MacroRun::from_report(wall_s, meta, &report), report)
}

/// One line per run, ending with the replica pushes delivered.
fn print_run(run: &MacroRun, report: &RunReport) {
    println!(
        "{:<10} peers={:<4} ops={:<5} seed={:<5} wall={:>8.1}ms events={:>9} \
         ({:>9.0}/s) members={:<4} hops_p99={:<6.2} load_imb={:<5.2} violations={} \
         repl_push={}",
        run.profile,
        run.peers,
        run.ops,
        run.seed,
        run.wall_ms,
        run.events,
        run.events_per_sec,
        run.final_ring_members,
        run.hops_p99,
        run.load_imbalance,
        run.violations,
        report.metrics.counter("repl", "Push"),
    );
}

/// Runs the macro benchmark. Returns the process exit code: non-zero iff
/// any run tripped an invariant (timing is reported, never judged).
pub fn run(args: &[String]) -> i32 {
    let mut smoke = false;
    let mut seeds = 1u64;
    let mut out = default_out_path();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => seeds = k,
                None => {
                    eprintln!("--seeds needs a number");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown macro-bench flag `{other}`");
                return 2;
            }
        }
    }

    // The scale ladder. Smoke keeps the profile shapes (peer counts, mix,
    // cadence) but cuts the op counts so CI finishes in seconds. The
    // xlarge rung always runs a single seed: one 4096-peer trajectory
    // point per regeneration is plenty, and it dominates the wall time.
    let instances: Vec<fn(u64) -> HarnessConfig> = vec![
        HarnessConfig::standard,
        HarnessConfig::medium,
        HarnessConfig::large,
        HarnessConfig::xlarge,
    ];

    let mut runs = Vec::new();
    let mut violations = 0usize;
    for make in &instances {
        for i in 0..seeds {
            let seed = matrix_seed(i);
            let mut cfg = make(seed);
            if smoke {
                if cfg.profile == "large" || cfg.profile == "xlarge" {
                    continue; // smoke covers N ∈ {32, 128}
                }
                cfg.ops /= 4;
            }
            if cfg.profile == "xlarge" && i > 0 {
                continue;
            }
            cfg.trace = bench_trace_config();
            let (run, report) = measure(cfg);
            print_run(&run, &report);
            violations += run.violations;
            runs.push(run);
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"runs\": [");
    let body: Vec<String> = runs.iter().map(MacroRun::to_json).collect();
    let _ = writeln!(json, "{}", body.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            return 2;
        }
    }

    if violations > 0 {
        eprintln!("macro bench: {violations} invariant violation(s) — failing");
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed interpolated percentiles: `[1,2,3,4]` has p50 halfway
    /// between its two middle values and a p99 strictly below the max —
    /// the property nearest-rank got wrong on every small sample.
    #[test]
    fn percentile_interpolates_on_small_samples() {
        let s = [1u64, 2, 3, 4];
        assert!((percentile(&s, 50.0) - 2.5).abs() < 1e-9);
        assert!((percentile(&s, 99.0) - 3.97).abs() < 1e-9);
        assert!((percentile(&s, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile(&s, 100.0) - 4.0).abs() < 1e-9);
        let t = [10u64, 20, 30, 40, 50];
        assert!((percentile(&t, 50.0) - 30.0).abs() < 1e-9);
        assert!((percentile(&t, 99.0) - 49.6).abs() < 1e-9);
        assert!(
            percentile(&t, 99.0) < 50.0,
            "p99 of a 5-sample set must not collapse onto the max"
        );
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }
}
