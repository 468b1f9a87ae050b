//! The benchmark checks itself: determinism, the names it prints against
//! `BENCHMARK.json`, the percentile sample-count rule, the layer tag tables
//! and the micro drivers.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml` (a
//! debug build simulates ten times slower).

use std::collections::BTreeSet;
use std::time::Duration;

use pepper_benchmark::json::Json;
use pepper_benchmark::micro;
use pepper_benchmark::report::{MetricDef, Run, END_TO_END, LAYERS, PER_LAYER};
use pepper_benchmark::run::run_workload;
use pepper_benchmark::stats::supported;
use pepper_benchmark::workloads::{by_name, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json` ÷ 50.
const SMALL: f64 = 12.0 / 50.0;

fn bench() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn exact_values(run: &Run) -> Vec<(&'static str, Option<f64>)> {
    let (values, defs) = run.values();
    values
        .into_iter()
        .zip(defs)
        .filter(|(_, d)| d.exact)
        .map(|(v, _)| v)
        .collect()
}

/// Same seed, same work: the witness and every virtual-time value repeat.
fn assert_repeats(workload: &str, seconds: f64) -> Run {
    let spec = by_name(workload).expect("known workload");
    let (a, _) = run_workload(spec, 7, seconds, false);
    let (b, _) = run_workload(spec, 7, seconds, false);
    assert!(a.pooled.errors.is_empty(), "{:?}", a.pooled.errors);
    assert_eq!(a.pooled.witness, b.pooled.witness, "{workload}: witness");
    assert_eq!(exact_values(&a), exact_values(&b), "{workload}: values");
    assert_eq!(a.pooled.failed, b.pooled.failed, "{workload}: failures");
    let (c, _) = run_workload(spec, 8, seconds, false);
    assert_ne!(
        a.pooled.witness, c.pooled.witness,
        "{workload}: seed matters"
    );
    a
}

#[test]
fn steady_repeats_and_respects_the_sample_count_rule() {
    let run = assert_repeats("steady", SMALL);
    let values = run.end_to_end();
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).expect("listed").1;
    // A percentile is reported only with ten samples beyond it.
    let inserts = run.pooled.insert_ms.len();
    assert!(inserts < 1000, "{inserts} inserts at 1/50 scale");
    assert_eq!(get("insert_p99_ms"), None);
    assert_eq!(get("insert_p50_ms").is_some(), supported(inserts, 50.0));
    assert!(get("query_p50_ms").is_some());
    // Too short a run refuses to print a contract line rather than a
    // percentile its sample cannot support.
    let missing = run.contract_line().expect_err("p99 unsupported");
    assert!(missing.contains(&"insert_p99_ms"), "{missing:?}");
    for (name, v) in values {
        assert!(v != Some(0.0), "{name} must never read 0");
    }
}

#[test]
fn scan_heavy_repeats() {
    let run = assert_repeats("scan_heavy", SMALL);
    let hops = &run.pooled.scan_hops;
    let mean = hops.iter().sum::<f64>() / hops.len() as f64;
    assert!(mean > 20.0, "5%-wide scans cross many peers, saw {mean}");
}

#[test]
fn grow_shrink_repeats() {
    // At 1/50 scale the ring barely moves; 1/10 makes it split and merge.
    let run = assert_repeats("grow_shrink", SMALL * 5.0);
    assert!(!run.pooled.insert_succ_ms.is_empty(), "the ring grew");
    assert!(!run.pooled.merge_ms.is_empty(), "the ring shrank");
}

#[test]
fn peer_churn_repeats_and_takes_over() {
    // A membership event is due every 60 virtual seconds: 1/10 scale gives
    // each round a fail-stop and a crash-restart.
    let run = assert_repeats("peer_churn", SMALL * 5.0);
    assert!(!run.pooled.takeover_ms.is_empty(), "a takeover was timed");
    assert_eq!(run.pooled.takeovers_unresolved, 0);
    assert!(
        !run.pooled.restart_us.is_empty(),
        "a crashed peer restarted"
    );
}

#[test]
fn traced_run_counts_every_delivery_under_a_known_tag() {
    let spec = by_name("peer_churn").expect("known workload");
    let (run, spans) = run_workload(spec, 3, SMALL * 5.0, true);
    assert!(run.pooled.errors.is_empty(), "{:?}", run.pooled.errors);
    let counters = &run.pooled.counters;
    let sum = |pick: fn(&pepper_benchmark::report::LayerTags) -> &'static [&'static str]| -> u64 {
        LAYERS
            .iter()
            .flat_map(|l| pick(l).iter().map(move |t| (l.layer, *t)))
            .map(|k| counters.get(&k).copied().unwrap_or(0))
            .sum()
    };
    // The registry counts each delivery twice: once under `net`, once under
    // the message's own (layer, tag). A tag missing from the tables shows as
    // a shortfall here. (Messages and timers are checked together: `Route`
    // and `ScanFailed` are listed as messages but also arrive as a peer's
    // own delayed retry.)
    assert_eq!(
        sum(|l| l.msgs) + sum(|l| l.timers),
        counters[&("net", "msg_delivered")] + counters[&("net", "timer_fired")]
    );
    let retries = sum(|l| l.msgs) - counters[&("net", "msg_delivered")];
    assert!(
        retries * 100 < counters[&("net", "msg_delivered")],
        "{retries} retry timers"
    );
    // Durable workload: the storage layer shows up; and the spans nest.
    assert!(counters[&("storage", "wal_append")] > 0);
    let own = spans.self_seconds();
    for name in [
        "setup.load",
        "setup.settle",
        "setup.warmup",
        "run.advance",
        "run.issue",
        "run.drain",
        "check.ops",
    ] {
        assert!(own.get(name).is_some_and(|s| *s > 0.0), "span {name}");
    }
    assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
    // Every per-layer metric is printed, in the order of its definition.
    let names: Vec<&str> = run.per_layer().iter().map(|(n, _)| *n).collect();
    let defs: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, defs);
    assert!(run.contract_line().is_ok(), "a traced run always prints");
}

#[test]
fn micro_drivers_return_times() {
    let c = micro::run_all(5, Duration::from_millis(20));
    for (name, v) in [
        ("net_null_ns_per_event", c.net_null_ns_per_event),
        ("ring_handle_ns", c.ring_handle_ns),
        ("router_handle_ns", c.router_handle_ns),
        ("ds_scan_step_ns", c.ds_scan_step_ns),
        ("ds_insert_ns", c.ds_insert_ns),
        ("repl_push_ns", c.repl_push_ns),
        ("storage_append_ns", c.storage_append_ns),
        ("storage_snapshot_us", c.storage_snapshot_us),
        ("storage_replay_ns_short", c.storage_replay_ns_short),
        ("storage_replay_ns_long", c.storage_replay_ns_long),
    ] {
        assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
    }
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Json) -> BTreeSet<&str> {
    v.obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn assert_listed(listed: &[Json], defs: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), defs.len());
    for (l, d) in listed.iter().zip(defs) {
        let mut expect = BTreeSet::from(["name", "unit", "better"]);
        if bounded {
            expect.insert("bound");
            let bound = l.get("bound").and_then(Json::num).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert_eq!(keys(l), expect, "{}", d.name);
        assert_eq!(l.get("name").and_then(Json::str), Some(d.name));
        assert_eq!(
            l.get("unit").and_then(Json::str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            l.get("better").and_then(Json::str),
            Some(d.better),
            "{}",
            d.name
        );
        assert!(is_name(d.name) && is_unit(d.unit), "{}", d.name);
    }
}

#[test]
fn benchmark_json_lists_exactly_what_is_printed() {
    let b = bench();
    assert_eq!(
        keys(&b),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let listed = b.get("workloads").expect("workloads").arr();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (l, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(l), BTreeSet::from(["name", "why"]));
        assert_eq!(l.get("name").and_then(Json::str), Some(w.name));
        assert_eq!(l.get("why").and_then(Json::str), Some(w.why));
        assert!(is_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert_listed(
        b.get("end_to_end").expect("end_to_end").arr(),
        &END_TO_END,
        true,
    );
    assert_listed(
        b.get("per_layer").expect("per_layer").arr(),
        &PER_LAYER,
        false,
    );
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    all.extend(WORKLOADS.iter().map(|w| w.name));
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used once");
    assert_eq!(b.get("run_seconds").and_then(Json::num), Some(12.0));
    assert_eq!(
        b.get("paths").expect("paths").arr(),
        [Json::Str("benchmark".to_string())]
    );
    let command = b.get("command").expect("command").arr();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.str().is_some_and(|s| s.len() <= 200))
    );
}
