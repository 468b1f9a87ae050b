//! The deterministic fault-injection harness, run as a seed matrix.
//!
//! Every run drives a PEPPER cluster through a seeded schedule of mixed
//! operations (inserts, deletes, range queries, free-peer arrivals,
//! voluntary leaves and fail-stops) and asserts the whole-system invariants
//! between steps: ring consistency + connectivity, range partition,
//! duplicate items, query-vs-oracle, and — after quiescence — storage
//! bounds, replication and item conservation. See `TESTING.md` for the
//! seed-replay workflow.
//!
//! The matrix size is tunable from CI without recompiling:
//! `PEPPER_HARNESS_SEEDS` (number of seeds, default 4) and
//! `PEPPER_HARNESS_OPS` (ops per run, default 150).

use pepper_sim::harness::{matrix_seed, FailureArtifact, Harness, HarnessConfig, RunReport};
use pepper_sim::{render_trace, TraceConfig, TraceEvent};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one seed. On a violation, dumps a replayable artifact and returns
/// the failure: the seed, the artifact's path and every violation.
fn run_seed(cfg: HarnessConfig) -> Result<RunReport, String> {
    let seed = cfg.seed;
    let report = Harness::run_generated(cfg);
    let Some(artifact) = &report.artifact else {
        return Ok(report);
    };
    let where_ = artifact
        .dump_to(&FailureArtifact::dump_dir())
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("<dump failed: {e}>"));
    Err(format!(
        "seed {seed}: {} invariant violation(s); replayable artifact at {where_}\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
    ))
}

/// Runs one seed and panics with a dumped, replayable artifact on violation.
fn run_clean(cfg: HarnessConfig) -> RunReport {
    run_seed(cfg).unwrap_or_else(|failure| panic!("{failure}"))
}

/// Runs `profile` over `matrix_seed(0..seeds)` × `ops`. Every seed runs;
/// returns one line per failing seed, naming its artifact.
fn matrix_failures(profile: &str, seeds: usize, ops: usize) -> Vec<String> {
    let mut failures = Vec::new();
    for i in 0..seeds {
        // The canonical ladder: consecutive matrix sizes share a prefix (a
        // red run in the 8-seed CI matrix reproduces locally by seed).
        let seed = matrix_seed(i as u64);
        let cfg = HarnessConfig {
            ops,
            ..HarnessConfig::from_profile(profile, seed).expect("known profile")
        };
        let report = match run_seed(cfg) {
            Ok(report) => report,
            Err(failure) => {
                failures.push(failure);
                continue;
            }
        };
        // The schedule must actually have exercised the system.
        let stats = &report.stats;
        if stats.inserts == 0 || stats.queries_checked == 0 {
            failures.push(format!(
                "seed {seed}: nothing inserted or checked: {stats:?}"
            ));
        }
        assert_eq!(stats.ops_applied, report.trace.len(), "seed {seed}");
    }
    failures
}

/// Runs `profile` over the `PEPPER_HARNESS_SEEDS` × `PEPPER_HARNESS_OPS`
/// matrix, then fails with the list of all failing seeds and their
/// artifacts.
fn run_matrix(profile: &str) {
    let seeds = env_usize("PEPPER_HARNESS_SEEDS", 4);
    let ops = env_usize("PEPPER_HARNESS_OPS", 150);
    let failures = matrix_failures(profile, seeds, ops);
    assert!(
        failures.is_empty(),
        "{profile}: {} of {seeds} seed(s) failed at {ops} ops:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_invariant_holds_across_the_seed_matrix() {
    run_matrix("quick");
}

#[test]
fn every_invariant_holds_across_the_seed_matrix_with_frequent_leaves() {
    run_matrix("quick-leave");
}

#[test]
fn every_invariant_holds_across_the_seed_matrix_with_zipf_keys() {
    run_matrix("quick-zipf");
}

#[test]
fn every_invariant_holds_across_the_seed_matrix_with_sequential_keys() {
    run_matrix("quick-sequential");
}

#[test]
fn every_invariant_holds_across_the_seed_matrix_without_failures() {
    run_matrix("quick-no-failures");
}

/// How many seeds of the wide sweep — `matrix_seed(0..1024)` × 400 ops —
/// each quick profile fails today. TESTING.md lists them ("Still failing at
/// wider sweeps"). A fix that turns a seed green lowers its profile's count.
const WIDE_SWEEP_RATCHET: [(&str, usize); 5] = [
    ("quick", 1),
    ("quick-leave", 0),
    ("quick-zipf", 2),
    ("quick-sequential", 2),
    ("quick-no-failures", 0),
];

/// The wide sweep as a ratchet: a profile may fail no more seeds than its
/// committed count. Every failing seed is printed with its artifact, red or
/// green. One thread per profile; minutes in release.
#[test]
#[ignore = "the wide sweep takes minutes in release; the nightly workflow runs it"]
fn the_wide_sweep_fails_no_more_seeds_than_its_ratchet() {
    let results: Vec<(&str, usize, Vec<String>)> = std::thread::scope(|s| {
        let runs: Vec<_> = WIDE_SWEEP_RATCHET
            .iter()
            .map(|&(profile, allowed)| {
                s.spawn(move || (profile, allowed, matrix_failures(profile, 1024, 400)))
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("sweep thread"))
            .collect()
    });
    let mut worse = Vec::new();
    for (profile, allowed, failures) in results {
        println!(
            "{profile}: {} failing seed(s), ratchet {allowed}",
            failures.len()
        );
        for failure in &failures {
            println!("{profile} {failure}");
        }
        if failures.len() > allowed {
            worse.push(format!("{profile} fails {} > {allowed}", failures.len()));
        }
    }
    assert!(
        worse.is_empty(),
        "more failing seeds than the ratchet: {worse:?}"
    );
}

#[test]
fn a_leave_is_not_completed_by_the_guard_of_an_earlier_give() {
    // Seed 2547 of the leave-heavy profile: the guard of a full give its
    // predecessor had acknowledged fired into the same peer's next leave to
    // that predecessor and completed it before the grant was sent, leaving
    // the range unowned.
    let cfg = HarnessConfig {
        ops: 400,
        ..HarnessConfig::from_profile("quick-leave", 2547).expect("known profile")
    };
    run_clean(cfg);
}

#[test]
fn a_member_that_knows_only_itself_rejoins_its_predecessor() {
    // Seed 1561 of the leave-heavy profile: in a two-member ring, one
    // member's successor list collapsed to itself. It had no peer to
    // stabilize with, so it never re-learned its live predecessor as its
    // successor, and the other member stayed unreachable to the end.
    let cfg = HarnessConfig {
        ops: 400,
        ..HarnessConfig::from_profile("quick-leave", 1561).expect("known profile")
    };
    run_clean(cfg);
}

#[test]
fn a_recycled_insertee_stays_in_its_inserters_list() {
    // The inserter pings the LEAVING relic of the peer's old incarnation,
    // and the relic's "not a member" reply arrives after the join ack has
    // promoted the new entry: that reply must not drop it (TESTING.md).
    run_clean(HarnessConfig {
        ops: 300,
        ..HarnessConfig::from_profile("quick-no-failures", 1408).expect("known profile")
    });
}

#[test]
fn a_leaving_successor_is_not_skipped_past_the_peer_it_inserted() {
    // Seed 16929 of the Zipf profile: a peer whose successor turned LEAVING
    // while that successor's insertee still showed JOINING in its list
    // stabilized with the JOINED peer beyond both, dropped the insertee,
    // and once the leave completed the insertee was in nobody's list.
    run_clean(HarnessConfig {
        ops: 400,
        ..HarnessConfig::from_profile("quick-zipf", 16929).expect("known profile")
    });
}

#[test]
fn same_seed_reproduces_the_same_trace_and_final_state() {
    let ops = env_usize("PEPPER_HARNESS_OPS", 150);
    // Tracing and metrics on: what the observability layer records is part
    // of what a seed determines.
    let cfg = || HarnessConfig {
        ops,
        trace: TraceConfig::enabled().with_ring_capacity(512),
        ..HarnessConfig::quick(7321)
    };
    let a = run_clean(cfg());
    let b = run_clean(cfg());
    assert_eq!(
        a.trace.hash(),
        b.trace.hash(),
        "op trace must be seed-determined"
    );
    assert_eq!(a.final_state_hash, b.final_state_hash);
    assert_eq!(a.stats, b.stats);
    let observed = |report: &RunReport| {
        let streams: Vec<(u64, Vec<TraceEvent>)> = report
            .traces
            .iter()
            .map(|(p, evs)| (p.raw(), evs.clone()))
            .collect();
        format!(
            "{}\n---\n{}",
            render_trace(&streams),
            report.metrics.render()
        )
    };
    let rendered = observed(&a);
    assert!(
        rendered.contains("QueryCompleted") || rendered.contains("scan_hops"),
        "the traced run must actually record query activity"
    );
    assert_eq!(
        rendered,
        observed(&b),
        "rendered trace streams and metrics must be seed-determined"
    );
}

#[test]
fn harness_catches_naive_protocol_violations_and_replays_them() {
    // The point of the whole machine: with the naive protocols (immediate
    // joins, lock-free scans, unprotected leaves) the same op schedules
    // that PEPPER survives violate the ring invariants — the Figure 9 / 14
    // scenarios found automatically. Seed 1 is pinned as a known-red run
    // (re-pinned when the PR 4 crash-restart op class reshaped the
    // generated schedules).
    let cfg = HarnessConfig::from_profile("quick-naive", 1).expect("known profile");
    let report = Harness::run_generated(cfg);
    assert!(
        !report.is_clean(),
        "the naive protocol unexpectedly survived seed 1"
    );
    let artifact = report
        .artifact
        .as_ref()
        .expect("violations freeze an artifact");
    assert!(artifact.violations.iter().any(|v| v.invariant == "ring"));
    // The peer whose state change broke the ring is often a neighbour the
    // violation does not name, so the trace tail has a section for every
    // implicated peer's predecessor and successor-list peers too, and ring
    // events record their fields.
    let named: Vec<u64> = artifact
        .violations
        .iter()
        .flat_map(|v| v.peers.iter().map(|p| p.raw()))
        .collect();
    let sections: Vec<u64> = artifact
        .trace_tail
        .lines()
        .filter_map(|l| l.strip_prefix("peer ")?.split(' ').next()?.parse().ok())
        .collect();
    assert!(
        sections.iter().any(|p| !named.contains(p)),
        "no section for a neighbour of {named:?}:\n{}",
        artifact.trace_tail
    );
    assert!(
        artifact
            .trace_tail
            .lines()
            .any(|l| l.contains("ring/NewSuccessor peer=p")),
        "no NewSuccessor line names its peer:\n{}",
        artifact.trace_tail
    );

    // The artifact round-trips through its text form and replays to the
    // exact same violation — byte-for-byte the same schedule and end state.
    let parsed = FailureArtifact::parse(&artifact.encode()).expect("artifact parses back");
    assert_eq!(parsed.trace.hash(), report.trace.hash());
    let replayed = Harness::replay_artifact(&parsed).expect("profile reconstructs");
    assert_eq!(replayed.trace.hash(), report.trace.hash());
    assert_eq!(replayed.final_state_hash, report.final_state_hash);
    assert_eq!(
        replayed
            .violations
            .iter()
            .map(|v| v.invariant)
            .collect::<Vec<_>>(),
        report
            .violations
            .iter()
            .map(|v| v.invariant)
            .collect::<Vec<_>>(),
        "replay must reproduce the same violations"
    );
}

#[test]
fn churn_only_profile_is_clean_without_any_failures() {
    // Sanity split: with fail-stops and leaves disabled, the strictest
    // versions of every check apply (no grace windows, resurrection checks
    // active) and must still hold.
    let report = run_clean(HarnessConfig::quick_no_failures(909));
    assert_eq!(report.stats.kills, 0);
    assert_eq!(report.stats.crashes, 0);
    assert_eq!(report.stats.leaves, 0);
}

// ---------------------------------------------------------------------
// crash-restart: durable recovery, broken-recovery red tests, determinism
// ---------------------------------------------------------------------

/// A handcrafted schedule in which the WAL is provably load-bearing: the
/// last insert (key `161011111`, owned by `p1`) is acknowledged 45 ms before
/// `p1` crashes — after the last snapshot — and its replica holders `p2` and
/// `p3` crash with it. Their replica receipts are journaled unsynced by
/// design, so the crash tears them away, and the key's **only** surviving
/// copy is `p1`'s synced WAL tail. The trace ends with the quick profile's
/// exact settle advance, which makes a replay run the full quiescence
/// oracle pass. Discovered by seed search against seed 777; re-pin (see
/// TESTING.md) if protocol timing changes.
const WAL_LOAD_BEARING_TRACE: &str = "\
insert 0 70000000\nadvance-ms 150\ninsert 0 140000000\nadvance-ms 150\n\
insert 0 210000000\nadvance-ms 150\ninsert 0 280000000\nadvance-ms 150\n\
insert 0 350000000\nadvance-ms 150\ninsert 0 420000000\nadvance-ms 150\n\
insert 0 490000000\nadvance-ms 150\ninsert 0 560000000\nadvance-ms 150\n\
insert 0 630000000\nadvance-ms 150\ninsert 0 700000000\nadvance-ms 150\n\
insert 0 770000000\nadvance-ms 150\ninsert 0 840000000\nadvance-ms 150\n\
add-free-peer\nadd-free-peer\nadvance-ms 6000\n\
insert 0 161011111\nadvance-ms 45\ncrash 1\ncrash 2\ncrash 3\nadvance-ms 1000\n\
restart 1\nrestart 2\nrestart 3\nadvance-ms 40000\n";

#[test]
fn broken_recovery_skipping_the_wal_tail_is_caught_by_the_oracle() {
    // The pinned red test for the durable-storage subsystem: a deliberately
    // broken recovery that restores the last snapshot but skips WAL replay
    // silently drops the acked key — and the item-conservation oracle
    // ("an acked item may live on the restarted peer or its replicas, never
    // nowhere") catches it.
    let trace = pepper_sim::harness::OpTrace::decode(WAL_LOAD_BEARING_TRACE).expect("pinned trace");
    let broken = HarnessConfig::from_profile("quick-skip-wal", 777).expect("known profile");
    let report = Harness::replay(broken, &trace);
    assert!(
        !report.is_clean(),
        "SkipWalTail recovery unexpectedly survived the WAL-load-bearing trace"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "item-conservation" && v.details.contains("161011111")),
        "expected an item-conservation violation for the WAL-only key: {:?}",
        report.violations
    );
    assert_eq!(report.stats.restarts, 3);

    // The identical schedule with the correct recovery replays the WAL tail
    // and donates the key back to the live ring: green, key present.
    let clean = HarnessConfig::from_profile("quick", 777).expect("known profile");
    let report = Harness::replay(clean, &trace);
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(
        report.stored_keys.contains(&161011111),
        "the WAL-recovered key must survive the crash-restart"
    );
    assert!(report.stats.wal_records_replayed > 0, "{:?}", report.stats);
}

#[test]
fn broken_recovery_serving_the_stale_range_is_caught_by_the_oracle() {
    // The second deliberately broken recovery: the restarted peer installs
    // its recovered range as live-and-owned with no rejoin handshake. The
    // recovered-range oracle ("a recovered stale range must never be served
    // as owned until the rejoin handshake completes") objects on every seed
    // probed whose schedule includes a crash-restart; seed 2 is pinned.
    let cfg = HarnessConfig::from_profile("quick-serve-stale", 2).expect("known profile");
    let report = Harness::run_generated(cfg);
    assert!(!report.is_clean(), "ServeStaleRange unexpectedly survived");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "recovered-range"),
        "expected a recovered-range violation: {:?}",
        report.violations
    );
    // And its artifact replays to the same violations byte-for-byte.
    let artifact = report.artifact.as_ref().expect("red runs freeze artifacts");
    // The violation implicates the restarted peer, so the artifact embeds
    // its last trace events (captured by a traced re-replay of the same
    // schedule) — the raw material of the inspector CLI's triage workflow.
    let implicated = report
        .violations
        .iter()
        .find(|v| v.invariant == "recovered-range")
        .and_then(|v| v.peers.first().copied())
        .expect("recovered-range implicates a peer");
    assert!(
        artifact
            .trace_tail
            .contains(&format!("peer {}", implicated.raw())),
        "trace tail must cover the implicated peer:\n{}",
        artifact.trace_tail
    );
    let parsed = FailureArtifact::parse(&artifact.encode()).expect("round-trips");
    assert_eq!(parsed.trace_tail, artifact.trace_tail);
    let replayed = Harness::replay_artifact(&parsed).expect("profile reconstructs");
    assert_eq!(replayed.trace.hash(), report.trace.hash());
    assert_eq!(replayed.final_state_hash, report.final_state_hash);
    assert!(replayed
        .violations
        .iter()
        .any(|v| v.invariant == "recovered-range"));
}

#[test]
fn crash_restart_scenarios_replay_byte_identical_from_artifacts() {
    // Determinism across the durable-storage subsystem: a generated clean
    // run with crash-restarts frozen into an artifact replays to the exact
    // same end state — including the in-memory VFS contents, which are part
    // of the final-state hash via every peer's durable digest.
    let report = run_clean(HarnessConfig::quick(31));
    assert!(
        report.stats.restarts > 0,
        "seed 31 must exercise crash-restart: {:?}",
        report.stats
    );
    assert!(report.stats.wal_records_replayed > 0, "{:?}", report.stats);
    let artifact = FailureArtifact {
        seed: 31,
        profile: "quick".to_string(),
        step: report.trace.len(),
        violations: Vec::new(),
        trace: report.trace.clone(),
        ring_dump: String::new(),
        store_dump: String::new(),
        trace_tail: String::new(),
    };
    let parsed = FailureArtifact::parse(&artifact.encode()).expect("round-trips");
    let replayed = Harness::replay_artifact(&parsed).expect("profile reconstructs");
    assert!(replayed.is_clean(), "{:?}", replayed.violations);
    assert_eq!(replayed.trace.hash(), report.trace.hash());
    assert_eq!(
        replayed.final_state_hash, report.final_state_hash,
        "replay must reproduce the durable (VFS) state byte-for-byte"
    );
    assert_eq!(replayed.stored_keys, report.stored_keys);
    assert_eq!(replayed.stats, report.stats);
}

#[test]
fn zipf_and_sequential_key_profiles_run_clean() {
    // The key-distribution knob end-to-end: skewed and sequential insert
    // streams stress split/merge balancing and must uphold every invariant.
    for profile in ["quick-zipf", "quick-sequential"] {
        let cfg = HarnessConfig::from_profile(profile, 5150).expect("known profile");
        let report = run_clean(cfg);
        assert!(report.stats.inserts > 0, "{profile}: {:?}", report.stats);
    }
    // The knob actually changes the schedule.
    let uniform = Harness::run_generated(HarnessConfig::quick(5150));
    let zipf = Harness::run_generated(
        HarnessConfig::from_profile("quick-zipf", 5150).expect("known profile"),
    );
    assert_ne!(uniform.trace.hash(), zipf.trace.hash());
}
