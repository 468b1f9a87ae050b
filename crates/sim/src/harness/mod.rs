//! Deterministic fault-injection harness with whole-system invariant
//! oracles.
//!
//! The harness closes the loop the paper's proofs open: it drives a
//! simulated PEPPER index through a **seeded, fully deterministic** schedule
//! of random operations — item inserts and deletes, range queries, free-peer
//! arrivals, voluntary leaves, fail-stops from a
//! [`pepper_net::FailureSchedule`] and crash-restarts (fail-stop a peer
//! whose durable WAL + snapshot survive, restart it after a drawn downtime)
//! — interleaved with virtual-time advances, and asserts the paper's global
//! invariants *between steps*:
//!
//! * **ring**: consistent successor pointers (Definition 5) + connectivity
//!   (suspended inside the short post-fail-stop ring-repair window
//!   [`scenario::RING_GRACE`]; strict on the end state);
//! * **range-partition**: live peers' ranges partition the key space (gaps
//!   only inside a failure-recovery grace window, overlaps only across
//!   in-flight copy-then-delete transfers);
//! * **duplicate-items**: no mapped value stored twice outside a transfer;
//! * **recovered-range**: a restarted peer never serves a range it merely
//!   recovered from durable storage;
//! * **query-vs-oracle**: every completed query is checked against an
//!   in-memory [`ModelOracle`] ground truth — a query that claims full
//!   coverage must return every key that was stably present for its whole
//!   duration, and must not resurrect stably deleted keys;
//! * after quiescence: **storage-bounds** (`≤ 2·sf` items per peer),
//!   **replication** (every item on its owner's `k` nearest successors) and
//!   **item-conservation** (the stored key set matches the oracle — an
//!   acked item may live on a restarted peer or its replicas, never
//!   nowhere).
//!
//! The same seed always produces the same op trace (assert via
//! [`OpTrace::hash`]) and the same final state hash — every peer's durable
//! bytes included ([`crate::cluster::Cluster::storage_digest`]); on
//! violation the harness freezes a replayable [`FailureArtifact`] that
//! [`Harness::replay_artifact`] re-executes byte for byte (`experiments
//! trace ARTIFACT` does so traced, and says whether it reproduced).

pub mod invariants;
pub mod oracle;
pub mod report;
pub mod scenario;

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use pepper_datastore::QueryId;
use pepper_index::Observation;
use pepper_net::{NetworkConfig, SimTime};
use pepper_ring::consistency::format_ring;
use pepper_storage::RecoveryMode;
use pepper_trace::{render_trace, Metrics, TraceConfig, TraceEvent};
use pepper_types::{ItemId, PeerId, Protocol, SearchKey, SystemConfig};

use crate::cluster::{Cluster, ClusterConfig, DurabilityConfig};
use crate::workload::KeyDistribution;

pub use invariants::{SystemView, Violation};
pub use oracle::ModelOracle;
pub use report::FailureArtifact;
pub use scenario::{fnv1a, GeneratorView, Op, OpTrace, OpWeights, ScenarioGenerator};

use scenario::{ADVANCE_RANGE_MS, FAILURE_GRACE, KEY_DOMAIN, PRE_KILL_SETTLE, RING_GRACE, SETTLE};

/// The canonical seed ladder shared by the CI seed matrix, the env-gated
/// large matrix and the macro bench: spreading by 17 keeps consecutive
/// matrix sizes prefix-compatible, so a red run in a wider CI matrix
/// reproduces locally by seed.
pub fn matrix_seed(i: u64) -> u64 {
    1000 + i * 17
}

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Seed for scenario generation and the simulated network.
    pub seed: u64,
    /// Named profile this config was derived from (stored in artifacts so a
    /// replay can rebuild the identical cluster).
    pub profile: String,
    /// Number of scheduled operations (advances not counted).
    pub ops: usize,
    /// Protocol selection (PEPPER vs naive) for the cluster under test.
    pub protocol: Protocol,
    /// Free peers registered before the schedule starts.
    pub initial_free_peers: usize,
    /// Fail-stop rate handed to [`pepper_net::FailureSchedule`].
    pub failures_per_100s: f64,
    /// Run the per-step invariant checkers after every N-th advance.
    pub check_every: usize,
    /// Relative op weights.
    pub weights: OpWeights,
    /// Durable peer storage. When present every peer journals through a
    /// deterministic in-memory VFS and the `crash_restart` op class is
    /// enabled; when absent the `crash_restart` weight is forced to zero
    /// (a crash that can never restart is just an unannounced kill).
    pub durability: Option<DurabilityConfig>,
    /// Distribution of generated insert keys (the key-distribution knob:
    /// skewed Zipf keys stress split/merge balancing, sequential keys are
    /// the order-preserving worst case).
    pub key_distribution: KeyDistribution,
    /// Causal tracing + metrics. Off (zero-overhead) by default;
    /// output-invariant when on — the recorded trace streams are derived
    /// from virtual time and canonical sequence numbers only, so replay
    /// artifacts do not record it.
    pub trace: TraceConfig,
}

impl HarnessConfig {
    /// The CI-quick profile: fast protocol timers, a churn-heavy mix and a
    /// failure rate that lands 2–3 fail-stops in a ~20 s (virtual) run.
    pub fn quick(seed: u64) -> Self {
        HarnessConfig {
            seed,
            profile: "quick".to_string(),
            ops: 150,
            protocol: Protocol::Pepper,
            initial_free_peers: 3,
            failures_per_100s: 12.0,
            check_every: 1,
            weights: OpWeights::default(),
            durability: Some(DurabilityConfig::default()),
            key_distribution: KeyDistribution::Uniform { domain: KEY_DOMAIN },
            trace: TraceConfig::off(),
        }
    }

    /// A scale profile: `peers` total peers registered up front (one
    /// bootstrap member plus `peers − 1` free peers the ring grows into),
    /// an insert-heavy mix so membership actually climbs, and an invariant
    /// cadence tuned so the O(n²)-ish whole-system oracles do not dominate
    /// the run.
    fn scaled(profile: &str, seed: u64, peers: usize, ops: usize, check_every: usize) -> Self {
        HarnessConfig {
            seed,
            profile: profile.to_string(),
            ops,
            protocol: Protocol::Pepper,
            initial_free_peers: peers.saturating_sub(1),
            failures_per_100s: 8.0,
            check_every,
            weights: OpWeights {
                insert: 14,
                delete: 4,
                query: 5,
                add_free_peer: 1,
                leave: 1,
                crash_restart: 2,
            },
            durability: Some(DurabilityConfig::default()),
            key_distribution: KeyDistribution::Uniform { domain: KEY_DOMAIN },
            trace: TraceConfig::off(),
        }
    }

    /// The standard scale profile: 32 peers × 500 ops, oracles every 5th
    /// advance.
    pub fn standard(seed: u64) -> Self {
        Self::scaled("standard", seed, 32, 500, 5)
    }

    /// The medium scale profile: 128 peers × 1000 ops, oracles every 10th
    /// advance.
    pub fn medium(seed: u64) -> Self {
        Self::scaled("medium", seed, 128, 1000, 10)
    }

    /// The large scale profile: 512 peers × 2000 ops, oracles every 25th
    /// advance.
    pub fn large(seed: u64) -> Self {
        Self::scaled("large", seed, 512, 2000, 25)
    }

    /// The soak profile: 512 peers × 5000 ops, oracles every 50th advance.
    /// Not run in CI by default; meant for overnight churn hunts.
    pub fn soak(seed: u64) -> Self {
        Self::scaled("soak", seed, 512, 5000, 50)
    }

    /// The xlarge scale profile: 4096 peers × 3000 ops, oracles every 100th
    /// advance (the whole-system oracles scan every peer, so a denser
    /// cadence would dominate the run at this size). The top bench rung —
    /// the scale where routing-depth and load-balance questions get
    /// interesting.
    pub fn xlarge(seed: u64) -> Self {
        Self::scaled("xlarge", seed, 4096, 3000, 100)
    }

    /// The quick profile with every fault type disabled except item churn —
    /// useful for pinpointing whether a violation needs failures at all.
    pub fn quick_no_failures(seed: u64) -> Self {
        HarnessConfig {
            failures_per_100s: 0.0,
            weights: OpWeights {
                leave: 0,
                crash_restart: 0,
                ..OpWeights::default()
            },
            profile: "quick-no-failures".to_string(),
            ..HarnessConfig::quick(seed)
        }
    }

    /// The quick profile with a DELIBERATELY BROKEN recovery mode — the
    /// pinned red tests proving the oracles catch bad recoveries run these.
    fn quick_broken_recovery(profile: &str, seed: u64, recovery: RecoveryMode) -> Self {
        HarnessConfig {
            durability: Some(DurabilityConfig {
                recovery,
                ..DurabilityConfig::default()
            }),
            profile: profile.to_string(),
            ..HarnessConfig::quick(seed)
        }
    }

    /// A profile variant with Zipf-skewed insert keys (16 hot spots,
    /// `theta` 0.9): sustained hot-spot mass drives repeated splits of the
    /// same region, the balancing worst case.
    fn zipfed(base: HarnessConfig, profile: &str) -> Self {
        HarnessConfig {
            key_distribution: KeyDistribution::Zipf {
                domain: KEY_DOMAIN,
                hotspots: 16,
                theta: 0.9,
            },
            profile: profile.to_string(),
            ..base
        }
    }

    /// Rebuilds a config from the profile name stored in an artifact.
    pub fn from_profile(profile: &str, seed: u64) -> Result<Self, String> {
        match profile {
            "quick" => Ok(HarnessConfig::quick(seed)),
            "quick-no-failures" => Ok(HarnessConfig::quick_no_failures(seed)),
            "quick-naive" => Ok(HarnessConfig {
                protocol: Protocol::Naive,
                profile: "quick-naive".to_string(),
                ..HarnessConfig::quick(seed)
            }),
            "quick-skip-wal" => Ok(Self::quick_broken_recovery(
                profile,
                seed,
                RecoveryMode::SkipWalTail,
            )),
            "quick-serve-stale" => Ok(Self::quick_broken_recovery(
                profile,
                seed,
                RecoveryMode::ServeStaleRange,
            )),
            "quick-zipf" => Ok(Self::zipfed(HarnessConfig::quick(seed), profile)),
            "quick-sequential" => Ok(HarnessConfig {
                // Stride chosen so a full quick run stays inside the query
                // key domain while still marching strictly upward.
                key_distribution: KeyDistribution::Sequential { stride: 1 << 20 },
                profile: "quick-sequential".to_string(),
                ..HarnessConfig::quick(seed)
            }),
            "standard" => Ok(HarnessConfig::standard(seed)),
            "standard-zipf" => Ok(Self::zipfed(HarnessConfig::standard(seed), profile)),
            "medium" => Ok(HarnessConfig::medium(seed)),
            "medium-zipf" => Ok(Self::zipfed(HarnessConfig::medium(seed), profile)),
            "large" => Ok(HarnessConfig::large(seed)),
            "soak" => Ok(HarnessConfig::soak(seed)),
            "xlarge" => Ok(HarnessConfig::xlarge(seed)),
            other => Err(format!("unknown harness profile `{other}`")),
        }
    }

    /// The cluster under test, on the fast timers.
    fn cluster(&self) -> Cluster {
        Cluster::new(ClusterConfig {
            system: SystemConfig::fast().with_protocol(self.protocol),
            network: NetworkConfig::lan(self.seed),
            initial_free_peers: self.initial_free_peers,
            durability: self.durability,
            trace: self.trace,
        })
    }

    /// The effective op weights: the `crash_restart` class needs durable
    /// storage to restart from, so it is forced to zero without it.
    fn effective_weights(&self) -> OpWeights {
        let mut weights = self.weights;
        if self.durability.is_none() {
            weights.crash_restart = 0;
        }
        weights
    }

    /// Expected virtual time of the scheduled (pre-settle) phase, derived
    /// from the profile's actual advance distribution plus the pre-kill
    /// settle rounds the generator inserts. The old hardcoded `ops × 150 ms`
    /// over-shot the real op phase (mean advance is 90 ms), so large/soak
    /// schedules spread their kills past the end of the run and quiescence
    /// was entered with most scheduled failures silently dropped.
    fn scheduled_phase(&self) -> Duration {
        let (lo, hi) = ADVANCE_RANGE_MS;
        let mean_advance_ms = (lo + hi) / 2;
        let op_phase = Duration::from_millis(self.ops as u64 * mean_advance_ms);
        // Kills due inside the op phase each add one pre-kill settle.
        let expected_kills =
            (self.failures_per_100s * op_phase.as_secs_f64() / 100.0).ceil() as u32;
        op_phase + PRE_KILL_SETTLE * expected_kills
    }

    /// Expected total virtual duration of a run: the scheduled phase plus
    /// the quiescence settle tail.
    pub fn virtual_duration(&self) -> Duration {
        self.scheduled_phase() + SETTLE
    }

    /// Virtual-time horizon the failure schedule spreads its kills over —
    /// the scheduled phase, so every drawn failure can actually land while
    /// ops are still being issued.
    fn failure_horizon(&self) -> Duration {
        self.scheduled_phase()
    }
}

/// Aggregate counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduled ops applied (advances included).
    pub ops_applied: usize,
    /// Item inserts issued.
    pub inserts: usize,
    /// Item deletes issued.
    pub deletes: usize,
    /// Range queries issued (and registered).
    pub queries_issued: usize,
    /// Queries that completed and were checked against the oracle.
    pub queries_checked: usize,
    /// Completed queries that reported incomplete coverage (availability
    /// failures — retriable, and distinct from silent incorrectness).
    pub queries_incomplete: usize,
    /// Fail-stops injected (permanent kills; crashes counted separately).
    pub kills: usize,
    /// Crash-with-restart-intent fail-stops injected.
    pub crashes: usize,
    /// Crashed peers restarted from their recovered durable state.
    pub restarts: usize,
    /// WAL records replayed across all restarts.
    pub wal_records_replayed: u64,
    /// Recovered items donated back to their live owners across all
    /// restarts.
    pub items_donated: usize,
    /// Voluntary leave offers issued.
    pub leaves: usize,
    /// Free peers added.
    pub frees_added: usize,
}

/// The outcome of one harness run.
#[derive(Debug)]
pub struct RunReport {
    /// The concrete op schedule that was executed.
    pub trace: OpTrace,
    /// Every invariant violation, in detection order (empty = clean run).
    pub violations: Vec<Violation>,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Network-level counters of the underlying simulator (events,
    /// messages, peak queue depth / FIFO channels) — deterministic per
    /// seed, and the raw material of the macro benchmark.
    pub net: pepper_net::NetStats,
    /// Virtual time at the end of the run (settle included).
    pub virtual_elapsed: SimTime,
    /// Alive ring members when the run ended.
    pub final_members: usize,
    /// Search keys stored across alive peers when the run ended.
    pub stored_keys: BTreeSet<u64>,
    /// FNV-1a hash over the final ring + Data Store dump: two runs that
    /// executed the same schedule end in the same hash.
    pub final_state_hash: u64,
    /// Routing hop count of every completed query, in completion order —
    /// the raw material of the macro bench's hop-count histogram (the
    /// baseline any sub-logarithmic-routing work has to beat).
    pub query_hops: Vec<u32>,
    /// Delivered events (messages + timers + external) per peer, in
    /// increasing id order — the per-peer load profile for the bench's
    /// load-balance histogram.
    pub peer_deliveries: Vec<(PeerId, u64)>,
    /// Every peer's buffered trace events at the end of the run (empty
    /// unless [`HarnessConfig::trace`] enabled tracing).
    pub traces: Vec<(PeerId, Vec<TraceEvent>)>,
    /// The whole-cluster metrics registry (no entries unless
    /// [`HarnessConfig::trace`] enabled metrics).
    pub metrics: Metrics,
    /// The frozen artifact, present iff violations were found.
    pub artifact: Option<FailureArtifact>,
}

impl RunReport {
    /// `true` when every invariant held throughout the run.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A query in flight, with the oracle ground truth captured at issue time.
#[derive(Debug)]
struct PendingQuery {
    at: PeerId,
    id: QueryId,
    issued: SimTime,
    /// `(key, oracle version)` that must appear in a complete result.
    required: Vec<(u64, u64)>,
    /// `(key, oracle version)` that must not appear.
    forbidden: Vec<(u64, u64)>,
}

/// The deterministic fault-injection harness.
pub struct Harness {
    cfg: HarnessConfig,
    cluster: Cluster,
    oracle: ModelOracle,
    trace: OpTrace,
    stats: RunStats,
    violations: Vec<Violation>,
    pending_queries: Vec<PendingQuery>,
    query_hops: Vec<u32>,
    insert_keys_by_id: HashMap<ItemId, u64>,
    raw_by_mapped: HashMap<u64, u64>,
    /// Peers currently down from an [`Op::Crash`], awaiting their
    /// [`Op::Restart`]. Any still here when the schedule ends are restarted
    /// before quiescence (recorded in the trace, so replays match).
    crashed: BTreeSet<PeerId>,
    last_kill: Option<SimTime>,
    advances_seen: usize,
    violation_step: Option<usize>,
    /// Replay mode: the recorded trace already contains the quiescence ops,
    /// so `finish` must not append them again.
    replaying: bool,
}

impl Harness {
    /// Builds a harness over a freshly booted cluster.
    pub fn new(cfg: HarnessConfig) -> Self {
        let cluster = cfg.cluster();
        Harness {
            cfg,
            cluster,
            oracle: ModelOracle::new(),
            trace: OpTrace::new(),
            stats: RunStats::default(),
            violations: Vec::new(),
            pending_queries: Vec::new(),
            query_hops: Vec::new(),
            insert_keys_by_id: HashMap::new(),
            raw_by_mapped: HashMap::new(),
            crashed: BTreeSet::new(),
            last_kill: None,
            advances_seen: 0,
            violation_step: None,
            replaying: false,
        }
    }

    /// Generates and executes a scenario from the config's seed. Stops
    /// scheduling new ops at the first violation (the artifact then carries
    /// the minimal prefix), settles, and reports.
    pub fn run_generated(cfg: HarnessConfig) -> RunReport {
        let mut gen = ScenarioGenerator::new(
            cfg.seed,
            cfg.effective_weights(),
            cfg.failures_per_100s,
            cfg.failure_horizon(),
        )
        .with_keys(cfg.key_distribution);
        let mut harness = Harness::new(cfg);
        for _ in 0..harness.cfg.ops {
            let ops = harness.cluster.with_ring_members(|members| {
                let deletable = harness.oracle.deletable();
                let view = GeneratorView {
                    now: harness.cluster.now(),
                    members,
                    deletable: &deletable,
                };
                gen.next_op(&view)
            });
            for op in ops {
                harness.apply(op);
            }
            harness.apply(gen.next_advance());
            if !harness.violations.is_empty() {
                break;
            }
        }
        harness.finish()
    }

    /// Re-executes a recorded trace byte for byte against a cluster built
    /// from the same profile + seed.
    pub fn replay(cfg: HarnessConfig, trace: &OpTrace) -> RunReport {
        let mut harness = Harness::new(cfg);
        harness.replaying = true;
        for op in trace.ops() {
            harness.apply(*op);
            // Replays run the full trace even past a violation: the recorded
            // schedule already stops where the original run stopped.
        }
        harness.finish()
    }

    /// Replays a parsed failure artifact.
    pub fn replay_artifact(artifact: &FailureArtifact) -> Result<RunReport, String> {
        let cfg = HarnessConfig::from_profile(&artifact.profile, artifact.seed)?;
        Ok(Harness::replay(cfg, &artifact.trace))
    }

    // ------------------------------------------------------------------
    // op application
    // ------------------------------------------------------------------

    fn apply(&mut self, op: Op) {
        self.trace.push(op);
        self.stats.ops_applied += 1;
        match op {
            Op::AddFreePeer => {
                self.cluster.add_free_peer();
                self.stats.frees_added += 1;
            }
            Op::Insert { at, key } => {
                let id = self.cluster.insert_key_at(at, key);
                self.insert_keys_by_id.insert(id, key);
                let mapped = self.cluster.system().key_map.map(SearchKey(key)).raw();
                self.raw_by_mapped.insert(mapped, key);
                self.oracle.insert_issued(key);
                self.stats.inserts += 1;
            }
            Op::Delete { at, key } => {
                self.cluster.delete_key_at(at, key);
                let mapped = self.cluster.system().key_map.map(SearchKey(key)).raw();
                self.raw_by_mapped.insert(mapped, key);
                self.oracle.delete_issued(key);
                self.stats.deletes += 1;
            }
            Op::Query { at, lo, hi } => {
                if let Some(id) = self.cluster.query_at(at, lo, hi) {
                    self.pending_queries.push(PendingQuery {
                        at,
                        id,
                        issued: self.cluster.now(),
                        required: self.oracle.stable_present_in(lo, hi),
                        forbidden: self.oracle.stable_absent_in(lo, hi),
                    });
                    self.stats.queries_issued += 1;
                }
            }
            Op::Leave { peer } => {
                self.cluster.leave_peer(peer);
                self.stats.leaves += 1;
            }
            Op::Kill { peer } => {
                if self.cluster.sim.is_alive(peer) {
                    self.cluster.sim.kill(peer);
                    self.last_kill = Some(self.cluster.now());
                    self.stats.kills += 1;
                }
            }
            Op::Crash { peer } => {
                if self.cluster.crash_peer(peer) {
                    self.crashed.insert(peer);
                    // A crash is a fail-stop for grace-window purposes: while
                    // the peer is down, items whose only surviving copy is
                    // its WAL are legitimately unavailable.
                    self.last_kill = Some(self.cluster.now());
                    self.stats.crashes += 1;
                }
            }
            Op::Restart { peer } => {
                self.crashed.remove(&peer);
                if let Some(outcome) = self.cluster.restart_peer(peer) {
                    self.stats.restarts += 1;
                    self.stats.wal_records_replayed += outcome.wal_records_replayed;
                    self.stats.items_donated += outcome.donated;
                }
            }
            Op::Advance { ms } => {
                self.cluster.run(Duration::from_millis(ms));
                self.advances_seen += 1;
                self.drain_observations();
                if self.advances_seen % self.cfg.check_every.max(1) == 0 {
                    self.check_step_invariants();
                }
                return; // drain/checks already done
            }
        }
        self.drain_observations();
    }

    /// Whether `at` lies inside the failure-recovery grace window.
    fn in_failure_grace(&self, at: SimTime) -> bool {
        self.last_kill
            .is_some_and(|k| at <= k.saturating_add(FAILURE_GRACE))
    }

    /// Whether `at` lies inside the ring-repair grace window.
    fn in_ring_grace(&self, at: SimTime) -> bool {
        self.last_kill
            .is_some_and(|k| at <= k.saturating_add(RING_GRACE))
    }

    // ------------------------------------------------------------------
    // observation draining + query oracle
    // ------------------------------------------------------------------

    fn drain_observations(&mut self) {
        let observations = self.cluster.drain_observations();
        for (peer, obs) in observations {
            match obs {
                Observation::InsertAcked { item, .. } => {
                    if let Some(key) = self.insert_keys_by_id.remove(&item) {
                        self.oracle.insert_acked(key);
                    }
                }
                Observation::InsertFailed { item } => {
                    if let Some(key) = self.insert_keys_by_id.remove(&item) {
                        self.oracle.insert_failed(key);
                    }
                }
                Observation::DeleteAcked { mapped, .. } => {
                    if let Some(key) = self.raw_by_mapped.get(&mapped) {
                        self.oracle.delete_acked(*key);
                    }
                }
                Observation::QueryCompleted {
                    query,
                    items,
                    hops,
                    complete,
                    ..
                } => {
                    if let Some(idx) = self
                        .pending_queries
                        .iter()
                        .position(|p| p.at == peer && p.id == query)
                    {
                        self.query_hops.push(hops);
                        let pending = self.pending_queries.swap_remove(idx);
                        self.evaluate_query(pending, &items, complete);
                    }
                }
                _ => {}
            }
        }
    }

    fn evaluate_query(
        &mut self,
        pending: PendingQuery,
        items: &[pepper_types::Item],
        complete: bool,
    ) {
        self.stats.queries_checked += 1;
        if !complete {
            // Incomplete coverage is an *availability* outcome: the client
            // can see it and retry. Silent incorrectness is what the
            // invariant guards against.
            self.stats.queries_incomplete += 1;
            return;
        }
        let got: BTreeSet<u64> = items.iter().map(|i| i.skv.raw()).collect();
        // The missing-key check is suspended while the run is inside the
        // failure-recovery window that started at or before query issue: a
        // completed takeover may serve a range whose replicas are still being
        // revived. (A kill *during* the query also lands here, because the
        // grace window is anchored at the latest kill.)
        let missing_check =
            !self.in_failure_grace(pending.issued) && !self.in_failure_grace(self.cluster.now());
        if missing_check {
            for (key, version) in &pending.required {
                if self.oracle.version(*key) == Some(*version) && !got.contains(key) {
                    self.violations.push(Violation {
                        invariant: "query-vs-oracle",
                        peers: vec![pending.at],
                        details: format!(
                            "query {} at {} reported complete coverage but is missing key \
                             {key}, which was stably present for the query's whole duration",
                            pending.id, pending.at
                        ),
                    });
                }
            }
        }
        // Resurrection check: only meaningful while no fail-stop has ever
        // happened in the run — reviving a failed peer's range from replicas
        // can legitimately resurrect stale copies of deleted items at any
        // later point (the paper's replication protocol has no delete
        // propagation, so stale replicas persist indefinitely). The same
        // applies to crash-restarts: a restarted peer donates its recovered
        // items back, including copies of keys deleted during its downtime.
        if self.stats.kills == 0 && self.stats.crashes == 0 {
            for (key, version) in &pending.forbidden {
                if self.oracle.version(*key) == Some(*version) && got.contains(key) {
                    self.violations.push(Violation {
                        invariant: "query-vs-oracle",
                        peers: vec![pending.at],
                        details: format!(
                            "query {} at {} resurrected key {key}, which was stably deleted \
                             before the query was issued",
                            pending.id, pending.at
                        ),
                    });
                }
            }
        }
        if !self.violations.is_empty() {
            self.note_violation_step();
        }
    }

    // ------------------------------------------------------------------
    // invariant checking
    // ------------------------------------------------------------------

    /// Assembles the whole-system snapshot the checkers consume.
    pub fn system_view(&self) -> SystemView {
        SystemView {
            now: self.cluster.now(),
            ring: self.cluster.ring_snapshots(),
            stores: self.cluster.datastore_snapshots(),
            replicas: self.cluster.replica_holdings(),
        }
    }

    fn check_step_invariants(&mut self) {
        let view = self.system_view();
        let allow_gaps = self.in_failure_grace(view.now);
        // Ring consistency + connectivity hold continuously in fault-free
        // operation, but a fail-stop can transiently orphan knowledge the
        // dead peer was the sole holder of (e.g. a crash right after a join
        // ack, before the joiner's Joined status propagated past its
        // inserter) — the ring re-converges via stabilization's notify
        // repair. The ring oracles are therefore suspended inside the
        // ring-repair window (`RING_GRACE`); the settled end state is
        // always checked strictly.
        let mut found = if self.in_ring_grace(view.now) {
            Vec::new()
        } else {
            invariants::check_ring(&view)
        };
        found.extend(invariants::check_range_partition(&view, allow_gaps));
        found.extend(invariants::check_duplicate_items(&view));
        found.extend(invariants::check_recovered_range(&view));
        if !found.is_empty() {
            self.violations.extend(found);
            self.note_violation_step();
        }
    }

    fn note_violation_step(&mut self) {
        if self.violation_step.is_none() {
            self.violation_step = Some(self.trace.len().saturating_sub(1));
        }
    }

    /// Whether the most recent advance already ran the per-step oracles
    /// (its index landed on the check cadence) — if so, the settled state
    /// has been checked and the extra end-state pass would be redundant.
    fn settle_landed_on_cadence(&self) -> bool {
        self.advances_seen % self.cfg.check_every.max(1) == 0
    }

    fn check_quiescence_invariants(&mut self) {
        let view = self.system_view();
        let overflow = self.cluster.system().overflow_threshold();
        let k = self.cluster.system().replication_factor;
        let mut found = invariants::check_storage_bounds(&view, overflow);
        found.extend(invariants::check_replication(&view, k));
        // Item conservation vs the oracle: nothing stably present may be
        // lost; with zero kills, nothing beyond the oracle's key set (plus
        // keys in indeterminate states) may exist either.
        let stored = self.cluster.stored_keys();
        for key in self.oracle.confirmed() {
            if !stored.contains(&key) {
                found.push(Violation {
                    invariant: "item-conservation",
                    peers: Vec::new(),
                    details: format!(
                        "key {key} was insert-acked and never deleted, but no live peer \
                         stores it after quiescence"
                    ),
                });
            }
        }
        if self.stats.kills == 0 && self.stats.crashes == 0 {
            let confirmed: BTreeSet<u64> = self.oracle.confirmed().into_iter().collect();
            let indeterminate: BTreeSet<u64> = self.oracle.indeterminate().into_iter().collect();
            for key in &stored {
                if !confirmed.contains(key) && !indeterminate.contains(key) {
                    found.push(Violation {
                        invariant: "item-conservation",
                        peers: Vec::new(),
                        details: format!(
                            "key {key} is stored after quiescence but the oracle says it \
                             should be absent (and no fail-stop could have resurrected it)"
                        ),
                    });
                }
            }
        }
        if !found.is_empty() {
            self.violations.extend(found);
            self.note_violation_step();
        }
    }

    // ------------------------------------------------------------------
    // finish: settle, quiescence checks, report
    // ------------------------------------------------------------------

    fn render_store_dump(&self) -> String {
        let mut out = String::new();
        for (alive, s) in self.cluster.datastore_snapshots() {
            let alive = if alive { "alive" } else { "DEAD" };
            out.push_str(&format!(
                "{} {:?} {} {} items={:?} rebalancing={} blocked={} locks={}\n",
                s.id,
                s.status,
                alive,
                s.range,
                s.mapped_keys,
                s.rebalancing,
                s.writes_blocked,
                s.scan_locks,
            ));
        }
        out
    }

    /// Events each implicated peer keeps in its ring buffer during the
    /// trace-tail re-replay of a red run.
    const TRACE_TAIL_EVENTS: usize = 64;

    /// Captures the trace tail for a red artifact: re-executes the recorded
    /// schedule with tracing enabled (bounded rings, so every peer keeps
    /// exactly its last [`Self::TRACE_TAIL_EVENTS`] events) and renders the
    /// buffers of the peers the violations implicate. Determinism guarantees
    /// the traced re-run lands on the identical violation, so the rendered
    /// tail is a genuine post-mortem of the original run.
    fn render_trace_tail(&self) -> String {
        let involved: BTreeSet<PeerId> = self
            .violations
            .iter()
            .flat_map(|v| v.peers.iter().copied())
            .collect();
        if involved.is_empty() {
            return String::new();
        }
        let mut cfg = self.cfg.clone();
        cfg.trace = TraceConfig::enabled().with_ring_capacity(Self::TRACE_TAIL_EVENTS);
        let replay = Harness::replay(cfg, &self.trace);
        let mut traces: HashMap<PeerId, Vec<TraceEvent>> = replay.traces.into_iter().collect();
        // Every implicated peer gets a section, even an empty one — "this
        // peer recorded nothing" is itself a triage datum.
        let tails: Vec<(u64, Vec<TraceEvent>)> = involved
            .into_iter()
            .map(|p| (p.raw(), traces.remove(&p).unwrap_or_default()))
            .collect();
        render_trace(&tails)
    }

    fn finish(mut self) -> RunReport {
        // Quiescence: make sure splits are never starved of free peers, then
        // let every in-flight transfer, refresh round and pending query
        // resolve. All of it is recorded in the trace so replays match.
        let had_violations = !self.violations.is_empty();
        if !had_violations {
            if !self.replaying {
                // Restart every peer still down from a crash before
                // settling: an unrestarted crash would silently degrade into
                // a permanent kill — one that never got the pre-kill
                // replica-settle round, so its newest acked items may exist
                // only in a WAL nobody would ever replay. (Recorded in the
                // trace like every quiescence op, so replays match.)
                for peer in std::mem::take(&mut self.crashed) {
                    self.apply(Op::Restart { peer });
                }
                // Enough free peers for every pending split to complete: in
                // steady state each member holds at least `sf` items, so the
                // settled ring needs at most `items / sf` members. Topping
                // up to a flat 2 starved large runs (dozens of overflowing
                // peers, an empty pool) and the storage bound never settled.
                let sf = self.cluster.system().storage_factor.max(1);
                let members = self.cluster.with_ring_members(|m| m.len());
                let needed = (self.cluster.total_items() / sf)
                    .saturating_sub(members)
                    .max(2);
                while self.cluster.pool.len() < needed {
                    self.apply(Op::AddFreePeer);
                }
                self.apply(Op::Advance {
                    ms: SETTLE.as_millis() as u64,
                });
                // With a sparse check cadence the settle advance may not
                // land on a checked step; make sure the strict per-step
                // oracles see the settled state exactly once.
                if self.violations.is_empty() && !self.settle_landed_on_cadence() {
                    self.check_step_invariants();
                }
                self.check_quiescence_invariants();
            } else {
                // A replayed *clean* trace already contains the quiescence
                // ops (it ends with the settle advance) — re-check at the
                // same point. A replayed *red* trace stops at the violating
                // step and never settled; when a protocol fix makes it run
                // clean, asserting quiescence invariants mid-churn would
                // produce phantom violations, so skip them.
                let settled = self.trace.ops().last()
                    == Some(&Op::Advance {
                        ms: SETTLE.as_millis() as u64,
                    });
                if settled {
                    if self.violations.is_empty() && !self.settle_landed_on_cadence() {
                        self.check_step_invariants();
                    }
                    self.check_quiescence_invariants();
                }
            }
        }

        let ring_dump = format_ring(&self.cluster.ring_snapshots());
        let store_dump = self.render_store_dump();
        // The durable bytes are part of the replayed state: fold every
        // peer's VFS digest into the hash so artifact replays pin the
        // in-memory VFS contents too (zero-effect when durability is off).
        let storage_digest = self.cluster.storage_digest();
        let final_state_hash =
            fnv1a(format!("{ring_dump}\n{store_dump}\nstorage {storage_digest:016x}").as_bytes());
        // On a red generated run, capture the implicated peers' last trace
        // events by re-running the recorded schedule with tracing on (skip
        // inside replays: a replayed artifact already carries its tail, and
        // the guard also keeps the capture replay itself from recursing).
        let trace_tail = if !self.violations.is_empty() && !self.replaying {
            self.render_trace_tail()
        } else {
            String::new()
        };
        let artifact = (!self.violations.is_empty()).then(|| FailureArtifact {
            seed: self.cfg.seed,
            profile: self.cfg.profile.clone(),
            step: self.violation_step.unwrap_or(self.trace.len()),
            violations: self.violations.clone(),
            trace: self.trace.clone(),
            ring_dump: ring_dump.clone(),
            store_dump: store_dump.clone(),
            trace_tail,
        });
        RunReport {
            trace: self.trace,
            violations: self.violations,
            stats: self.stats,
            net: self.cluster.sim.stats(),
            virtual_elapsed: self.cluster.now(),
            final_members: self.cluster.with_ring_members(|m| m.len()),
            stored_keys: self.cluster.stored_keys(),
            final_state_hash,
            query_hops: self.query_hops,
            peer_deliveries: self.cluster.sim.per_peer_deliveries(),
            traces: self.cluster.trace_events(),
            metrics: self.cluster.metrics(),
            artifact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_state() {
        let a = Harness::run_generated(HarnessConfig::quick(11));
        let b = Harness::run_generated(HarnessConfig::quick(11));
        assert_eq!(a.trace.hash(), b.trace.hash());
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.stats, b.stats);
        let c = Harness::run_generated(HarnessConfig::quick(12));
        assert_ne!(a.trace.hash(), c.trace.hash());
    }

    #[test]
    fn replaying_a_generated_trace_reproduces_the_run() {
        let generated = Harness::run_generated(HarnessConfig::quick(21));
        let replayed = Harness::replay(HarnessConfig::quick(21), &generated.trace);
        assert_eq!(replayed.trace.hash(), generated.trace.hash());
        assert_eq!(replayed.final_state_hash, generated.final_state_hash);
        assert_eq!(replayed.violations.len(), generated.violations.len());
    }

    #[test]
    fn quick_profile_exercises_every_op_kind() {
        let report = Harness::run_generated(HarnessConfig::quick(31));
        assert!(report.stats.inserts > 0, "{:?}", report.stats);
        assert!(report.stats.queries_issued > 0, "{:?}", report.stats);
        assert!(report.stats.frees_added > 0, "{:?}", report.stats);
        assert!(
            report.stats.kills + report.stats.crashes > 0,
            "{:?}",
            report.stats
        );
        assert!(report.stats.restarts > 0, "{:?}", report.stats);
        assert_eq!(
            report.stats.crashes, report.stats.restarts,
            "every crash restarts"
        );
    }
}
