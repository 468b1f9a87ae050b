//! One round of one workload: set a cluster up, run the open loop, drain,
//! check.
//!
//! Everything the program does happens inside a `setup.*` or `run.*` span;
//! everything the benchmark does to judge it (`check.*`) happens outside
//! them and is not part of `host_s`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use pepper_datastore::QueryId;
use pepper_index::Observation;
use pepper_net::{NetStats, SimTime};
use pepper_sim::cluster::{Cluster, ClusterConfig, DurabilityConfig};
use pepper_sim::harness::ModelOracle;
use pepper_trace::TraceConfig;
use pepper_types::{Item, ItemId, PeerId, SearchKey};

use crate::rng::{Rng, Zipf};
use crate::spans::Spans;
use crate::stats::Fnv;
use crate::workloads::{
    Kind, Spec, CHURN_EVERY_S, DOMAIN, DRAIN_EVERY, DRAIN_S, LOAD_GAP_MS, RESTART_AFTER_S, WARMUP_S,
};

/// Counter key of the program's metrics registry: `(layer, name)`.
pub type CounterKey = (&'static str, &'static str);

/// Ops issued in the measured phase, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Issued {
    /// `insertItem` calls.
    pub inserts: u64,
    /// `deleteItem` calls.
    pub deletes: u64,
    /// `rangeQuery` calls.
    pub queries: u64,
}

impl Issued {
    /// All client ops.
    pub fn total(&self) -> u64 {
        self.inserts + self.deletes + self.queries
    }
}

/// Measured ops that did not succeed, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failed {
    /// Inserts that reported `InsertFailed`.
    pub insert_failed: u64,
    /// Inserts never acknowledged by the end of the drain.
    pub insert_unacked: u64,
    /// Deletes never acknowledged by the end of the drain.
    pub delete_unacked: u64,
    /// Queries the issuer refused to register.
    pub query_rejected: u64,
    /// Queries that completed with partial coverage.
    pub query_incomplete: u64,
    /// Queries that never completed.
    pub query_unfinished: u64,
    /// Queries that claimed full coverage but missed a key of the model
    /// while a failed peer's range was being taken over, or a key that died
    /// with a failed peer (`peer_churn` only; anywhere else, and for any
    /// other key, a contradiction is a correctness error).
    pub query_stale: u64,
    /// Acknowledged items no live peer stores after the drain, lost with a
    /// failed peer before the next replica refresh (`peer_churn` only;
    /// anywhere else a lost item is a correctness error).
    pub items_lost: u64,
}

impl Failed {
    /// All failed ops.
    pub fn total(&self) -> u64 {
        self.insert_failed
            + self.insert_unacked
            + self.delete_unacked
            + self.query_rejected
            + self.query_incomplete
            + self.query_unfinished
            + self.query_stale
            + self.items_lost
    }

    /// `(class, count)` pairs, for printing.
    pub fn classes(&self) -> [(&'static str, u64); 8] {
        [
            ("insert_failed", self.insert_failed),
            ("insert_unacked", self.insert_unacked),
            ("delete_unacked", self.delete_unacked),
            ("query_rejected", self.query_rejected),
            ("query_incomplete", self.query_incomplete),
            ("query_unfinished", self.query_unfinished),
            ("query_stale", self.query_stale),
            ("items_lost", self.items_lost),
        ]
    }

    fn absorb(&mut self, o: &Failed) {
        self.insert_failed += o.insert_failed;
        self.insert_unacked += o.insert_unacked;
        self.delete_unacked += o.delete_unacked;
        self.query_rejected += o.query_rejected;
        self.query_incomplete += o.query_incomplete;
        self.query_unfinished += o.query_unfinished;
        self.query_stale += o.query_stale;
        self.items_lost += o.items_lost;
    }
}

/// Host seconds spent per kind of call into the program (and in checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// `Cluster::run`.
    pub advance_s: f64,
    /// `insert_key_at` / `delete_key_at` / `query_at` and membership calls.
    pub issue_s: f64,
    /// `drain_observations`.
    pub drain_s: f64,
    /// `owner_of` takeover polling.
    pub poll_s: f64,
    /// Oracle bookkeeping and checks (not part of `host_s`).
    pub check_s: f64,
}

impl HostTimes {
    /// Raw host seconds of every call into the program.
    pub fn wall_s(&self) -> f64 {
        self.advance_s + self.issue_s + self.drain_s + self.poll_s
    }

    fn absorb(&mut self, o: &HostTimes) {
        self.advance_s += o.advance_s;
        self.issue_s += o.issue_s;
        self.drain_s += o.drain_s;
        self.poll_s += o.poll_s;
        self.check_s += o.check_s;
    }
}

/// Host time of the calls into the program, cleaned of the host's own noise.
///
/// The reference box is a small VM among noisy neighbours: a fifth of its
/// CPU time is stolen in bursts of 0.05–1 s and memory-bound code slows by
/// up to a third for seconds at a time — raw sums of the same work spread
/// over ±25%. Interference only ever *adds* time, so a phase is cut into
/// slices, one per observation drain (20–50 ms each), and costs its
/// simulator events times the lower-quartile host ns per event of its
/// slices: what the phase takes while the host does not interfere.
#[derive(Debug, Default)]
struct Slices {
    /// `(host seconds, simulator events)` per slice.
    slices: Vec<(f64, u64)>,
    seen_s: f64,
    seen_events: u64,
}

impl Slices {
    /// Starts slicing at `events` simulator events.
    fn starting_at(events: u64) -> Self {
        Slices {
            seen_events: events,
            ..Slices::default()
        }
    }

    /// Ends a slice at `host_s` seconds spent in calls into the program and
    /// `events` simulator events (both cumulative).
    fn cut(&mut self, host_s: f64, events: u64) {
        self.slices
            .push((host_s - self.seen_s, events - self.seen_events));
        (self.seen_s, self.seen_events) = (host_s, events);
    }

    /// The cleaned host seconds of everything sliced so far.
    fn cleaned_s(&self) -> f64 {
        let raw: f64 = self.slices.iter().map(|(s, _)| s).sum();
        let events: u64 = self.slices.iter().map(|(_, e)| e).sum();
        let mut cost: Vec<f64> = self
            .slices
            .iter()
            .filter(|(_, e)| *e > 0)
            .map(|(s, e)| s / *e as f64)
            .collect();
        cost.sort_by(f64::total_cmp);
        // Too few slices to take a quartile of: keep the raw time.
        if cost.len() < 8 {
            raw
        } else {
            cost[cost.len() / 4] * events as f64
        }
    }
}

/// What one round (or several pooled rounds) measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Host seconds of each set-up (boot + load + settle + warm-up; calls
    /// into the program only, raw).
    pub setup_s: Vec<f64>,
    /// Host seconds of the measured phase (calls into the program only),
    /// cleaned of host noise slice by slice.
    pub host_s: f64,
    /// Raw host seconds of the measured phase, by kind of call.
    pub host: HostTimes,
    /// Virtual seconds of op issue (drain not included).
    pub issue_virtual_s: f64,
    /// Ring members when the measured phase started, per round.
    pub members_start: Vec<usize>,
    /// Ring members after the drain, per round.
    pub members_end: Vec<usize>,
    /// Ops issued.
    pub issued: Issued,
    /// Ops failed.
    pub failed: Failed,
    /// `InsertAcked.elapsed` of successful measured inserts, virtual ms.
    pub insert_ms: Vec<f64>,
    /// `QueryCompleted.elapsed` of complete, model-consistent queries.
    pub query_ms: Vec<f64>,
    /// Scan hops of the same queries.
    pub scan_hops: Vec<f64>,
    /// Fail-stop/crash → a live member owns the victim's upper bound.
    pub takeover_ms: Vec<f64>,
    /// Victims whose range nobody owned by the end of the drain.
    pub takeovers_unresolved: u64,
    /// `InsertSuccCompleted.elapsed`, virtual ms.
    pub insert_succ_ms: Vec<f64>,
    /// `LeaveCompleted.elapsed`, virtual ms.
    pub leave_ms: Vec<f64>,
    /// `MergeCompleted.elapsed`, virtual ms.
    pub merge_ms: Vec<f64>,
    /// Host µs of each `Cluster::restart_peer`.
    pub restart_us: Vec<f64>,
    /// WAL records replayed by restarts.
    pub wal_records_replayed: u64,
    /// Simulator counters over op issue + drain (peaks are absolute).
    pub net: NetStats,
    /// Messages delivered during op issue (drain not included).
    pub msgs_issue_phase: u64,
    /// Busiest member's delivered events ÷ the mean over members, per round.
    pub load_imbalance: Vec<f64>,
    /// Metrics-registry counters over op issue + drain (traced run only).
    pub counters: BTreeMap<CounterKey, u64>,
    /// Determinism witness: `NetStats`, op outcomes, final stored keys.
    pub witness: u64,
    /// Correctness violations; any makes the run fail.
    pub errors: Vec<String>,
}

impl Measured {
    /// Pools another round into this one.
    pub fn absorb(&mut self, o: Measured) {
        self.setup_s.extend(o.setup_s);
        self.host_s += o.host_s;
        self.host.absorb(&o.host);
        self.issue_virtual_s += o.issue_virtual_s;
        self.members_start.extend(o.members_start);
        self.members_end.extend(o.members_end);
        self.issued.inserts += o.issued.inserts;
        self.issued.deletes += o.issued.deletes;
        self.issued.queries += o.issued.queries;
        self.failed.absorb(&o.failed);
        self.insert_ms.extend(o.insert_ms);
        self.query_ms.extend(o.query_ms);
        self.scan_hops.extend(o.scan_hops);
        self.takeover_ms.extend(o.takeover_ms);
        self.takeovers_unresolved += o.takeovers_unresolved;
        self.insert_succ_ms.extend(o.insert_succ_ms);
        self.leave_ms.extend(o.leave_ms);
        self.merge_ms.extend(o.merge_ms);
        self.restart_us.extend(o.restart_us);
        self.wal_records_replayed += o.wal_records_replayed;
        self.net = net_zip(self.net, o.net, |a, b| a + b);
        self.msgs_issue_phase += o.msgs_issue_phase;
        self.load_imbalance.extend(o.load_imbalance);
        for (k, v) in o.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        let mut h = Fnv(self.witness);
        h.word(o.witness);
        self.witness = h.0;
        self.errors.extend(o.errors);
    }
}

/// A query in flight, with the model's ground truth captured at issue.
struct PendingQuery {
    measured: bool,
    /// `(key, model version)` a complete result must contain.
    required: Vec<(u64, u64)>,
    /// `(key, model version)` a result must not contain.
    forbidden: Vec<(u64, u64)>,
    /// A failed peer's range was unowned when the query was issued.
    in_recovery: bool,
}

/// A failed peer whose range nobody owns yet.
struct OpenTakeover {
    /// The victim's old upper bound.
    key: u64,
    since: SimTime,
}

struct PendingInsert {
    key: u64,
    measured: bool,
    /// Whether the ack makes the key a `grown` (not a `live`) candidate.
    grown: bool,
}

enum Op {
    Insert(u64),
    /// A `grow_shrink` grow-phase insert.
    Grow(u64),
    Delete(u64),
    Query(u64, u64),
}

struct Round<'a> {
    spec: &'a Spec,
    cluster: Cluster,
    rng: Rng,
    zipf: Zipf,
    oracle: ModelOracle,
    spans: &'a mut Spans,
    out: Measured,
    measuring: bool,
    /// Every key ever drawn: keys are never reused, so acks cannot be
    /// confused across generations of one key.
    used: HashSet<u64>,
    /// Keys acknowledged present with no op in flight: delete candidates
    /// of the stationary mix.
    live: Vec<u64>,
    /// `grow_shrink`: acknowledged keys of the grow phase, deleted by the
    /// shrink phase only.
    grown: Vec<u64>,
    inserts: HashMap<ItemId, PendingInsert>,
    deletes: HashMap<u64, (u64, bool)>,
    queries: HashMap<(PeerId, QueryId), PendingQuery>,
    /// Ops in flight per issuing peer: a peer with a client waiting on it is
    /// never picked as a churn victim.
    waiting_at: HashMap<PeerId, u32>,
    takeovers: Vec<OpenTakeover>,
    /// Until when (virtual) complete queries may still miss revived items.
    recovery_until: SimTime,
    restarts: Vec<(PeerId, SimTime)>,
    membership_events: u64,
    any_failure: bool,
    /// `peer_churn`: complete queries that missed a stably present key
    /// outside any takeover window, judged once the final stored keys are
    /// known — `(key, measured, what to report)`.
    suspects: Vec<(u64, bool, String)>,
    /// Registry counters of peers that were since restarted: a restart
    /// builds the node anew and its registry starts from zero.
    retired: BTreeMap<CounterKey, u64>,
    pool_size: usize,
    slices: Slices,
}

/// Virtual seconds after a takeover during which the new owner may still be
/// reviving the range's items from replicas (one recover round trip plus a
/// replica refresh period).
const REVIVE_GRACE: Duration = Duration::from_secs(8);

impl<'a> Round<'a> {
    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn mapped(&self, key: u64) -> u64 {
        self.cluster.system().key_map.map(SearchKey(key)).raw()
    }

    fn random_member(&mut self) -> PeerId {
        let rng = &mut self.rng;
        self.cluster.with_ring_members(|m| m[rng.index(m.len())])
    }

    fn fresh_key(&mut self, zipf: bool) -> u64 {
        loop {
            let key = if zipf {
                self.zipf.key(&mut self.rng)
            } else {
                self.rng.below(DOMAIN)
            };
            if self.used.insert(key) {
                return key;
            }
        }
    }

    fn in_recovery(&self) -> bool {
        !self.takeovers.is_empty() || self.now() < self.recovery_until
    }

    // -- calling the program, and judging it ------------------------------

    /// Runs `f` against the program inside span `span` and books its host
    /// time under `bucket`.
    fn call<R>(
        &mut self,
        span: &'static str,
        bucket: fn(&mut HostTimes) -> &mut f64,
        f: impl FnOnce(&mut Cluster) -> R,
    ) -> R {
        let open = self.spans.begin(span);
        let result = f(&mut self.cluster);
        *bucket(&mut self.out.host) += self.spans.end(open).as_secs_f64();
        result
    }

    /// Runs the benchmark's own bookkeeping `f` inside a `check.ops` span.
    fn check(&mut self, f: impl FnOnce(&mut Self)) {
        let open = self.spans.begin("check.ops");
        f(self);
        self.out.host.check_s += self.spans.end(open).as_secs_f64();
    }

    fn issue(&mut self, op: Op) {
        let at = self.random_member();
        let measured = self.measuring;
        let issue_s: fn(&mut HostTimes) -> &mut f64 = |h| &mut h.issue_s;
        let mut waiting = true;
        match op {
            Op::Insert(key) | Op::Grow(key) => {
                let id = self.call("run.issue", issue_s, |c| c.insert_key_at(at, key));
                let grown = matches!(op, Op::Grow(_));
                self.check(|r| {
                    let pending = PendingInsert {
                        key,
                        measured,
                        grown,
                    };
                    r.inserts.insert(id, pending);
                    r.oracle.insert_issued(key);
                    r.out.issued.inserts += u64::from(measured);
                });
            }
            Op::Delete(key) => {
                self.call("run.issue", issue_s, |c| c.delete_key_at(at, key));
                self.check(|r| {
                    r.deletes.insert(r.mapped(key), (key, measured));
                    r.oracle.delete_issued(key);
                    r.out.issued.deletes += u64::from(measured);
                });
            }
            Op::Query(lo, hi) => {
                let id = self.call("run.issue", issue_s, |c| c.query_at(at, lo, hi));
                waiting = id.is_some();
                self.check(|r| {
                    r.out.issued.queries += u64::from(measured);
                    let Some(id) = id else {
                        r.out.failed.query_rejected += u64::from(measured);
                        return;
                    };
                    let pending = PendingQuery {
                        measured,
                        required: r.oracle.stable_present_in(lo, hi),
                        forbidden: r.oracle.stable_absent_in(lo, hi),
                        in_recovery: r.in_recovery(),
                    };
                    r.queries.insert((at, id), pending);
                });
            }
        }
        if waiting {
            *self.waiting_at.entry(at).or_insert(0) += 1;
        }
    }

    fn random_query(&mut self) -> Op {
        let width = self.spec.query_width();
        let lo = self.rng.below(DOMAIN - width);
        Op::Query(lo, lo + width)
    }

    /// Removes and returns a random delete candidate.
    fn take_live(&mut self) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let i = self.rng.index(self.live.len());
        Some(self.live.swap_remove(i))
    }

    /// The stationary mix: `write_pct`% inserts of fresh uniform keys,
    /// `write_pct`% deletes of a live key, the rest range queries.
    fn mixed_op(&mut self) -> Op {
        let draw = self.rng.below(100);
        if draw < self.spec.write_pct {
            Op::Insert(self.fresh_key(false))
        } else if draw < 2 * self.spec.write_pct {
            match self.take_live() {
                Some(key) => Op::Delete(key),
                None => self.random_query(),
            }
        } else {
            self.random_query()
        }
    }

    /// `grow_shrink`: op `i` of `n`. First half inserts Zipf keys, second
    /// half deletes them in random order; every 11th op is a query.
    fn grow_shrink_op(&mut self, i: usize, n: usize) -> Op {
        if i % Spec::GROW_QUERY_EVERY == Spec::GROW_QUERY_EVERY - 1 {
            return self.random_query();
        }
        if i < n / 2 {
            return Op::Grow(self.fresh_key(true));
        }
        if self.grown.is_empty() {
            return self.random_query();
        }
        let j = self.rng.index(self.grown.len());
        Op::Delete(self.grown.swap_remove(j))
    }

    // -- advancing, draining, judging -----------------------------------

    fn advance(&mut self, d: Duration) {
        self.call("run.advance", |h| &mut h.advance_s, |c| c.run(d));
        if self.takeovers.is_empty() {
            return;
        }
        let now = self.now();
        let open = std::mem::take(&mut self.takeovers);
        let (still_open, taken_over): (Vec<_>, Vec<_>) = self.call(
            "run.poll",
            |h| &mut h.poll_s,
            |c| open.into_iter().partition(|t| c.owner_of(t.key).is_none()),
        );
        self.takeovers = still_open;
        for t in taken_over {
            self.out
                .takeover_ms
                .push((now - t.since).as_secs_f64() * 1e3);
        }
        if self.takeovers.is_empty() {
            self.recovery_until = now + REVIVE_GRACE;
        }
    }

    fn drain(&mut self) {
        let observations = self.call("run.drain", |h| &mut h.drain_s, Cluster::drain_observations);
        self.check(|r| {
            for (peer, obs) in observations {
                r.judge(peer, obs);
            }
            if r.cluster.pool.is_empty() {
                r.out.errors.push(format!(
                    "free pool of {} peers ran empty: growth is capped and the run measures a starved ring",
                    r.pool_size
                ));
            }
        });
        self.slices.cut(
            self.out.host.wall_s(),
            self.cluster.sim.stats().events_processed,
        );
    }

    fn done_waiting(&mut self, at: PeerId) {
        if let Some(n) = self.waiting_at.get_mut(&at) {
            *n -= 1;
            if *n == 0 {
                self.waiting_at.remove(&at);
            }
        }
    }

    fn judge(&mut self, peer: PeerId, obs: Observation) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match obs {
            Observation::InsertAcked { item, elapsed } => {
                let Some(p) = self.inserts.remove(&item) else {
                    return; // a restarted peer's donation, not a client op
                };
                self.done_waiting(peer);
                self.oracle.insert_acked(p.key);
                if p.grown {
                    self.grown.push(p.key);
                } else {
                    self.live.push(p.key);
                }
                if p.measured {
                    self.out.insert_ms.push(ms(elapsed));
                }
            }
            Observation::InsertFailed { item } => {
                let Some(p) = self.inserts.remove(&item) else {
                    return;
                };
                self.done_waiting(peer);
                self.oracle.insert_failed(p.key);
                self.out.failed.insert_failed += u64::from(p.measured);
            }
            Observation::DeleteAcked { mapped, .. } => {
                if let Some((key, _)) = self.deletes.remove(&mapped) {
                    self.done_waiting(peer);
                    self.oracle.delete_acked(key);
                }
            }
            Observation::QueryCompleted {
                query,
                items,
                hops,
                elapsed,
                complete,
                ..
            } => {
                let Some(pending) = self.queries.remove(&(peer, query)) else {
                    return;
                };
                self.done_waiting(peer);
                self.judge_query(peer, query, pending, &items, hops, ms(elapsed), complete);
            }
            Observation::InsertSuccCompleted { elapsed, .. } if self.measuring => {
                self.out.insert_succ_ms.push(ms(elapsed));
            }
            Observation::LeaveCompleted { elapsed } if self.measuring => {
                self.out.leave_ms.push(ms(elapsed));
            }
            Observation::MergeCompleted { elapsed } if self.measuring => {
                self.out.merge_ms.push(ms(elapsed));
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn judge_query(
        &mut self,
        peer: PeerId,
        query: QueryId,
        pending: PendingQuery,
        items: &[Item],
        hops: u32,
        elapsed_ms: f64,
        complete: bool,
    ) {
        if !complete {
            // Partial coverage is visible to the client and retriable: an
            // availability failure, not a wrong answer.
            if pending.measured {
                self.out.failed.query_incomplete += 1;
            }
            return;
        }
        let got: HashSet<u64> = items.iter().map(|i| i.skv.raw()).collect();
        let missing = pending
            .required
            .iter()
            .find(|(k, v)| self.oracle.version(*k) == Some(*v) && !got.contains(k));
        // Reviving a failed peer's range from replicas can resurrect stale
        // copies of deleted items at any later time (the replication
        // protocol has no delete propagation), so the resurrection check
        // only holds while no peer has failed.
        let resurrected = (!self.any_failure)
            .then(|| {
                pending
                    .forbidden
                    .iter()
                    .find(|(k, v)| self.oracle.version(*k) == Some(*v) && got.contains(k))
            })
            .flatten();
        match (missing, resurrected) {
            (None, None) => {
                if pending.measured {
                    self.out.query_ms.push(elapsed_ms);
                    self.out.scan_hops.push(f64::from(hops));
                }
            }
            // While a failed peer's range is being taken over and revived, a
            // scan can pass the new owner before the replicas are back.
            (Some(_), None) if pending.in_recovery || self.in_recovery() => {
                if pending.measured {
                    self.out.failed.query_stale += 1;
                }
            }
            (Some((key, _)), _) => {
                let report = format!(
                    "query {query} at {peer} claimed full coverage but misses key {key}, stably present for its whole duration"
                );
                if self.any_failure {
                    // The item may have died with a failed peer before its
                    // first replica refresh: known only after the drain.
                    self.suspects.push((*key, pending.measured, report));
                } else {
                    self.out.errors.push(report);
                }
            }
            (None, Some((key, _))) => self.out.errors.push(format!(
                "query {query} at {peer} returned key {key}, stably deleted before it was issued"
            )),
        }
    }

    // -- membership events (peer_churn) ----------------------------------

    /// A live ring member no client is waiting on.
    fn pick_victim(&mut self) -> Option<PeerId> {
        let waiting = &self.waiting_at;
        let candidates: Vec<PeerId> = self.cluster.with_ring_members(|m| {
            m.iter()
                .copied()
                .filter(|p| !waiting.contains_key(p))
                .collect()
        });
        (candidates.len() > 8).then(|| candidates[self.rng.index(candidates.len())])
    }

    /// Rotates fail-stop (+ one fresh free peer) / crash (restarted
    /// [`RESTART_AFTER_S`] later) / voluntary leave.
    fn membership_event(&mut self) {
        let Some(victim) = self.pick_victim() else {
            return;
        };
        let kind = self.membership_events % 3;
        self.membership_events += 1;
        let key = self
            .cluster
            .node(victim)
            .expect("victim exists")
            .data_store()
            .range()
            .high()
            .raw();
        self.call(
            "run.issue",
            |h| &mut h.issue_s,
            |c| match kind {
                0 => {
                    c.sim.kill(victim);
                    c.add_free_peer();
                }
                1 => {
                    c.crash_peer(victim);
                }
                _ => {
                    c.leave_peer(victim);
                }
            },
        );
        if kind == 1 {
            self.restarts
                .push((victim, self.now() + Duration::from_secs(RESTART_AFTER_S)));
        }
        if kind < 2 {
            self.any_failure = true;
            self.takeovers.push(OpenTakeover {
                key,
                since: self.now(),
            });
        }
    }

    fn restart_due_peers(&mut self) {
        let now = self.now();
        let due: Vec<PeerId> = self
            .restarts
            .iter()
            .filter(|(_, at)| *at <= now)
            .map(|(p, _)| *p)
            .collect();
        self.restarts.retain(|(_, at)| *at > now);
        for peer in due {
            if let Some(node) = self.cluster.node(peer) {
                for (layer, name, v) in node.metrics().counters() {
                    *self.retired.entry((layer, name)).or_insert(0) += v;
                }
            }
            let open = self.spans.begin("run.restart");
            let outcome = self.cluster.restart_peer(peer);
            let took = self.spans.end(open);
            self.out.host.issue_s += took.as_secs_f64();
            if let Some(outcome) = outcome {
                self.out.restart_us.push(took.as_secs_f64() * 1e6);
                self.out.wal_records_replayed += outcome.wal_records_replayed;
            }
        }
    }
}

fn counters_of(cluster: &Cluster) -> BTreeMap<CounterKey, u64> {
    cluster
        .metrics()
        .counters()
        .map(|(layer, name, v)| ((layer, name), v))
        .collect()
}

/// Combines the counters of two `NetStats` with `f`; the peaks (high-water
/// marks, not counters) take the larger.
fn net_zip(a: NetStats, b: NetStats, f: fn(u64, u64) -> u64) -> NetStats {
    NetStats {
        messages_sent: f(a.messages_sent, b.messages_sent),
        messages_delivered: f(a.messages_delivered, b.messages_delivered),
        messages_dropped: f(a.messages_dropped, b.messages_dropped),
        timers_fired: f(a.timers_fired, b.timers_fired),
        timers_dropped: f(a.timers_dropped, b.timers_dropped),
        external_delivered: f(a.external_delivered, b.external_delivered),
        events_processed: f(a.events_processed, b.events_processed),
        peak_queue_depth: a.peak_queue_depth.max(b.peak_queue_depth),
        peak_fifo_channels: a.peak_fifo_channels.max(b.peak_fifo_channels),
    }
}

/// Sets a round up: boot, load, settle, warm up. `ops` sizes the free pool.
fn set_up<'a>(
    spec: &'a Spec,
    seed: u64,
    ops: usize,
    trace: bool,
    spans: &'a mut Spans,
) -> Round<'a> {
    let setup_span = spans.begin("setup");

    // Boot: one live peer plus a free pool sized for the most items the
    // round can hold (a member stores at least `sf` items once settled).
    let open = spans.begin("setup.boot");
    let mut cfg = ClusterConfig::paper(seed);
    let sf = cfg.system.storage_factor.max(1);
    let pool_size = spec.peak_items(ops) / sf + 64;
    cfg = cfg.with_free_peers(pool_size);
    if spec.durability {
        cfg = cfg.with_durability(DurabilityConfig::default());
    }
    if trace {
        cfg = cfg.with_trace(TraceConfig {
            metrics: true,
            ..TraceConfig::off()
        });
    }
    let cluster = Cluster::new(cfg);
    let boot = spans.end(open);

    let mut r = Round {
        spec,
        cluster,
        rng: Rng::new(seed),
        zipf: Zipf::new(DOMAIN, 16, 0.9),
        oracle: ModelOracle::new(),
        spans,
        out: Measured::default(),
        measuring: false,
        used: HashSet::new(),
        live: Vec::new(),
        grown: Vec::new(),
        inserts: HashMap::new(),
        deletes: HashMap::new(),
        queries: HashMap::new(),
        waiting_at: HashMap::new(),
        takeovers: Vec::new(),
        recovery_until: SimTime::ZERO,
        restarts: Vec::new(),
        membership_events: 0,
        any_failure: false,
        suspects: Vec::new(),
        retired: BTreeMap::new(),
        pool_size,
        slices: Slices::starting_at(0),
    };

    // Load: uniform items through the normal insert path, so splits grow
    // the ring exactly as in the paper's set-up.
    let open = r.spans.begin("setup.load");
    for i in 0..spec.items {
        let key = r.fresh_key(false);
        r.issue(Op::Insert(key));
        r.advance(Duration::from_millis(LOAD_GAP_MS));
        if (i + 1) % DRAIN_EVERY == 0 {
            r.drain();
        }
    }
    r.spans.end(open);

    // Settle: until every load insert is acknowledged and membership has
    // not moved for three stabilization periods.
    let open = r.spans.begin("setup.settle");
    let period = r.cluster.system().stabilization_period;
    let (mut last, mut stable, mut rounds) = (0, 0, 0);
    while stable < 3 {
        r.advance(period);
        r.drain();
        let members = r.cluster.with_ring_members(|m| m.len());
        stable = if members == last && r.inserts.is_empty() {
            stable + 1
        } else {
            0
        };
        last = members;
        rounds += 1;
        if rounds > 500 {
            r.out
                .errors
                .push("set-up never settled: membership still moving".to_string());
            break;
        }
    }
    r.spans.end(open);

    // Warm-up: the stationary mix, un-measured, so router levels, replica
    // sets and allocator pools are in their running state.
    let open = r.spans.begin("setup.warmup");
    let gap = Duration::from_millis(spec.gap_ms);
    for i in 0..(WARMUP_S * 1000 / spec.gap_ms) as usize {
        let op = r.mixed_op();
        r.issue(op);
        r.advance(gap);
        if (i + 1) % DRAIN_EVERY == 0 {
            r.drain();
        }
    }
    r.drain();
    r.spans.end(open);
    r.spans.end(setup_span);
    // Raw, not cleaned: set-up is short and its cost per event moves with
    // the growing ring, so slices are not alike; the run takes the median
    // of several set-ups instead.
    r.out.setup_s.push(boot.as_secs_f64() + r.out.host.wall_s());
    // Host time spent so far belongs to set-up, not to the measured phase.
    r.out.host = HostTimes::default();
    r.slices = Slices::starting_at(r.cluster.sim.stats().events_processed);
    r
}

/// One more set-up of `spec`, for its host seconds only.
pub fn set_up_only(spec: &Spec, seed: u64, ops: usize) -> f64 {
    let mut spans = Spans::new(false);
    set_up(spec, seed, ops, false, &mut spans).out.setup_s[0]
}

/// Runs one round: `ops` measured ops on a fresh cluster seeded with `seed`.
/// With `trace`, the program's metrics registry is on and spans are kept.
pub fn run_round(spec: &Spec, seed: u64, ops: usize, trace: bool, spans: &mut Spans) -> Measured {
    let round_span = spans.begin("round");
    let mut r = set_up(spec, seed, ops, trace, spans);
    let gap = Duration::from_millis(spec.gap_ms);

    // Measured phase.
    let run_span = r.spans.begin("run");
    r.measuring = true;
    r.out
        .members_start
        .push(r.cluster.with_ring_members(|m| m.len()));
    let net_start = r.cluster.sim.stats();
    let counters_start = if trace {
        counters_of(&r.cluster)
    } else {
        BTreeMap::new()
    };
    let load_start: HashMap<PeerId, u64> =
        r.cluster.sim.per_peer_deliveries().into_iter().collect();
    let started = r.now();
    let churn_every = (CHURN_EVERY_S * 1000 / spec.gap_ms) as usize;
    // The last membership event leaves two event periods before the final
    // checks, so its takeover can finish.
    let churn_until = ops.saturating_sub(churn_every);
    for i in 0..ops {
        if spec.kind == Kind::PeerChurn {
            r.restart_due_peers();
            if i % churn_every == churn_every / 2 && i < churn_until {
                r.membership_event();
            }
        }
        let op = match spec.kind {
            Kind::GrowShrink => r.grow_shrink_op(i, ops),
            _ => r.mixed_op(),
        };
        r.issue(op);
        r.advance(gap);
        if (i + 1) % DRAIN_EVERY == 0 {
            r.drain();
        }
    }
    r.out.issue_virtual_s = (r.now() - started).as_secs_f64();
    r.out.msgs_issue_phase =
        r.cluster.sim.stats().messages_delivered - net_start.messages_delivered;
    for _ in 0..DRAIN_S / 4 {
        r.restart_due_peers();
        r.advance(Duration::from_secs(4));
        r.drain();
    }
    r.measuring = false;
    r.out.host_s = r.slices.cleaned_s();
    let net_end = r.cluster.sim.stats();
    r.out.net = net_zip(net_end, net_start, |end, start| end - start);
    if trace {
        let mut counters_end = counters_of(&r.cluster);
        for (k, v) in &r.retired {
            *counters_end.entry(*k).or_insert(0) += v;
        }
        for (k, v) in counters_end {
            let delta = v - counters_start.get(&k).copied().unwrap_or(0);
            if delta > 0 {
                r.out.counters.insert(k, delta);
            }
        }
    }
    r.spans.end(run_span);

    // Final judgement.
    let open = r.spans.begin("check.final");
    for p in r.inserts.values() {
        r.out.failed.insert_unacked += u64::from(p.measured);
    }
    for (_, measured) in r.deletes.values() {
        r.out.failed.delete_unacked += u64::from(*measured);
    }
    for q in r.queries.values() {
        r.out.failed.query_unfinished += u64::from(q.measured);
    }
    r.out.takeovers_unresolved = r.takeovers.len() as u64;
    let members = r.cluster.ring_members();
    r.out.members_end.push(members.len());
    let loads: Vec<f64> = r
        .cluster
        .sim
        .per_peer_deliveries()
        .into_iter()
        .filter(|(p, _)| members.contains(p))
        .map(|(p, n)| (n - load_start.get(&p).copied().unwrap_or(0)) as f64)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    r.out
        .load_imbalance
        .push(loads.iter().copied().fold(0.0, f64::max) / mean.max(1.0));
    let stored = r.cluster.stored_keys();
    let lost: Vec<u64> = r
        .oracle
        .confirmed()
        .into_iter()
        .filter(|k| !stored.contains(k))
        .collect();
    for (key, measured, report) in std::mem::take(&mut r.suspects) {
        if stored.contains(&key) {
            r.out.errors.push(report);
        } else {
            r.out.failed.query_stale += u64::from(measured);
        }
    }
    if spec.kind == Kind::PeerChurn {
        r.out.failed.items_lost += lost.len() as u64;
    } else if let Some(key) = lost.first() {
        r.out.errors.push(format!(
            "{} acknowledged item(s) are stored nowhere after the drain (first: key {key})",
            lost.len()
        ));
    }
    let (consistent, connected) = r.cluster.check_ring();
    if !consistent || !connected {
        r.out.errors.push(format!(
            "ring after the drain: consistent successor pointers = {consistent}, connected = {connected}"
        ));
    }
    let mut h = Fnv::default();
    for w in [
        net_end.messages_sent,
        net_end.messages_delivered,
        net_end.messages_dropped,
        net_end.timers_fired,
        net_end.timers_dropped,
        net_end.external_delivered,
        net_end.events_processed,
        net_end.peak_queue_depth,
        net_end.peak_fifo_channels,
        r.out.issued.inserts,
        r.out.issued.deletes,
        r.out.issued.queries,
        r.out.insert_ms.len() as u64,
        r.out.query_ms.len() as u64,
    ] {
        h.word(w);
    }
    for (_, n) in r.out.failed.classes() {
        h.word(n);
    }
    for key in &stored {
        h.word(*key);
    }
    r.out.witness = h.0;
    let took = r.spans.end(open);
    r.out.host.check_s += took.as_secs_f64();
    let out = r.out;
    spans.end(round_span);
    out
}
