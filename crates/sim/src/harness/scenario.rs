//! Seeded scenario generation and the replayable op-trace codec.
//!
//! A scenario is a flat sequence of **concrete** operations ([`Op`]): every
//! random decision (which peer to kill, which key to insert, how long to
//! advance virtual time) is resolved at generation time and recorded in an
//! [`OpTrace`]. Replaying a trace therefore needs no random state at all —
//! executing the recorded ops against a cluster built from the same
//! configuration reproduces the run byte for byte.

use std::time::Duration;

use pepper_net::{FailureSchedule, SimTime};
use pepper_types::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{KeyDistribution, KeyGenerator};

/// One concrete scenario operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A new free peer arrives (it joins the ring when a split needs it).
    AddFreePeer,
    /// Insert an item with search key `key`, issued at peer `at`.
    Insert {
        /// Issuing peer.
        at: PeerId,
        /// Search key.
        key: u64,
    },
    /// Delete the item with search key `key`, issued at peer `at`.
    Delete {
        /// Issuing peer.
        at: PeerId,
        /// Search key.
        key: u64,
    },
    /// Issue the range query `[lo, hi]` at peer `at`.
    Query {
        /// Issuing peer.
        at: PeerId,
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
    /// Ask `peer` to leave the ring voluntarily.
    Leave {
        /// The leaver.
        peer: PeerId,
    },
    /// Fail-stop `peer`.
    Kill {
        /// The victim.
        peer: PeerId,
    },
    /// Fail-stop `peer` with the intent of restarting it: its durable
    /// storage survives (minus whatever the crash-fault injector tears off
    /// the un-synced WAL tail) and a matching [`Op::Restart`] follows later
    /// in the schedule. Unlike [`Op::Kill`], no settle advance precedes a
    /// crash — the WAL, not the replicas, is what recovery leans on.
    Crash {
        /// The victim.
        peer: PeerId,
    },
    /// Restart a crashed peer from its recovered WAL + snapshot and drive
    /// the rejoin handshake.
    Restart {
        /// The previously crashed peer.
        peer: PeerId,
    },
    /// Advance virtual time by `ms` milliseconds.
    Advance {
        /// Milliseconds of virtual time.
        ms: u64,
    },
}

impl Op {
    /// Encodes the op as one trace line.
    pub fn encode(&self) -> String {
        match self {
            Op::AddFreePeer => "add-free-peer".to_string(),
            Op::Insert { at, key } => format!("insert {} {}", at.raw(), key),
            Op::Delete { at, key } => format!("delete {} {}", at.raw(), key),
            Op::Query { at, lo, hi } => format!("query {} {} {}", at.raw(), lo, hi),
            Op::Leave { peer } => format!("leave {}", peer.raw()),
            Op::Kill { peer } => format!("kill {}", peer.raw()),
            Op::Crash { peer } => format!("crash {}", peer.raw()),
            Op::Restart { peer } => format!("restart {}", peer.raw()),
            Op::Advance { ms } => format!("advance-ms {ms}"),
        }
    }

    /// Decodes one trace line. Returns `None` for malformed input.
    pub fn decode(line: &str) -> Option<Op> {
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next()?;
        let mut num = || parts.next()?.parse::<u64>().ok();
        let op = match tag {
            "add-free-peer" => Op::AddFreePeer,
            "insert" => Op::Insert {
                at: PeerId(num()?),
                key: num()?,
            },
            "delete" => Op::Delete {
                at: PeerId(num()?),
                key: num()?,
            },
            "query" => Op::Query {
                at: PeerId(num()?),
                lo: num()?,
                hi: num()?,
            },
            "leave" => Op::Leave {
                peer: PeerId(num()?),
            },
            "kill" => Op::Kill {
                peer: PeerId(num()?),
            },
            "crash" => Op::Crash {
                peer: PeerId(num()?),
            },
            "restart" => Op::Restart {
                peer: PeerId(num()?),
            },
            "advance-ms" => Op::Advance { ms: num()? },
            _ => return None,
        };
        parts.next().is_none().then_some(op)
    }
}

/// A recorded schedule of concrete operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTrace {
    ops: Vec<Op>,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        OpTrace::default()
    }

    /// Appends an op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// The recorded ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Encodes the trace as newline-separated op lines.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.encode());
            out.push('\n');
        }
        out
    }

    /// Decodes a trace from its [`OpTrace::encode`] form.
    pub fn decode(text: &str) -> Result<OpTrace, String> {
        let mut ops = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let op =
                Op::decode(line).ok_or_else(|| format!("trace line {}: bad op `{line}`", i + 1))?;
            ops.push(op);
        }
        Ok(OpTrace { ops })
    }

    /// FNV-1a hash of the encoded trace: equal hashes ⟺ byte-identical
    /// schedules. Used to assert generation determinism across runs.
    pub fn hash(&self) -> u64 {
        fnv1a(self.encode().as_bytes())
    }
}

/// FNV-1a over a byte string (stable across platforms and runs, unlike
/// `std::hash`'s randomized hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Relative weights of the generated operations. Kills are not weighted —
/// they come from a [`FailureSchedule`] so the fail-stop pattern matches the
/// paper's failure-rate model and stays identical across protocol variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWeights {
    /// Item insert.
    pub insert: u32,
    /// Item delete.
    pub delete: u32,
    /// Range query.
    pub query: u32,
    /// Free-peer arrival.
    pub add_free_peer: u32,
    /// Voluntary leave.
    pub leave: u32,
    /// Crash-restart: fail-stop a member *without* a preceding settle
    /// advance (so the WAL is load-bearing) and restart it from its durable
    /// state after a drawn downtime. Forced to 0 when the cluster runs
    /// without durable storage.
    pub crash_restart: u32,
}

impl Default for OpWeights {
    /// A churn-heavy mix: mostly item traffic (which drives splits and
    /// merges), with a steady trickle of arrivals, queries, leaves and
    /// crash-restarts.
    fn default() -> Self {
        OpWeights {
            insert: 10,
            delete: 6,
            query: 5,
            add_free_peer: 3,
            leave: 1,
            crash_restart: 2,
        }
    }
}

impl OpWeights {
    fn total(&self) -> u32 {
        self.insert
            + self.delete
            + self.query
            + self.add_free_peer
            + self.leave
            + self.crash_restart
    }
}

/// Exclusive upper bound of the search-key domain: the query-bound draws and
/// the default insert-key distribution share it, so the two cannot diverge.
pub const KEY_DOMAIN: u64 = 1_000_000_000;

/// Inclusive range (milliseconds) of the virtual-time advance drawn after
/// every op.
pub const ADVANCE_RANGE_MS: (u64, u64) = (20, 160);

/// Kills and voluntary leaves are suppressed at or below this many ring
/// members.
pub const MIN_MEMBERS: usize = 2;

/// Extra virtual time inserted right before each kill, so the failure lands
/// on a system that has had at least one replica-refresh round — the
/// replication protocol's tolerance assumption.
pub const PRE_KILL_SETTLE: Duration = Duration::from_millis(400);

/// Inclusive range (milliseconds) of the downtime drawn between a crash and
/// its restart. Kept well inside the harness failure-grace window: while the
/// peer is down, an acked item whose only surviving copy is its WAL is
/// legitimately unavailable, and the grace window is what keeps the query
/// oracle from flagging that as silent incorrectness.
pub const CRASH_DOWNTIME_MS: (u64, u64) = (600, 2400);

/// Minimum virtual-time spacing between any two fail-stops (kill or crash).
/// The paper's tolerance model is one failure per detection-and-recovery
/// window (`k − 1` concurrent failures at replication factor `k = 2`): two
/// overlapping fail-stops of ring-adjacent peers can legitimately lose items
/// and strand join propagation, which would red the oracles on a correct
/// protocol. Kills due while a crashed peer is still down are *deferred*
/// (not dropped) until the restart has happened and the spacing elapsed.
pub const FAILSTOP_SPACING: Duration = Duration::from_secs(3);

/// Virtual settle time before the quiescence checks (exceeds the query
/// safety-net timeout, so every pending query finalizes).
pub const SETTLE: Duration = Duration::from_secs(40);

/// How long after a fail-stop the gap/missing-key checks stay relaxed
/// (failure detection + range takeover + replica revival window).
pub const FAILURE_GRACE: Duration = Duration::from_secs(5);

/// How long after a fail-stop the ring consistency/connectivity checks stay
/// suspended. Repair of *deep* successor-list pointers — corrected knowledge
/// ripples one chained stabilization hop per round — can take most of the
/// failure-grace window in a growing ring, so it matches [`FAILURE_GRACE`].
/// The settled end state is always checked strictly, and the
/// `quick-no-failures` profile checks every step with no grace at all.
pub const RING_GRACE: Duration = Duration::from_secs(5);

/// What the generator needs to know about the live system to resolve an op.
#[derive(Debug, Clone)]
pub struct GeneratorView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Alive ring members.
    pub members: &'a [PeerId],
    /// Keys that are (probably) present in the index — candidates for
    /// deletion.
    pub deletable: &'a [u64],
}

/// The seeded scenario generator.
#[derive(Debug)]
pub struct ScenarioGenerator {
    rng: StdRng,
    weights: OpWeights,
    keys: KeyGenerator,
    /// Scheduled fail-stop times (ascending); consumed front to back.
    kills: Vec<SimTime>,
    next_kill: usize,
    /// The key seed, kept so [`ScenarioGenerator::with_keys`] can rebuild
    /// the key stream under a different distribution.
    key_seed: u64,
    /// Crashed peers awaiting their scheduled restart, ascending by due
    /// time. Emitted as [`Op::Restart`] once due; any left over when the
    /// schedule ends are restarted by the harness before quiescence.
    pending_restarts: Vec<(SimTime, PeerId)>,
    /// When the last fail-stop (kill or crash) was emitted — enforces
    /// [`FAILSTOP_SPACING`].
    last_failstop: Option<SimTime>,
    /// When the last voluntary leave was emitted. A fail-stop landing
    /// inside a leave's handshake window is a *double* membership event
    /// (e.g. the crash of a leave-absorber mid-handshake strands both the
    /// leaver's range and the absorber's), outside the paper's
    /// single-failure tolerance model — so fail-stops keep
    /// [`FAILSTOP_SPACING`] from leaves too.
    last_leave: Option<SimTime>,
}

impl ScenarioGenerator {
    /// Creates a generator. `horizon` bounds the virtual time over which the
    /// failure schedule spreads its kills.
    pub fn new(seed: u64, weights: OpWeights, failures_per_100s: f64, horizon: Duration) -> Self {
        let mut failure_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(2));
        let schedule = FailureSchedule::poisson_like(
            failures_per_100s,
            SimTime::ZERO,
            horizon,
            &mut failure_rng,
        );
        ScenarioGenerator {
            rng: StdRng::seed_from_u64(seed),
            weights,
            keys: KeyGenerator::new(
                KeyDistribution::Uniform { domain: KEY_DOMAIN },
                seed ^ 0x5eed,
            ),
            kills: schedule.times().to_vec(),
            next_kill: 0,
            key_seed: seed ^ 0x5eed,
            pending_restarts: Vec::new(),
            last_failstop: None,
            last_leave: None,
        }
    }

    /// Builder-style override of the insert-key distribution (the harness's
    /// key-distribution knob). The key stream is rebuilt from the same seed,
    /// so the default `Uniform` call is a no-op.
    pub fn with_keys(mut self, distribution: KeyDistribution) -> Self {
        self.keys = KeyGenerator::new(distribution, self.key_seed);
        self
    }

    /// Crashed peers whose scheduled restart has not been emitted yet
    /// (ascending by peer id). The harness restarts them explicitly before
    /// quiescence: a crash whose restart never happens would be an
    /// unannounced permanent kill, and — without the pre-kill settle round a
    /// real [`Op::Kill`] gets — its newest acked items may exist only in the
    /// WAL nobody would ever replay.
    pub fn unrestarted(&self) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> = self.pending_restarts.iter().map(|(_, p)| *p).collect();
        peers.sort_unstable();
        peers
    }

    /// Draws the virtual-time advance that follows each op.
    pub fn next_advance(&mut self) -> Op {
        let (lo, hi) = ADVANCE_RANGE_MS;
        Op::Advance {
            ms: self.rng.gen_range(lo..=hi),
        }
    }

    /// Whether a scheduled kill is due at `now`.
    fn kill_due(&self, now: SimTime) -> bool {
        self.kills.get(self.next_kill).is_some_and(|t| *t <= now)
    }

    /// Whether a new fail-stop may happen at `now` under the single-failure
    /// model: no crashed peer still down, and [`FAILSTOP_SPACING`] elapsed
    /// since both the previous fail-stop and the previous voluntary leave
    /// (whose multi-round hand-off a fail-stop must not interrupt).
    fn failstop_allowed(&self, now: SimTime) -> bool {
        let spaced =
            |t: Option<SimTime>| t.map_or(true, |t| now >= t.saturating_add(FAILSTOP_SPACING));
        self.pending_restarts.is_empty() && spaced(self.last_failstop) && spaced(self.last_leave)
    }

    /// Draws the next operation for the given system state. The op is fully
    /// concrete (peer ids, keys and bounds resolved) so the recorded trace
    /// replays without any random state.
    pub fn next_op(&mut self, view: &GeneratorView<'_>) -> Vec<Op> {
        // Due restarts come first: a crashed peer's downtime is part of the
        // recorded schedule, and delaying the restart past its drawn due
        // time would stretch the window in which its WAL-only items are
        // unavailable.
        if let Some(idx) = self
            .pending_restarts
            .iter()
            .position(|(due, _)| *due <= view.now)
        {
            let (_, peer) = self.pending_restarts.remove(idx);
            return vec![Op::Restart { peer }];
        }
        // Fail-stops take priority once their scheduled time has passed, as
        // long as the ring keeps a quorum of members AND the single-failure
        // model allows one ([`FAILSTOP_SPACING`]; a kill blocked by a
        // crashed peer still being down stays due and fires after the
        // restart). The settle advance in front gives the replication layer
        // one refresh round to cover the newest items.
        if self.kill_due(view.now) && self.failstop_allowed(view.now) {
            self.next_kill += 1;
            if view.members.len() > MIN_MEMBERS {
                let victim = view.members[self.rng.gen_range(0..view.members.len())];
                self.last_failstop = Some(view.now);
                return vec![
                    Op::Advance {
                        ms: PRE_KILL_SETTLE.as_millis() as u64,
                    },
                    Op::Kill { peer: victim },
                ];
            }
            // Too few members: the scheduled failure is dropped (recorded
            // implicitly by its absence from the trace).
        }

        let roll = self.rng.gen_range(0..self.weights.total());
        let w = self.weights;
        let pick_member = |rng: &mut StdRng| -> Option<PeerId> {
            (!view.members.is_empty()).then(|| view.members[rng.gen_range(0..view.members.len())])
        };
        if roll < w.insert {
            let key = self.keys.next_key().max(1);
            match pick_member(&mut self.rng) {
                Some(at) => vec![Op::Insert { at, key }],
                None => vec![Op::AddFreePeer],
            }
        } else if roll < w.insert + w.delete {
            match (pick_member(&mut self.rng), view.deletable.is_empty()) {
                (Some(at), false) => {
                    let key = view.deletable[self.rng.gen_range(0..view.deletable.len())];
                    vec![Op::Delete { at, key }]
                }
                // Nothing to delete yet: fall back to an insert so the mix
                // stays item-heavy.
                (Some(at), true) => vec![Op::Insert {
                    at,
                    key: self.keys.next_key().max(1),
                }],
                (None, _) => vec![Op::AddFreePeer],
            }
        } else if roll < w.insert + w.delete + w.query {
            match pick_member(&mut self.rng) {
                Some(at) => {
                    let a = self.rng.gen_range(0..KEY_DOMAIN);
                    let b = self.rng.gen_range(0..KEY_DOMAIN);
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    vec![Op::Query { at, lo, hi }]
                }
                None => vec![Op::AddFreePeer],
            }
        } else if roll < w.insert + w.delete + w.query + w.add_free_peer {
            vec![Op::AddFreePeer]
        } else if roll < w.insert + w.delete + w.query + w.add_free_peer + w.leave {
            // Voluntary leave, only while the ring keeps a quorum and no
            // crashed peer is down (the leaver's hand-off must not race an
            // in-flight failure takeover).
            if view.members.len() > MIN_MEMBERS && self.pending_restarts.is_empty() {
                match pick_member(&mut self.rng) {
                    Some(peer) => {
                        self.last_leave = Some(view.now);
                        vec![Op::Leave { peer }]
                    }
                    None => vec![Op::AddFreePeer],
                }
            } else {
                vec![Op::AddFreePeer]
            }
        } else {
            // Crash-restart, only while the ring keeps a quorum and the
            // single-failure model allows a fail-stop. No settle advance in
            // front (deliberately, unlike kills): the newest acked items may
            // not be replicated yet, making the victim's synced WAL their
            // only surviving copy — exactly the hazard the durable-storage
            // subsystem exists for. The restart is scheduled after a drawn
            // downtime and emitted once due.
            if view.members.len() > MIN_MEMBERS && self.failstop_allowed(view.now) {
                match pick_member(&mut self.rng) {
                    Some(peer) => {
                        let (lo, hi) = CRASH_DOWNTIME_MS;
                        let down = Duration::from_millis(self.rng.gen_range(lo..=hi));
                        self.pending_restarts.push((view.now + down, peer));
                        self.last_failstop = Some(view.now);
                        vec![Op::Crash { peer }]
                    }
                    None => vec![Op::AddFreePeer],
                }
            } else {
                vec![Op::AddFreePeer]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codec_roundtrips() {
        let ops = [
            Op::AddFreePeer,
            Op::Insert {
                at: PeerId(3),
                key: 42,
            },
            Op::Delete {
                at: PeerId(0),
                key: 7,
            },
            Op::Query {
                at: PeerId(1),
                lo: 5,
                hi: 900,
            },
            Op::Leave { peer: PeerId(2) },
            Op::Kill { peer: PeerId(9) },
            Op::Crash { peer: PeerId(4) },
            Op::Restart { peer: PeerId(4) },
            Op::Advance { ms: 130 },
        ];
        for op in ops {
            assert_eq!(Op::decode(&op.encode()), Some(op), "{op:?}");
        }
        assert_eq!(Op::decode("bogus 1 2"), None);
        assert_eq!(Op::decode("insert 1"), None);
        assert_eq!(Op::decode("kill 1 2"), None);
        assert_eq!(Op::decode("restart"), None);
    }

    #[test]
    fn trace_codec_and_hash_roundtrip() {
        let mut trace = OpTrace::new();
        trace.push(Op::AddFreePeer);
        trace.push(Op::Insert {
            at: PeerId(0),
            key: 10,
        });
        trace.push(Op::Advance { ms: 50 });
        let text = trace.encode();
        let back = OpTrace::decode(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.hash(), trace.hash());
        assert!(OpTrace::decode("nonsense").is_err());
        // The hash is sensitive to the schedule.
        let mut other = trace.clone();
        other.push(Op::AddFreePeer);
        assert_ne!(other.hash(), trace.hash());
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let run = |seed| {
            let mut g =
                ScenarioGenerator::new(seed, OpWeights::default(), 6.0, Duration::from_secs(60));
            let members = [PeerId(0), PeerId(1), PeerId(2)];
            let deletable = [10u64, 20, 30];
            let mut trace = OpTrace::new();
            for i in 0..200 {
                let view = GeneratorView {
                    now: SimTime::from_millis(i * 100),
                    members: &members,
                    deletable: &deletable,
                };
                for op in g.next_op(&view) {
                    trace.push(op);
                }
                trace.push(g.next_advance());
            }
            trace
        };
        assert_eq!(run(7).hash(), run(7).hash());
        assert_ne!(run(7).hash(), run(8).hash());
    }

    #[test]
    fn crash_restart_pairs_are_scheduled_and_emitted() {
        let mut g = ScenarioGenerator::new(
            5,
            OpWeights {
                insert: 0,
                delete: 0,
                query: 0,
                add_free_peer: 0,
                leave: 0,
                crash_restart: 1,
            },
            0.0, // no fail-stop schedule: crashes only
            Duration::from_secs(100),
        );
        let members = [PeerId(0), PeerId(1), PeerId(2)];
        let view = |ms: u64| GeneratorView {
            now: SimTime::from_millis(ms),
            members: &members,
            deletable: &[],
        };
        // A crash comes alone — no settle advance in front (the WAL, not
        // the replicas, must carry the newest acked items).
        let ops = g.next_op(&view(0));
        let [Op::Crash { peer }] = ops[..] else {
            panic!("expected a bare crash, got {ops:?}");
        };
        assert_eq!(g.unrestarted(), vec![peer]);
        // Once the drawn downtime has passed, the restart is emitted before
        // anything else.
        let ops = g.next_op(&view(CRASH_DOWNTIME_MS.1 + 1));
        assert_eq!(ops, vec![Op::Restart { peer }]);
        assert!(g.unrestarted().is_empty());
    }

    #[test]
    fn key_distribution_knob_rebuilds_the_insert_stream() {
        let weights = OpWeights {
            insert: 1,
            delete: 0,
            query: 0,
            add_free_peer: 0,
            leave: 0,
            crash_restart: 0,
        };
        let make = |dist: Option<KeyDistribution>| {
            let g = ScenarioGenerator::new(11, weights, 0.0, Duration::from_secs(60));
            match dist {
                Some(d) => g.with_keys(d),
                None => g,
            }
        };
        let members = [PeerId(0)];
        let keys_of = |mut g: ScenarioGenerator| -> Vec<u64> {
            let view = GeneratorView {
                now: SimTime::ZERO,
                members: &members,
                deletable: &[],
            };
            (0..20)
                .flat_map(|_| g.next_op(&view))
                .filter_map(|op| match op {
                    Op::Insert { key, .. } => Some(key),
                    _ => None,
                })
                .collect()
        };
        // The default distribution and an explicit Uniform are the same
        // stream (same key seed).
        let uniform = keys_of(make(None));
        let explicit = keys_of(make(Some(KeyDistribution::Uniform { domain: KEY_DOMAIN })));
        assert_eq!(uniform, explicit);
        // Sequential produces the strided ramp regardless of seed.
        let seq = keys_of(make(Some(KeyDistribution::Sequential { stride: 10 })));
        assert_eq!(seq, (1..=20).map(|i| i * 10).collect::<Vec<_>>());
        assert_ne!(uniform, seq);
    }

    #[test]
    fn generator_respects_member_quorum_for_kills_and_leaves() {
        let mut g = ScenarioGenerator::new(
            3,
            OpWeights {
                insert: 0,
                delete: 0,
                query: 0,
                add_free_peer: 0,
                leave: 1,
                crash_restart: 1,
            },
            1000.0, // a kill is due immediately
            Duration::from_secs(100),
        );
        let members = [PeerId(0), PeerId(1)];
        let view = GeneratorView {
            now: SimTime::from_secs(50),
            members: &members,
            deletable: &[],
        };
        // Only two members: both the due kill and the leave are suppressed.
        for _ in 0..20 {
            for op in g.next_op(&view) {
                assert!(matches!(op, Op::AddFreePeer), "quorum must suppress {op:?}");
            }
        }
    }
}
