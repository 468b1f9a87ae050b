//! The discrete-event simulator.
//!
//! Peers are [`Node`]s: state machines that react to delivered messages (and
//! to their own timers, which are just self-addressed messages scheduled in
//! the future). The simulator owns a priority queue of events ordered by
//! `(virtual time, sequence number)`, which makes every run fully
//! deterministic for a given seed and call sequence.
//!
//! # Execution engines
//!
//! Two engines drive event delivery, selected by
//! [`ExecConfig::threads`](crate::latency::ExecConfig):
//!
//! * **classic** (`threads == 1`, the default): the textbook sequential
//!   loop — pop, deliver, schedule effects, repeat.
//! * **epoch-parallel** (`threads > 1`): conservative parallel
//!   discrete-event simulation over virtual-time epochs. Each epoch drains
//!   every event in the window `[T, T + lookahead)` — `lookahead` is the
//!   minimum latency plus the processing delay, so nothing processed in
//!   the window can schedule an effect back *into* the window — partitions
//!   them by destination-peer shard, runs the handlers per shard (on
//!   worker threads when the window is wide enough to pay for the
//!   round-trip), and then replays all scheduling side effects at the
//!   epoch barrier in canonical `(time, seq)` order: sequence numbers,
//!   latency RNG draws, FIFO bumps, statistics and queue-depth high-water
//!   marks all happen exactly as the classic loop would have performed
//!   them. The observable trace, [`NetStats`], and every node's state are
//!   therefore byte-identical for any thread count and any shard layout.
//!
//! The equivalence argument needs two workload properties, both satisfied
//! by the protocol stack (and asserted by the thread-matrix tests):
//! handlers draw nothing from [`Context::rng`] (in parallel mode each
//! shard owns a private stream), and no timer fires faster than the
//! lookahead (protocol timers are ≥ 20 ms against a 150 µs LAN lookahead).
//! Sub-lookahead effects are still *correctly ordered* against all future
//! events — they are merely deferred to the next epoch instead of joining
//! the current one, which the [`Simulator::lookahead_deferrals`]
//! diagnostic counts.
//!
//! # Correlation ids
//!
//! Every delivery envelope carries a [`Cid`], minted from `(virtual time,
//! sequence number)` at each causal root — an external injection
//! ([`Simulator::send_external`]) or a harness API call
//! ([`Simulator::with_node_ctx`]) — and inherited by every send and timer
//! the handler schedules. Both engines stamp and propagate ids through the
//! same canonical state, so traces keyed by them are byte-identical across
//! thread counts (see `pepper-trace`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc;
use std::time::Duration;

use pepper_trace::Cid;
use pepper_types::PeerId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::effect::{Effect, Effects, LayerCtx};
use crate::intern::{PeerTable, DENSE_NONE};
use crate::latency::{LatencyModel, NetworkConfig, ShardLayout};
use crate::stats::{EngineProfile, NetStats};
use crate::time::SimTime;
use crate::wheel::EventWheel;

/// The sender id used for harness-injected ("external") messages, standing in
/// for a client outside the P2P system.
pub const EXTERNAL_SENDER: PeerId = PeerId(u64::MAX);

/// A peer state machine driven by the simulator.
///
/// `Send` bounds (on the node and its message type) exist for the
/// epoch-parallel engine, which moves events and touches node state from
/// worker threads; every protocol node is plain owned data, so the bounds
/// are free.
pub trait Node: Send {
    /// The message type this node exchanges (timers deliver the same type).
    type Msg: Clone + std::fmt::Debug + Send;

    /// Handles a delivered message. `from` is [`EXTERNAL_SENDER`] for
    /// harness-injected messages and the node's own id for timers.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: PeerId, msg: Self::Msg);

    /// Hook invoked when the simulator kills this node (fail-stop). The node
    /// will receive no further events.
    fn on_killed(&mut self) {}
}

/// What a queued event does when it is processed.
#[derive(Debug, Clone)]
enum Payload<M> {
    /// Deliver a message.
    Deliver {
        from: PeerId,
        to: PeerId,
        msg: M,
        is_timer: bool,
        is_external: bool,
        cid: Cid,
    },
    /// Fail-stop the peer.
    Kill { peer: PeerId },
}

/// The mutable context handed to a node while it handles an event.
///
/// Effects requested through the context are scheduled by the simulator after
/// the handler returns. The backing buffer is owned by the simulator and
/// reused across deliveries, so handling an event allocates nothing once the
/// buffer has warmed up; composed nodes emit into it directly through
/// [`Context::effects`].
pub struct Context<'a, M> {
    self_id: PeerId,
    now: SimTime,
    cid: Cid,
    is_timer: bool,
    rng: &'a mut StdRng,
    out: &'a mut Effects<M>,
}

impl<'a, M> Context<'a, M> {
    /// The id of the peer handling the event.
    pub fn self_id(&self) -> PeerId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Correlation id of the event being handled. Every effect scheduled
    /// through this context inherits it, extending the causal chain.
    pub fn cid(&self) -> Cid {
        self.cid
    }

    /// Whether the event being handled is a timer firing (as opposed to a
    /// delivered message or an external/API invocation).
    pub fn is_timer(&self) -> bool {
        self.is_timer
    }

    /// A [`LayerCtx`] snapshot for handing to protocol-layer functions.
    pub fn layer(&self) -> LayerCtx {
        LayerCtx::new(self.self_id, self.now)
    }

    /// The simulator's deterministic random number generator.
    ///
    /// In epoch-parallel runs each shard draws from its own deterministic
    /// stream, so a node that consumes randomness here is reproducible per
    /// `(seed, shard count)` but not across thread counts. No protocol
    /// node uses this; it exists for ad-hoc experiment nodes.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to` (delivered after the network latency).
    pub fn send(&mut self, to: PeerId, msg: M) {
        self.out.send(to, msg);
    }

    /// Schedules `msg` to be delivered back to this peer after `delay`.
    pub fn set_timer(&mut self, delay: Duration, msg: M) {
        self.out.timer(delay, msg);
    }

    /// The buffer the simulator schedules from once the handler returns.
    /// A node composed of [`LayerSlot`](crate::layer::LayerSlot)s passes it
    /// as their `out`, so layer effects are mapped straight into it.
    pub fn effects(&mut self) -> &mut Effects<M> {
        self.out
    }

    /// Applies a buffer of layer effects, wrapping each layer message into
    /// this node's message type.
    pub fn apply<L>(&mut self, effects: Effects<L>, wrap: impl FnMut(L) -> M) {
        self.out.absorb(effects, wrap);
    }
}

/// An FxHash-style hasher for the FIFO channel map: the keys are two
/// already-well-distributed `u64` peer ids, so a multiply-rotate mix beats
/// SipHash by a wide margin on the dispatch hot path.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type FifoMap = HashMap<(PeerId, PeerId), SimTime, BuildHasherDefault<PairHasher>>;

/// How a delivered event was classified (for the stats counters).
#[derive(Debug, Clone, Copy)]
enum DeliverKind {
    Msg,
    Timer,
    External,
}

/// What happened to one window event on its shard — everything the barrier
/// merge needs to replay the classic loop's side effects canonically.
enum Outcome<M> {
    DropMsg,
    DropTimer,
    Deliver {
        to: PeerId,
        dense: u32,
        kind: DeliverKind,
        cid: Cid,
        effects: Box<Effects<M>>,
    },
    Kill {
        peer: PeerId,
        did: bool,
    },
}

/// One drained event, tagged with its window position and the interned
/// slot of its destination.
struct WindowEvent<M> {
    idx: u32,
    at: SimTime,
    seq: u64,
    dense: u32,
    payload: Payload<M>,
}

/// Raw views into the peer table for shard workers.
///
/// # Safety discipline
///
/// The epoch engine partitions dense peer slots across shards; a shard
/// task dereferences `nodes`/`alive` only for slots owned by its shard
/// (`floor` is read-only and static during a run). The driving thread
/// does not touch the table between dispatching tasks and collecting the
/// last shard result, so no slot is ever aliased mutably.
struct Tables<N> {
    nodes: *mut N,
    alive: *mut bool,
    floor: *const u64,
}

impl<N> Clone for Tables<N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<N> Copy for Tables<N> {}

/// One shard's slice of an epoch window plus the raw state it may touch.
struct ShardTask<N: Node> {
    shard: u32,
    events: Vec<WindowEvent<N::Msg>>,
    tables: Tables<N>,
    rng: *mut StdRng,
    pool: *mut Vec<Box<Effects<N::Msg>>>,
}

// SAFETY: the raw pointers target state partitioned by shard (see
// `Tables`); `N` and `N::Msg` are `Send` by the `Node` supertrait bounds.
unsafe impl<N: Node> Send for ShardTask<N> {}

type ShardResult<M> = (u32, Vec<(u32, Outcome<M>)>);

/// Runs one shard's window events in `(time, seq)` order, mutating only
/// shard-owned node/liveness slots and recording an [`Outcome`] per event.
/// All global side effects (stats, RNG, FIFO, scheduling) are deferred to
/// the barrier merge.
fn process_shard<N: Node>(task: ShardTask<N>) -> ShardResult<N::Msg> {
    let ShardTask {
        shard,
        events,
        tables,
        rng,
        pool,
    } = task;
    // SAFETY: the shard exclusively owns its RNG stream and effect-buffer
    // pool for the duration of the epoch (see `Tables`).
    let rng = unsafe { &mut *rng };
    let pool = unsafe { &mut *pool };
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        match ev.payload {
            Payload::Kill { peer } => {
                // SAFETY: `peer` belongs to this shard (events are routed
                // by destination slot).
                let did = ev.dense != DENSE_NONE
                    && ev.seq >= unsafe { *tables.floor.add(ev.dense as usize) }
                    && unsafe { *tables.alive.add(ev.dense as usize) };
                if did {
                    unsafe {
                        *tables.alive.add(ev.dense as usize) = false;
                        (*tables.nodes.add(ev.dense as usize)).on_killed();
                    }
                }
                out.push((ev.idx, Outcome::Kill { peer, did }));
            }
            Payload::Deliver {
                from,
                to,
                msg,
                is_timer,
                is_external,
                cid,
            } => {
                // SAFETY: `to` belongs to this shard.
                let deliver = ev.dense != DENSE_NONE
                    && ev.seq >= unsafe { *tables.floor.add(ev.dense as usize) }
                    && unsafe { *tables.alive.add(ev.dense as usize) };
                if !deliver {
                    let outcome = if is_timer {
                        Outcome::DropTimer
                    } else {
                        Outcome::DropMsg
                    };
                    out.push((ev.idx, outcome));
                    continue;
                }
                let mut effects = pool.pop().unwrap_or_default();
                let mut ctx = Context {
                    self_id: to,
                    now: ev.at,
                    cid,
                    is_timer,
                    rng,
                    out: &mut effects,
                };
                // SAFETY: as above — shard-owned slot.
                unsafe {
                    (*tables.nodes.add(ev.dense as usize)).on_message(&mut ctx, from, msg);
                }
                let kind = if is_timer {
                    DeliverKind::Timer
                } else if is_external {
                    DeliverKind::External
                } else {
                    DeliverKind::Msg
                };
                out.push((
                    ev.idx,
                    Outcome::Deliver {
                        to,
                        dense: ev.dense,
                        kind,
                        cid,
                        effects,
                    },
                ));
            }
        }
    }
    (shard, out)
}

/// The discrete-event simulator.
pub struct Simulator<N: Node> {
    /// Interned peer slots: nodes, liveness, revive floors (see
    /// [`crate::intern::PeerTable`]).
    table: PeerTable<N>,
    queue: EventWheel<Payload<N::Msg>>,
    now: SimTime,
    seq: u64,
    next_peer_id: u64,
    config: NetworkConfig,
    rng: StdRng,
    stats: NetStats,
    /// Last scheduled delivery time per (sender, receiver) pair: messages
    /// between the same pair of peers are delivered in FIFO order, matching
    /// the paper's reliable (TCP-like) channel assumption. Entries are
    /// purged when either endpoint is killed and pruned periodically once
    /// their constraint lies in the past, so churn-heavy runs cannot grow
    /// the map without bound.
    fifo: FifoMap,
    /// Effects buffer reused across event deliveries (see [`Context`]);
    /// boxed so that lending it to a handler and scheduling from it move a
    /// pointer, not the buffer's inline slots. `None` only while lent out.
    scratch: Option<Box<Effects<N::Msg>>>,
    /// Monotone counter bumped whenever node or liveness state may have
    /// changed (event processed, node added, kill, node accessed mutably).
    /// Lets callers memoize derived views of the cluster and invalidate
    /// them precisely.
    version: u64,
    /// Delivered events (messages + timers + external) per peer slot — the
    /// raw material of the macro bench's per-peer load histogram.
    deliveries_by_slot: Vec<u64>,
    /// Conservative epoch width in nanoseconds: minimum latency plus
    /// processing delay. Zero disables the epoch engine (instant configs).
    lookahead_nanos: u64,
    /// Effects that landed inside their own epoch window (only possible
    /// for sub-lookahead timers, which no protocol node uses): correctly
    /// ordered, but deferred to the next epoch rather than processed in
    /// the current one as the classic loop would.
    lookahead_deferrals: u64,
    /// Per-shard deterministic RNG streams for [`Context::rng`] in
    /// parallel mode (lazily sized).
    shard_rngs: Vec<StdRng>,
    /// Per-shard pools of recycled effect buffers — the cross-shard
    /// extension of the classic loop's single `scratch` buffer.
    shard_pools: Vec<Vec<Box<Effects<N::Msg>>>>,
    /// Wall-clock per-phase cost profile of the epoch engine (empty for
    /// classic runs).
    profile: EngineProfile,
}

/// Prune the FIFO map whenever an event lands and the map exceeds this many
/// entries (amortized via [`NetStats::events_processed`]).
const FIFO_PRUNE_THRESHOLD: usize = 1024;
/// How many processed events between two FIFO stale-entry sweeps.
const FIFO_PRUNE_INTERVAL: u64 = 1024;

impl<N: Node> Simulator<N> {
    /// Creates a simulator with the given network configuration.
    pub fn new(config: NetworkConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let min_latency = match config.latency {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, .. } => min,
        };
        let lookahead_nanos = (min_latency + config.processing_delay).as_nanos() as u64;
        Simulator {
            table: PeerTable::new(),
            queue: EventWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_peer_id: 0,
            config,
            rng,
            stats: NetStats::default(),
            fifo: FifoMap::default(),
            scratch: None,
            version: 0,
            deliveries_by_slot: Vec::new(),
            lookahead_nanos,
            lookahead_deferrals: 0,
            shard_rngs: Vec::new(),
            shard_pools: Vec::new(),
            profile: EngineProfile::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics collected so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// A monotone counter that changes whenever node or liveness state may
    /// have changed. Two calls returning the same value guarantee that any
    /// view derived from the node states is still valid, which lets callers
    /// memoize expensive whole-cluster scans.
    pub fn state_version(&self) -> u64 {
        self.version
    }

    /// How many effects were scheduled inside their own epoch window (see
    /// the module docs). Always zero for the protocol stack; non-zero only
    /// if a node sets timers shorter than the network lookahead while the
    /// epoch engine is active.
    pub fn lookahead_deferrals(&self) -> u64 {
        self.lookahead_deferrals
    }

    /// Wall-clock cost profile of the epoch-parallel engine (all zero when
    /// only the classic loop ran). Non-deterministic by nature; never part
    /// of determinism witnesses.
    pub fn engine_profile(&self) -> EngineProfile {
        self.profile
    }

    /// Delivered events (messages + timers + external) per registered
    /// peer, in increasing id order — the per-peer load profile.
    pub fn per_peer_deliveries(&self) -> Vec<(PeerId, u64)> {
        self.table
            .order()
            .iter()
            .map(|&d| (self.table.raw_of(d), self.deliveries_by_slot[d as usize]))
            .collect()
    }

    /// Adds a node built by `build`, which receives the freshly assigned
    /// peer id. Returns the id.
    pub fn add_node(&mut self, build: impl FnOnce(PeerId) -> N) -> PeerId {
        let id = PeerId(self.next_peer_id);
        self.next_peer_id += 1;
        self.version += 1;
        self.table.intern(id, build(id));
        self.deliveries_by_slot.push(0);
        id
    }

    /// Adds a node under an explicit id (useful for tests). Panics if the id
    /// is already taken or collides with [`EXTERNAL_SENDER`].
    pub fn add_node_with_id(&mut self, id: PeerId, node: N) {
        assert_ne!(id, EXTERNAL_SENDER, "peer id reserved for external sender");
        self.next_peer_id = self.next_peer_id.max(id.raw() + 1);
        self.version += 1;
        self.table.intern(id, node);
        self.deliveries_by_slot.push(0);
    }

    /// Returns `true` if the peer exists and has not been killed.
    pub fn is_alive(&self, id: PeerId) -> bool {
        self.table.is_alive(id)
    }

    /// Immutable access to a node's state (dead nodes remain inspectable).
    pub fn node(&self, id: PeerId) -> Option<&N> {
        let d = self.table.dense(id);
        (d != DENSE_NONE).then(|| self.table.node(d))
    }

    /// Mutable access to a node's state.
    pub fn node_mut(&mut self, id: PeerId) -> Option<&mut N> {
        self.version += 1;
        let d = self.table.dense(id);
        (d != DENSE_NONE).then(|| self.table.node_mut(d))
    }

    /// All registered peer ids (alive and dead), in increasing order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.table.order().iter().map(|&d| self.table.raw_of(d))
    }

    /// Every registered node tagged with its id, in increasing id order.
    pub fn nodes_iter(&self) -> impl Iterator<Item = (PeerId, &N)> {
        self.table
            .order()
            .iter()
            .map(|&d| (self.table.raw_of(d), self.table.node(d)))
    }

    /// Every alive node tagged with its id, in increasing id order.
    pub fn alive_nodes_iter(&self) -> impl Iterator<Item = (PeerId, &N)> {
        self.table
            .order()
            .iter()
            .filter(|&&d| self.table.is_alive_dense(d))
            .map(|&d| (self.table.raw_of(d), self.table.node(d)))
    }

    /// Mutable iteration over every registered node (alive and dead).
    pub fn nodes_iter_mut(&mut self) -> impl Iterator<Item = (PeerId, &mut N)> + '_ {
        self.version += 1;
        self.table.iter_mut_ordered()
    }

    /// All currently alive peer ids, in increasing order.
    pub fn alive_iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.table
            .order()
            .iter()
            .filter(|&&d| self.table.is_alive_dense(d))
            .map(|&d| self.table.raw_of(d))
    }

    /// Number of alive peers.
    pub fn alive_count(&self) -> usize {
        self.table.alive_count()
    }

    /// Number of (sender, receiver) channels currently tracked for FIFO
    /// ordering (bounded: purged on kill, stale entries pruned as events
    /// are processed).
    pub fn fifo_channel_count(&self) -> usize {
        self.fifo.len()
    }

    fn push_raw(&mut self, at: SimTime, payload: Payload<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, payload);
    }

    fn push(&mut self, at: SimTime, payload: Payload<N::Msg>) {
        self.push_raw(at, payload);
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Injects an external message to `to`, delivered at the current time
    /// (plus the processing delay).
    pub fn send_external(&mut self, to: PeerId, msg: N::Msg) {
        self.send_external_at(to, msg, self.now);
    }

    /// Injects an external message to `to`, delivered at `at` (plus the
    /// processing delay).
    ///
    /// External injections are causal roots: the delivery is stamped with
    /// a fresh [`Cid`] minted from the delivery time and the event's
    /// sequence number, which every downstream effect inherits.
    pub fn send_external_at(&mut self, to: PeerId, msg: N::Msg, at: SimTime) {
        let at = at.max(self.now) + self.config.processing_delay;
        let cid = Cid::new(at.as_nanos(), self.seq);
        self.push(
            at,
            Payload::Deliver {
                from: EXTERNAL_SENDER,
                to,
                msg,
                is_timer: false,
                is_external: true,
                cid,
            },
        );
    }

    /// Kills `peer` immediately (fail-stop). FIFO channel state involving
    /// the dead peer is purged: no further message can originate from it,
    /// and deliveries *to* it are dropped before ordering matters, so the
    /// entries would otherwise only leak (churn-heavy runs killed hundreds
    /// of peers and the per-pair map grew without bound).
    pub fn kill(&mut self, peer: PeerId) {
        let d = self.table.dense(peer);
        if d != DENSE_NONE && self.table.set_dead(d) {
            self.version += 1;
            self.fifo
                .retain(|(from, to), _| *from != peer && *to != peer);
            self.table.node_mut(d).on_killed();
        }
    }

    /// Schedules `peer` to be killed at `at`.
    pub fn kill_at(&mut self, peer: PeerId, at: SimTime) {
        let at = at.max(self.now);
        self.push(at, Payload::Kill { peer });
    }

    /// Revives a previously killed peer under its original id with a fresh
    /// node state (a process restart on the same host). Every event queued
    /// before the revival — messages sent to the dead incarnation, its
    /// leftover timers — is dropped at delivery time via a per-peer
    /// sequence-number floor: a restarted process has fresh connections and
    /// fresh timers, exactly like a real crash-recovery. Panics if the peer
    /// is alive or was never registered.
    pub fn revive(&mut self, peer: PeerId, node: N) {
        let d = self.table.dense(peer);
        assert!(d != DENSE_NONE, "revive: peer {peer} was never registered");
        assert!(
            !self.table.is_alive_dense(d),
            "revive: peer {peer} is still alive"
        );
        self.version += 1;
        self.table.set_floor(d, self.seq);
        self.table.replace_node(d, node);
        self.table.set_alive(d);
    }

    /// Runs a closure against a node with a live [`Context`], scheduling any
    /// effects the closure emits. This is how the harness invokes API methods
    /// (e.g. "issue a range query at peer p") without going through the
    /// network.
    ///
    /// API invocations are causal roots: the context carries a fresh
    /// [`Cid`] minted from `(now, seq)`, which every effect the closure
    /// emits inherits.
    ///
    /// Returns `None` if the peer does not exist or is dead.
    pub fn with_node_ctx<R>(
        &mut self,
        id: PeerId,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) -> R,
    ) -> Option<R> {
        let d = self.table.dense(id);
        if d == DENSE_NONE || !self.table.is_alive_dense(d) {
            return None;
        }
        self.version += 1;
        let cid = Cid::new(self.now.as_nanos(), self.seq);
        let mut out = self.scratch.take().unwrap_or_default();
        let mut ctx = Context {
            self_id: id,
            now: self.now,
            cid,
            is_timer: false,
            rng: &mut self.rng,
            out: &mut out,
        };
        let result = f(self.table.node_mut(d), &mut ctx);
        self.schedule_effects(id, cid, &mut out);
        self.scratch = Some(out);
        Some(result)
    }

    /// Applies the send bookkeeping shared by both engines: messages-sent
    /// counter, latency draw, FIFO bump and channel high-water mark.
    /// Returns the delivery time; the caller pushes the event.
    #[inline]
    fn schedule_send(&mut self, from: PeerId, to: PeerId) -> SimTime {
        self.stats.messages_sent += 1;
        let latency = self.config.latency.sample(&mut self.rng);
        let mut at = self.now + latency + self.config.processing_delay;
        // Enforce FIFO delivery per (sender, receiver) pair.
        match self.fifo.entry((from, to)) {
            Entry::Occupied(mut prev) => {
                at = at.max(*prev.get() + Duration::from_nanos(1));
                prev.insert(at);
            }
            Entry::Vacant(slot) => {
                slot.insert(at);
            }
        }
        self.stats.peak_fifo_channels = self.stats.peak_fifo_channels.max(self.fifo.len() as u64);
        at
    }

    /// Turns one effect emitted by `from` into its queued delivery — the
    /// delivery time and the event — applying the send bookkeeping. Shared by
    /// both engines. The delivery inherits `cid`, the correlation id of the
    /// event whose handler emitted the effect.
    #[inline]
    fn delivery_of(
        &mut self,
        from: PeerId,
        cid: Cid,
        effect: Effect<N::Msg>,
    ) -> (SimTime, Payload<N::Msg>) {
        let (at, to, msg, is_timer) = match effect {
            Effect::Send { to, msg } => (self.schedule_send(from, to), to, msg, false),
            Effect::Timer { delay, msg } => (self.now + delay, from, msg, true),
        };
        let payload = Payload::Deliver {
            from,
            to,
            msg,
            is_timer,
            is_external: false,
            cid,
        };
        (at, payload)
    }

    /// Schedules the buffered effects in emission order, leaving `effects`
    /// empty (the caller hands the buffer back for reuse).
    fn schedule_effects(&mut self, from: PeerId, cid: Cid, effects: &mut Effects<N::Msg>) {
        effects.drain_each(|effect| {
            let (at, payload) = self.delivery_of(from, cid, effect);
            self.push(at, payload);
        });
    }

    /// Drops FIFO entries whose ordering constraint lies strictly in the
    /// past: any future send between the same pair is scheduled at or after
    /// `now + processing delay`, which already satisfies a constraint
    /// `< now` (even at zero latency), so pruning cannot reorder anything.
    fn prune_stale_fifo(&mut self) {
        let now = self.now;
        self.fifo.retain(|_, at| *at >= now);
    }

    /// Processes the next queued event, advancing virtual time to it.
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, seq, payload)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.version += 1;
        self.stats.events_processed += 1;
        if self.stats.events_processed % FIFO_PRUNE_INTERVAL == 0
            && self.fifo.len() > FIFO_PRUNE_THRESHOLD
        {
            self.prune_stale_fifo();
        }
        match payload {
            Payload::Kill { peer } => {
                // The revive delivery floor covers scheduled kills too: a
                // `kill_at` aimed at an incarnation that has since crashed
                // and been revived must not fell the NEW incarnation as a
                // phantom second failure.
                let d = self.table.dense(peer);
                let below_floor = d != DENSE_NONE && seq < self.table.floor(d);
                if !below_floor {
                    self.kill(peer);
                }
            }
            Payload::Deliver {
                from,
                to,
                msg,
                is_timer,
                is_external,
                cid,
            } => {
                let d = self.table.dense(to);
                let deliverable =
                    d != DENSE_NONE && seq >= self.table.floor(d) && self.table.is_alive_dense(d);
                if !deliverable {
                    if is_timer {
                        self.stats.timers_dropped += 1;
                    } else {
                        self.stats.messages_dropped += 1;
                    }
                    return true;
                }
                if is_timer {
                    self.stats.timers_fired += 1;
                } else if is_external {
                    self.stats.external_delivered += 1;
                } else {
                    self.stats.messages_delivered += 1;
                }
                self.deliveries_by_slot[d as usize] += 1;
                let mut out = self.scratch.take().unwrap_or_default();
                let mut ctx = Context {
                    self_id: to,
                    now: self.now,
                    cid,
                    is_timer,
                    rng: &mut self.rng,
                    out: &mut out,
                };
                self.table.node_mut(d).on_message(&mut ctx, from, msg);
                self.schedule_effects(to, cid, &mut out);
                self.scratch = Some(out);
            }
        }
        true
    }

    /// Runs the simulation until virtual time `deadline` (inclusive): every
    /// event scheduled at or before the deadline is processed, and the clock
    /// ends at exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.config.exec.threads > 1 && self.lookahead_nanos > 0 {
            self.run_epochs(deadline);
        } else {
            loop {
                match self.queue.peek() {
                    Some(at) if at <= deadline => {
                        self.step();
                    }
                    _ => break,
                }
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs the simulation for `d` of virtual time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty or `max_events` events have been
    /// processed. Only useful for nodes without periodic timers.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
        processed
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    // ------------------------------------------------------------------
    // The epoch-parallel engine
    // ------------------------------------------------------------------

    /// Maps a dense peer slot to its shard under the configured layout.
    #[inline]
    fn shard_of(dense: u32, shards: usize, layout: ShardLayout, block: usize) -> usize {
        match layout {
            ShardLayout::RoundRobin => dense as usize % shards,
            ShardLayout::Blocks => (dense as usize / block).min(shards - 1),
        }
    }

    /// The conservative epoch loop (see the module docs): drain a
    /// lookahead window, process it per shard, replay every scheduling
    /// side effect at the barrier in canonical `(time, seq)` order.
    fn run_epochs(&mut self, deadline: SimTime) {
        let exec = self.config.exec;
        let shards = if exec.shards == 0 {
            (exec.threads as usize * 4).max(1)
        } else {
            exec.shards as usize
        };
        while self.shard_rngs.len() < shards {
            // Stable per-shard streams: Context::rng draws are reproducible
            // per (seed, shard index) regardless of thread count.
            let i = self.shard_rngs.len() as u64;
            self.shard_rngs.push(StdRng::seed_from_u64(
                self.config.seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            ));
            self.shard_pools.push(Vec::new());
        }
        let threshold = exec.parallel_threshold.max(1) as usize;
        let n_workers = (exec.threads as usize - 1).min(shards.saturating_sub(1));
        let block = self.table.len().div_ceil(shards).max(1);
        let layout = exec.layout;

        std::thread::scope(|scope| {
            // Workers are spawned lazily on the first window wide enough to
            // dispatch: typical protocol epochs hold a handful of events and
            // run inline, so narrow runs never pay the spawn cost.
            let mut senders: Vec<mpsc::Sender<ShardTask<N>>> = Vec::new();
            let (result_tx, result_rx) = mpsc::channel::<ShardResult<N::Msg>>();
            let mut shard_events: Vec<Vec<WindowEvent<N::Msg>>> =
                (0..shards).map(|_| Vec::new()).collect();
            let mut meta: Vec<(SimTime, u32)> = Vec::new();
            let mut results: Vec<Vec<(u32, Outcome<N::Msg>)>> =
                (0..shards).map(|_| Vec::new()).collect();
            let mut cursors = vec![0usize; shards];

            while let Some(t_min) = self.queue.peek() {
                if t_min > deadline {
                    break;
                }
                let window_end = SimTime::from_nanos(
                    t_min
                        .as_nanos()
                        .saturating_add(self.lookahead_nanos)
                        .min(deadline.as_nanos().saturating_add(1)),
                );
                // Queue depth before the drain — replayed during the merge
                // so peak_queue_depth matches the classic loop exactly.
                let mut virtual_depth = self.queue.len();
                let t_drain = std::time::Instant::now();
                meta.clear();
                let mut count = 0u32;
                while let Some(at) = self.queue.peek() {
                    if at >= window_end {
                        break;
                    }
                    let (at, seq, payload) = self.queue.pop().expect("peeked");
                    let dense = match &payload {
                        Payload::Deliver { to, .. } => self.table.dense(*to),
                        Payload::Kill { peer } => self.table.dense(*peer),
                    };
                    let shard = if dense == DENSE_NONE {
                        0
                    } else {
                        Self::shard_of(dense, shards, layout, block)
                    };
                    meta.push((at, shard as u32));
                    shard_events[shard].push(WindowEvent {
                        idx: count,
                        at,
                        seq,
                        dense,
                        payload,
                    });
                    count += 1;
                }
                // Profile bookkeeping (wall clock only — never fed back
                // into the simulation, so determinism is untouched).
                self.profile.windows += 1;
                self.profile.window_events += u64::from(count);
                self.profile.max_window_events =
                    self.profile.max_window_events.max(u64::from(count));
                self.profile.occupied_shard_windows +=
                    shard_events.iter().filter(|e| !e.is_empty()).count() as u64;
                let busiest = shard_events.iter().map(Vec::len).max().unwrap_or(0);
                self.profile.occupancy_max_events += busiest as u64;
                self.profile.drain_nanos += t_drain.elapsed().as_nanos() as u64;
                let t_exec = std::time::Instant::now();

                // Dispatch: worker threads when the window is wide enough,
                // inline otherwise — same per-shard function, same records,
                // same merge, so the dispatch choice is output-invariant.
                let wide = count as usize >= threshold && n_workers > 0;
                if wide && senders.is_empty() {
                    for _ in 0..n_workers {
                        let (tx, rx) = mpsc::channel::<ShardTask<N>>();
                        let rtx = result_tx.clone();
                        scope.spawn(move || {
                            while let Ok(task) = rx.recv() {
                                if rtx.send(process_shard(task)).is_err() {
                                    break;
                                }
                            }
                        });
                        senders.push(tx);
                    }
                }
                let (nodes, alive, floor) = self.table.storage_ptrs();
                let tables = Tables {
                    nodes,
                    alive,
                    floor,
                };
                let mut outstanding = 0usize;
                for (s, events) in shard_events.iter_mut().enumerate() {
                    if events.is_empty() {
                        results[s].clear();
                        continue;
                    }
                    let task = ShardTask {
                        shard: s as u32,
                        events: std::mem::take(events),
                        tables,
                        rng: &mut self.shard_rngs[s] as *mut StdRng,
                        pool: &mut self.shard_pools[s] as *mut Vec<Box<Effects<N::Msg>>>,
                    };
                    let lane = s % (n_workers + 1);
                    if wide && lane != 0 {
                        senders[lane - 1].send(task).expect("worker alive");
                        outstanding += 1;
                    } else {
                        let (shard, recs) = process_shard(task);
                        results[shard as usize] = recs;
                    }
                }
                for _ in 0..outstanding {
                    let (shard, recs) = result_rx.recv().expect("worker result");
                    results[shard as usize] = recs;
                }
                if wide {
                    self.profile.parallel_windows += 1;
                }
                self.profile.exec_nanos += t_exec.elapsed().as_nanos() as u64;
                let t_merge = std::time::Instant::now();

                // Barrier merge: replay all global side effects in canonical
                // (time, seq) order — the exact interleaving the classic
                // loop would have produced.
                cursors.iter_mut().for_each(|c| *c = 0);
                let mut killed = 0usize;
                for (i, &(at, shard)) in meta.iter().enumerate() {
                    self.now = self.now.max(at);
                    self.version += 1;
                    self.stats.events_processed += 1;
                    virtual_depth -= 1;
                    if self.stats.events_processed % FIFO_PRUNE_INTERVAL == 0
                        && self.fifo.len() > FIFO_PRUNE_THRESHOLD
                    {
                        self.prune_stale_fifo();
                    }
                    let s = shard as usize;
                    let (idx, outcome) =
                        std::mem::replace(&mut results[s][cursors[s]], (0, Outcome::DropMsg));
                    debug_assert_eq!(idx as usize, i, "shard records must interleave in order");
                    cursors[s] += 1;
                    match outcome {
                        Outcome::DropMsg => self.stats.messages_dropped += 1,
                        Outcome::DropTimer => self.stats.timers_dropped += 1,
                        Outcome::Kill { peer, did } => {
                            if did {
                                self.version += 1;
                                killed += 1;
                                self.fifo
                                    .retain(|(from, to), _| *from != peer && *to != peer);
                            }
                        }
                        Outcome::Deliver {
                            to,
                            dense,
                            kind,
                            cid,
                            mut effects,
                        } => {
                            match kind {
                                DeliverKind::Timer => self.stats.timers_fired += 1,
                                DeliverKind::External => self.stats.external_delivered += 1,
                                DeliverKind::Msg => self.stats.messages_delivered += 1,
                            }
                            self.deliveries_by_slot[dense as usize] += 1;
                            effects.drain_each(|effect| {
                                let (at, payload) = self.delivery_of(to, cid, effect);
                                if at < window_end {
                                    self.lookahead_deferrals += 1;
                                }
                                self.push_raw(at, payload);
                                virtual_depth += 1;
                                self.stats.peak_queue_depth =
                                    self.stats.peak_queue_depth.max(virtual_depth as u64);
                            });
                            self.shard_pools[s].push(effects);
                        }
                    }
                }
                if killed > 0 {
                    self.table.note_killed(killed);
                }
                self.profile.merge_nanos += t_merge.elapsed().as_nanos() as u64;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ExecConfig;

    /// A toy node: forwards a counter around a fixed ring of peers and counts
    /// how many times it saw the token; also supports a periodic tick.
    #[derive(Debug)]
    struct TokenNode {
        next: PeerId,
        tokens_seen: u32,
        ticks: u32,
        killed: bool,
    }

    #[derive(Debug, Clone)]
    enum TokenMsg {
        Token(u32),
        Tick,
    }

    impl Node for TokenNode {
        type Msg = TokenMsg;

        fn on_message(&mut self, ctx: &mut Context<'_, TokenMsg>, _from: PeerId, msg: TokenMsg) {
            match msg {
                TokenMsg::Token(hops_left) => {
                    self.tokens_seen += 1;
                    if hops_left > 0 {
                        ctx.send(self.next, TokenMsg::Token(hops_left - 1));
                    }
                }
                TokenMsg::Tick => {
                    self.ticks += 1;
                    ctx.set_timer(Duration::from_secs(1), TokenMsg::Tick);
                }
            }
        }

        fn on_killed(&mut self) {
            self.killed = true;
        }
    }

    fn three_node_sim() -> (Simulator<TokenNode>, PeerId, PeerId, PeerId) {
        let mut sim = Simulator::new(NetworkConfig::lan(42));
        let a = PeerId(0);
        let b = PeerId(1);
        let c = PeerId(2);
        sim.add_node_with_id(
            a,
            TokenNode {
                next: b,
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
        sim.add_node_with_id(
            b,
            TokenNode {
                next: c,
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
        sim.add_node_with_id(
            c,
            TokenNode {
                next: a,
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
        (sim, a, b, c)
    }

    #[test]
    fn token_circulates_and_time_advances() {
        let (mut sim, a, b, c) = three_node_sim();
        sim.send_external(a, TokenMsg::Token(5));
        sim.run_for(Duration::from_secs(1));
        // 6 deliveries total: a, b, c, a, b, c.
        assert_eq!(sim.node(a).unwrap().tokens_seen, 2);
        assert_eq!(sim.node(b).unwrap().tokens_seen, 2);
        assert_eq!(sim.node(c).unwrap().tokens_seen, 2);
        assert!(sim.now() >= SimTime::from_secs(1));
        assert_eq!(sim.stats().external_delivered, 1);
        assert_eq!(sim.stats().messages_delivered, 5);
    }

    #[test]
    fn periodic_timer_fires_repeatedly() {
        let (mut sim, a, _, _) = three_node_sim();
        sim.send_external(a, TokenMsg::Tick);
        sim.run_for(Duration::from_secs(10));
        let ticks = sim.node(a).unwrap().ticks;
        assert!((9..=11).contains(&ticks), "ticks = {ticks}");
        assert!(sim.stats().timers_fired >= 9);
    }

    #[test]
    fn killed_peer_drops_messages_and_timers() {
        let (mut sim, a, b, c) = three_node_sim();
        sim.send_external(a, TokenMsg::Token(10));
        sim.kill_at(b, SimTime::from_millis(1));
        sim.run_for(Duration::from_secs(2));
        assert!(sim.node(b).unwrap().killed);
        assert!(!sim.is_alive(b));
        assert!(sim.is_alive(a) && sim.is_alive(c));
        // The token dies at b after at most one full lap.
        assert!(sim.stats().messages_dropped >= 1);
        assert_eq!(sim.alive_count(), 2);
    }

    #[test]
    fn with_node_ctx_schedules_effects() {
        let (mut sim, a, b, _) = three_node_sim();
        let r = sim.with_node_ctx(a, |node, ctx| {
            node.tokens_seen += 100;
            ctx.send(b, TokenMsg::Token(0));
            "ok"
        });
        assert_eq!(r, Some("ok"));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node(a).unwrap().tokens_seen, 100);
        assert_eq!(sim.node(b).unwrap().tokens_seen, 1);
        // Dead or missing peers yield None.
        sim.kill(a);
        assert!(sim.with_node_ctx(a, |_, _| ()).is_none());
        assert!(sim.with_node_ctx(PeerId(99), |_, _| ()).is_none());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(NetworkConfig::lan(seed));
            let a = sim.add_node(|_| TokenNode {
                next: PeerId(1),
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            });
            let b = sim.add_node(|_| TokenNode {
                next: PeerId(0),
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            });
            sim.send_external(a, TokenMsg::Token(50));
            sim.run_for(Duration::from_secs(5));
            (
                sim.now(),
                sim.stats(),
                sim.node(a).unwrap().tokens_seen,
                sim.node(b).unwrap().tokens_seen,
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn run_until_idle_processes_finite_work() {
        let (mut sim, a, _, _) = three_node_sim();
        sim.send_external(a, TokenMsg::Token(3));
        let processed = sim.run_until_idle(1000);
        assert_eq!(processed, 4);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn kill_purges_fifo_channels_of_the_dead_peer() {
        let (mut sim, a, b, _c) = three_node_sim();
        // Circulate a token so every (sender, receiver) pair gets a FIFO
        // entry: a→b, b→c, c→a.
        sim.send_external(a, TokenMsg::Token(6));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.fifo_channel_count() >= 3);
        let before = sim.fifo_channel_count();
        sim.kill(b);
        // Every channel with b as sender or receiver is gone; the map
        // shrank rather than leaking the dead peer's entries forever.
        assert!(
            sim.fifo_channel_count() < before,
            "fifo map must shrink on kill ({before} -> {})",
            sim.fifo_channel_count()
        );
        assert_eq!(sim.fifo_channel_count(), 1); // only c→a survives
    }

    #[test]
    fn stale_fifo_pruning_does_not_change_delivery() {
        // Two runs of the same schedule: one pruned manually at every
        // step, one untouched. Delivery counts and times must match,
        // because pruned entries no longer constrain anything.
        let run = |prune: bool| {
            let (mut sim, a, _, _) = three_node_sim();
            sim.send_external(a, TokenMsg::Token(30));
            for _ in 0..200 {
                if !sim.step() {
                    break;
                }
                if prune {
                    sim.prune_stale_fifo();
                }
            }
            (sim.now(), sim.stats().messages_delivered)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn state_version_advances_on_mutation() {
        let (mut sim, a, _, _) = three_node_sim();
        let v0 = sim.state_version();
        sim.send_external(a, TokenMsg::Token(1));
        assert_eq!(sim.state_version(), v0, "scheduling alone changes nothing");
        sim.step();
        assert!(sim.state_version() > v0, "processing an event bumps");
        let v1 = sim.state_version();
        sim.kill(a);
        assert!(sim.state_version() > v1, "kill bumps");
        let v2 = sim.state_version();
        sim.kill(a);
        assert_eq!(sim.state_version(), v2, "killing a dead peer is a no-op");
    }

    #[test]
    fn iterators_list_peers_in_id_order() {
        let (mut sim, a, b, c) = three_node_sim();
        sim.kill(b);
        assert_eq!(sim.peers().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(sim.alive_iter().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(
            sim.nodes_iter().map(|(p, _)| p).collect::<Vec<_>>(),
            vec![a, b, c]
        );
        assert_eq!(
            sim.alive_nodes_iter().map(|(p, _)| p).collect::<Vec<_>>(),
            vec![a, c]
        );
        assert_eq!(sim.nodes_iter_mut().count(), 3);
    }

    #[test]
    fn peak_stats_track_queue_and_fifo_high_water_marks() {
        let (mut sim, a, _, _) = three_node_sim();
        sim.send_external(a, TokenMsg::Token(10));
        sim.run_for(Duration::from_secs(1));
        let stats = sim.stats();
        assert!(stats.peak_queue_depth >= 1);
        assert!(stats.peak_fifo_channels >= 3);
        assert!(stats.events_processed >= stats.total_events());
    }

    #[test]
    fn revive_drops_pre_revival_events_and_delivers_new_ones() {
        let (mut sim, a, b, _c) = three_node_sim();
        // Schedule a message and a timer to b, then kill and revive it:
        // neither may reach the new incarnation.
        sim.with_node_ctx(a, |_, ctx| ctx.send(b, TokenMsg::Token(0)));
        sim.with_node_ctx(b, |_, ctx| {
            ctx.set_timer(Duration::from_millis(5), TokenMsg::Tick)
        });
        sim.kill(b);
        sim.revive(
            b,
            TokenNode {
                next: a,
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
        assert!(sim.is_alive(b));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node(b).unwrap().tokens_seen, 0, "stale message dropped");
        assert_eq!(sim.node(b).unwrap().ticks, 0, "stale timer dropped");
        assert!(sim.stats().messages_dropped >= 1);
        assert!(sim.stats().timers_dropped >= 1);
        // Post-revival traffic is delivered normally.
        sim.send_external(b, TokenMsg::Token(0));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node(b).unwrap().tokens_seen, 1);
    }

    #[test]
    #[should_panic(expected = "still alive")]
    fn revive_refuses_a_live_peer() {
        let (mut sim, a, _, _) = three_node_sim();
        sim.revive(
            a,
            TokenNode {
                next: a,
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut sim: Simulator<TokenNode> = Simulator::new(NetworkConfig::instant(1));
        let a = sim.add_node(|id| TokenNode {
            next: id,
            tokens_seen: 0,
            ticks: 0,
            killed: false,
        });
        let b = sim.add_node(|id| TokenNode {
            next: id,
            tokens_seen: 0,
            ticks: 0,
            killed: false,
        });
        assert_eq!(a, PeerId(0));
        assert_eq!(b, PeerId(1));
        assert_eq!(sim.peers().collect::<Vec<_>>(), vec![a, b]);
    }

    /// Answers `Burst(n)` with `n` numbered items to peer 1, which logs what
    /// arrives.
    #[derive(Debug, Default)]
    struct BurstNode {
        got: Vec<u32>,
    }

    #[derive(Debug, Clone)]
    enum BurstMsg {
        Burst(u32),
        Item(u32),
    }

    impl Node for BurstNode {
        type Msg = BurstMsg;

        fn on_message(&mut self, ctx: &mut Context<'_, BurstMsg>, _from: PeerId, msg: BurstMsg) {
            match msg {
                BurstMsg::Burst(n) => (0..n).for_each(|i| ctx.send(PeerId(1), BurstMsg::Item(i))),
                BurstMsg::Item(i) => self.got.push(i),
            }
        }
    }

    #[test]
    fn the_reused_effect_buffer_schedules_every_effect_once_and_in_order() {
        let big = 3 * crate::effect::INLINE as u32 + 1;
        let epochs = ExecConfig {
            threads: 2,
            parallel_threshold: 1,
            ..ExecConfig::default()
        };
        for exec in [ExecConfig::single_thread(), epochs] {
            let mut sim: Simulator<BurstNode> =
                Simulator::new(NetworkConfig::lan(3).with_exec(exec));
            let a = sim.add_node(|_| BurstNode::default());
            let b = sim.add_node(|_| BurstNode::default());
            // A burst that spills to the heap, an event that emits nothing,
            // then a single effect: each must be scheduled exactly once.
            for n in [big, 0, 1] {
                sim.send_external(a, BurstMsg::Burst(n));
                sim.run_for(Duration::from_millis(5));
            }
            // The API entry point lends the same buffer.
            sim.with_node_ctx(a, |_, ctx| {
                ctx.send(b, BurstMsg::Item(77));
                ctx.effects().send(b, BurstMsg::Item(78));
            });
            sim.with_node_ctx(a, |_, _| ());
            sim.run_for(Duration::from_millis(5));
            // Links are FIFO per pair, so arrival order is emission order.
            let want: Vec<u32> = (0..big).chain([0, 77, 78]).collect();
            assert_eq!(sim.node(b).unwrap().got, want, "{exec:?}");
            assert_eq!(sim.stats().messages_delivered, want.len() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Epoch-engine equivalence
    // ------------------------------------------------------------------

    /// A churn-heavy token workload over `n` peers: external bursts wide
    /// enough to trigger worker dispatch, chained forwards, periodic
    /// ticks, scheduled kills and a revive.
    fn churny_run(exec: ExecConfig, n: u64) -> (SimTime, NetStats, Vec<(PeerId, u64)>, Vec<u32>) {
        let mut sim: Simulator<TokenNode> = Simulator::new(NetworkConfig::lan(7).with_exec(exec));
        for i in 0..n {
            sim.add_node(|id| TokenNode {
                next: PeerId((id.raw() + 1) % n),
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            });
            let _ = i;
        }
        // A wide same-instant burst: every peer gets a chained token, so
        // the first epochs hold hundreds of events.
        for i in 0..n {
            sim.send_external(PeerId(i), TokenMsg::Token(20));
        }
        sim.send_external(PeerId(0), TokenMsg::Tick);
        sim.kill_at(PeerId(3), SimTime::from_millis(2));
        sim.kill_at(PeerId(5), SimTime::from_millis(4));
        sim.run_for(Duration::from_millis(10));
        sim.revive(
            PeerId(3),
            TokenNode {
                next: PeerId(4 % n),
                tokens_seen: 0,
                ticks: 0,
                killed: false,
            },
        );
        for i in 0..n {
            sim.send_external(PeerId(i), TokenMsg::Token(10));
        }
        sim.run_for(Duration::from_secs(3));
        let tokens: Vec<u32> = sim.nodes_iter().map(|(_, node)| node.tokens_seen).collect();
        (sim.now(), sim.stats(), sim.per_peer_deliveries(), tokens)
    }

    #[test]
    fn epoch_engine_is_byte_identical_to_classic() {
        let n = 64;
        let classic = churny_run(ExecConfig::single_thread(), n);
        for threads in [2, 4, 8] {
            for layout in [ShardLayout::RoundRobin, ShardLayout::Blocks] {
                for shards in [0, 3, 16] {
                    let exec = ExecConfig {
                        threads,
                        shards,
                        layout,
                        // Low threshold: force actual worker dispatch even
                        // for mid-sized windows.
                        parallel_threshold: 8,
                    };
                    let parallel = churny_run(exec, n);
                    assert_eq!(
                        classic, parallel,
                        "threads={threads} layout={layout:?} shards={shards} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_engine_defers_sub_lookahead_timers_and_counts_them() {
        // A node whose timer is shorter than the network lookahead: the
        // epoch engine keeps total order but defers the timer to the next
        // epoch, and reports having done so.
        #[derive(Debug)]
        struct FastTimer {
            fired: u32,
        }
        impl Node for FastTimer {
            type Msg = ();
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: PeerId, _msg: ()) {
                self.fired += 1;
                if self.fired < 50 {
                    ctx.set_timer(Duration::from_micros(10), ());
                }
            }
        }
        let exec = ExecConfig {
            threads: 2,
            parallel_threshold: 1,
            ..ExecConfig::default()
        };
        let mut sim: Simulator<FastTimer> = Simulator::new(NetworkConfig::lan(1).with_exec(exec));
        let a = sim.add_node(|_| FastTimer { fired: 0 });
        sim.send_external(a, ());
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node(a).unwrap().fired, 50);
        assert!(
            sim.lookahead_deferrals() > 0,
            "10 µs timers against a 150 µs lookahead must be deferred"
        );
        // Protocol-speed timers never defer.
        let (mut normal, a2, _, _) = three_node_sim();
        normal.send_external(a2, TokenMsg::Tick);
        normal.run_for(Duration::from_secs(5));
        assert_eq!(normal.lookahead_deferrals(), 0);
    }

    // ------------------------------------------------------------------
    // Correlation-id propagation
    // ------------------------------------------------------------------

    /// Records the correlation id and timer flag of every delivery, and
    /// forwards a hop counter to exercise inheritance across sends.
    #[derive(Debug)]
    struct CidProbe {
        next: PeerId,
        seen: Vec<(Cid, bool)>,
    }

    #[derive(Debug, Clone)]
    enum ProbeMsg {
        Fwd(u32),
        Tick,
    }

    impl Node for CidProbe {
        type Msg = ProbeMsg;

        fn on_message(&mut self, ctx: &mut Context<'_, ProbeMsg>, _from: PeerId, msg: ProbeMsg) {
            self.seen.push((ctx.cid(), ctx.is_timer()));
            if let ProbeMsg::Fwd(n) = msg {
                if n > 0 {
                    ctx.send(self.next, ProbeMsg::Fwd(n - 1));
                }
            }
        }
    }

    fn probe_pair(exec: ExecConfig) -> Simulator<CidProbe> {
        let mut sim = Simulator::new(NetworkConfig::lan(11).with_exec(exec));
        sim.add_node(|_| CidProbe {
            next: PeerId(1),
            seen: Vec::new(),
        });
        sim.add_node(|_| CidProbe {
            next: PeerId(0),
            seen: Vec::new(),
        });
        sim
    }

    #[test]
    fn effects_inherit_the_root_cid_across_hops() {
        let mut sim = probe_pair(ExecConfig::single_thread());
        sim.send_external(PeerId(0), ProbeMsg::Fwd(4));
        sim.run_for(Duration::from_secs(1));
        let mut all: Vec<(Cid, bool)> = Vec::new();
        for (_, node) in sim.nodes_iter() {
            all.extend(node.seen.iter().copied());
        }
        assert_eq!(all.len(), 5, "external delivery plus four forwards");
        let root = all[0].0;
        assert!(!root.is_none(), "roots always mint a real cid");
        assert!(
            all.iter().all(|(cid, is_timer)| *cid == root && !is_timer),
            "every hop inherits the root cid: {all:?}"
        );
    }

    #[test]
    fn distinct_roots_mint_distinct_cids() {
        let mut sim = probe_pair(ExecConfig::single_thread());
        sim.send_external(PeerId(0), ProbeMsg::Fwd(0));
        sim.send_external(PeerId(1), ProbeMsg::Fwd(0));
        sim.run_for(Duration::from_secs(1));
        let a = sim.node(PeerId(0)).unwrap().seen[0].0;
        let b = sim.node(PeerId(1)).unwrap().seen[0].0;
        assert_ne!(a, b, "each injection is its own causal root");
    }

    #[test]
    fn timers_inherit_the_cid_of_the_scheduling_context() {
        let mut sim = probe_pair(ExecConfig::single_thread());
        let root = sim
            .with_node_ctx(PeerId(0), |_, ctx| {
                ctx.set_timer(Duration::from_millis(5), ProbeMsg::Tick);
                ctx.cid()
            })
            .unwrap();
        assert!(!root.is_none());
        sim.run_for(Duration::from_secs(1));
        let seen = &sim.node(PeerId(0)).unwrap().seen;
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0], (root, true), "timer fires under the api-call cid");
    }

    #[test]
    fn epoch_engine_stamps_identical_cids_and_profiles_itself() {
        let run = |exec: ExecConfig| {
            let mut sim = probe_pair(exec);
            for i in 0..2 {
                sim.send_external(PeerId(i), ProbeMsg::Fwd(12));
            }
            sim.with_node_ctx(PeerId(0), |_, ctx| {
                ctx.set_timer(Duration::from_millis(7), ProbeMsg::Tick)
            });
            sim.run_for(Duration::from_secs(1));
            let seen: Vec<Vec<(Cid, bool)>> = sim
                .nodes_iter()
                .map(|(_, node)| node.seen.clone())
                .collect();
            (seen, sim.engine_profile())
        };
        let (classic, classic_profile) = run(ExecConfig::single_thread());
        let (parallel, parallel_profile) = run(ExecConfig {
            threads: 2,
            shards: 0,
            layout: ShardLayout::RoundRobin,
            parallel_threshold: 1,
        });
        assert_eq!(classic, parallel, "cid streams must be engine-invariant");
        assert_eq!(
            classic_profile,
            EngineProfile::default(),
            "classic loop never populates the epoch profile"
        );
        assert!(parallel_profile.windows > 0);
        assert!(parallel_profile.window_events > 0);
        assert!(parallel_profile.imbalance() >= 1.0 - 1e-9);
    }

    #[test]
    fn instant_config_stays_on_the_classic_engine() {
        // Zero lookahead (instant network) cannot form epochs; the
        // simulator must silently fall back to the classic loop.
        let exec = ExecConfig::threaded(4);
        let mut sim: Simulator<TokenNode> =
            Simulator::new(NetworkConfig::instant(3).with_exec(exec));
        let a = sim.add_node(|_| TokenNode {
            next: PeerId(1),
            tokens_seen: 0,
            ticks: 0,
            killed: false,
        });
        sim.add_node(|_| TokenNode {
            next: PeerId(0),
            tokens_seen: 0,
            ticks: 0,
            killed: false,
        });
        sim.send_external(a, TokenMsg::Token(9));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.stats().messages_delivered, 9);
        assert_eq!(sim.lookahead_deferrals(), 0);
    }
}
