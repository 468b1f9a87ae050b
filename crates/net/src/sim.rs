//! The discrete-event simulator.
//!
//! Peers are [`Node`]s: state machines that react to delivered messages (and
//! to their own timers, which are just self-addressed messages scheduled in
//! the future). The simulator owns a priority queue of events ordered by
//! `(virtual time, sequence number)`, which makes every run fully
//! deterministic for a given seed and call sequence.
//!
//! # Execution
//!
//! There is one delivery loop: [`Simulator::run_until`] pops the earliest
//! event, delivers it, and schedules the effects its handler emitted, until
//! the next event lies past the deadline. Nothing about how the loop
//! executes is configurable, so the `(time, seq)` order is the only
//! interleaving a seed can produce.
//!
//! # Peer slots
//!
//! [`Simulator::add_node`] hands out ids 0, 1, 2, … in order, so a
//! [`PeerId`]'s raw value *is* its slot in the simulator's per-peer vectors.
//! An id at or past the number of registered peers — [`EXTERNAL_SENDER`]
//! included — is simply absent. A killed and revived peer keeps its slot.
//!
//! # Correlation ids
//!
//! Every delivery envelope carries a [`Cid`], minted from `(virtual time,
//! sequence number)` at each causal root — an external injection
//! ([`Simulator::send_external`]) or a harness API call
//! ([`Simulator::with_node_ctx`]) — and inherited by every send and timer
//! the handler schedules, so traces keyed by them are determined by the seed
//! (see `pepper-trace`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

use pepper_trace::Cid;
use pepper_types::PeerId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::effect::{Effect, Effects};
use crate::latency::NetworkConfig;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::wheel::EventWheel;

/// The sender id used for harness-injected ("external") messages, standing in
/// for a client outside the P2P system.
pub const EXTERNAL_SENDER: PeerId = PeerId(u64::MAX);

/// A peer state machine driven by the simulator.
pub trait Node {
    /// The message type this node exchanges (timers deliver the same type).
    type Msg: Clone + std::fmt::Debug;

    /// Handles a delivered message. `from` is [`EXTERNAL_SENDER`] for
    /// harness-injected messages and the node's own id for timers.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: PeerId, msg: Self::Msg);

    /// Hook invoked when the simulator kills this node (fail-stop). The node
    /// will receive no further events.
    fn on_killed(&mut self) {}
}

/// A queued event: one message (or timer) on its way to a peer.
#[derive(Debug, Clone)]
struct Delivery<M> {
    from: PeerId,
    to: PeerId,
    msg: M,
    is_timer: bool,
    is_external: bool,
    cid: Cid,
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

/// The discrete-event simulator.
pub struct Simulator<N: Node> {
    /// Node state per peer slot (never removed: dead nodes stay
    /// inspectable). The per-peer vectors below are indexed the same way.
    nodes: Vec<N>,
    alive: Vec<bool>,
    /// Revive delivery floor per peer: an event with `seq <` floor was
    /// aimed at a previous incarnation.
    floor: Vec<u64>,
    /// Delivered events (messages + timers + external) per peer — the raw
    /// material of the macro bench's per-peer load histogram.
    deliveries_by_slot: Vec<u64>,
    alive_count: usize,
    queue: EventWheel<Delivery<N::Msg>>,
    now: SimTime,
    seq: u64,
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
        Simulator {
            nodes: Vec::new(),
            alive: Vec::new(),
            floor: Vec::new(),
            deliveries_by_slot: Vec::new(),
            alive_count: 0,
            queue: EventWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            config,
            rng,
            stats: NetStats::default(),
            fifo: FifoMap::default(),
            scratch: None,
            version: 0,
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

    /// A monotone counter that changes whenever node or liveness state may
    /// have changed. Two calls returning the same value guarantee that any
    /// view derived from the node states is still valid, which lets callers
    /// memoize expensive whole-cluster scans.
    pub fn state_version(&self) -> u64 {
        self.version
    }

    /// The slot of `id`, or `None` if no peer was registered under it.
    #[inline]
    fn slot(&self, id: PeerId) -> Option<usize> {
        usize::try_from(id.raw())
            .ok()
            .filter(|&s| s < self.nodes.len())
    }

    /// Delivered events (messages + timers + external) per registered
    /// peer, in increasing id order — the per-peer load profile.
    pub fn per_peer_deliveries(&self) -> Vec<(PeerId, u64)> {
        self.peers()
            .zip(self.deliveries_by_slot.iter().copied())
            .collect()
    }

    /// Adds a node built by `build`, which receives the freshly assigned
    /// peer id (the next free slot). Returns the id.
    pub fn add_node(&mut self, build: impl FnOnce(PeerId) -> N) -> PeerId {
        let id = PeerId(self.nodes.len() as u64);
        self.version += 1;
        self.nodes.push(build(id));
        self.alive.push(true);
        self.floor.push(0);
        self.deliveries_by_slot.push(0);
        self.alive_count += 1;
        id
    }

    /// Returns `true` if the peer exists and has not been killed.
    pub fn is_alive(&self, id: PeerId) -> bool {
        self.slot(id).is_some_and(|s| self.alive[s])
    }

    /// Immutable access to a node's state (dead nodes remain inspectable).
    pub fn node(&self, id: PeerId) -> Option<&N> {
        self.slot(id).map(|s| &self.nodes[s])
    }

    /// Mutable access to a node's state.
    pub fn node_mut(&mut self, id: PeerId) -> Option<&mut N> {
        self.version += 1;
        let s = self.slot(id)?;
        Some(&mut self.nodes[s])
    }

    /// All registered peer ids (alive and dead), in increasing order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.nodes.len() as u64).map(PeerId)
    }

    /// Every registered node tagged with its id, in increasing id order.
    pub fn nodes_iter(&self) -> impl Iterator<Item = (PeerId, &N)> {
        self.peers().zip(&self.nodes)
    }

    /// Every alive node tagged with its id, in increasing id order.
    pub fn alive_nodes_iter(&self) -> impl Iterator<Item = (PeerId, &N)> {
        self.nodes_iter()
            .zip(&self.alive)
            .filter_map(|(entry, &alive)| alive.then_some(entry))
    }

    /// Mutable iteration over every registered node (alive and dead), in
    /// increasing id order.
    pub fn nodes_iter_mut(&mut self) -> impl Iterator<Item = (PeerId, &mut N)> + '_ {
        self.version += 1;
        self.nodes
            .iter_mut()
            .enumerate()
            .map(|(s, node)| (PeerId(s as u64), node))
    }

    /// Number of alive peers.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of (sender, receiver) channels currently tracked for FIFO
    /// ordering (bounded: purged on kill, stale entries pruned as events
    /// are processed).
    #[cfg(test)]
    fn fifo_channel_count(&self) -> usize {
        self.fifo.len()
    }

    fn push(&mut self, at: SimTime, delivery: Delivery<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, delivery);
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Injects an external message to `to`, delivered at the current time
    /// plus the processing delay.
    ///
    /// External injections are causal roots: the delivery is stamped with
    /// a fresh [`Cid`] minted from the delivery time and the event's
    /// sequence number, which every downstream effect inherits.
    pub fn send_external(&mut self, to: PeerId, msg: N::Msg) {
        let at = self.now + self.config.processing_delay;
        let cid = Cid::new(at.as_nanos(), self.seq);
        self.push(
            at,
            Delivery {
                from: EXTERNAL_SENDER,
                to,
                msg,
                is_timer: false,
                is_external: true,
                cid,
            },
        );
    }

    /// Kills `peer` immediately (fail-stop); a no-op for a dead or unknown
    /// peer. FIFO channel state involving the dead peer is purged: no
    /// further message can originate from it, and deliveries *to* it are
    /// dropped before ordering matters, so the entries would otherwise only
    /// leak (churn-heavy runs killed hundreds of peers and the per-pair map
    /// grew without bound).
    pub fn kill(&mut self, peer: PeerId) {
        let Some(s) = self.slot(peer).filter(|&s| self.alive[s]) else {
            return;
        };
        self.alive[s] = false;
        self.alive_count -= 1;
        self.version += 1;
        self.fifo
            .retain(|(from, to), _| *from != peer && *to != peer);
        self.nodes[s].on_killed();
    }

    /// Revives a previously killed peer under its original id and slot with
    /// a fresh node state (a process restart on the same host). Every event
    /// queued before the revival — messages sent to the dead incarnation,
    /// its leftover timers — is dropped at delivery time via a per-peer
    /// sequence-number floor: a restarted process has fresh connections and
    /// fresh timers, exactly like a real crash-recovery. Panics if the peer
    /// is alive or was never registered.
    pub fn revive(&mut self, peer: PeerId, node: N) {
        let s = self
            .slot(peer)
            .unwrap_or_else(|| panic!("revive: peer {peer} was never registered"));
        assert!(!self.alive[s], "revive: peer {peer} is still alive");
        self.version += 1;
        self.floor[s] = self.seq;
        self.nodes[s] = node;
        self.alive[s] = true;
        self.alive_count += 1;
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
        let s = self.slot(id).filter(|&s| self.alive[s])?;
        self.version += 1;
        let cid = Cid::new(self.now.as_nanos(), self.seq);
        let mut out = self.scratch.take().unwrap_or_default();
        let mut ctx = Context {
            self_id: id,
            now: self.now,
            cid,
            is_timer: false,
            out: &mut out,
        };
        let result = f(&mut self.nodes[s], &mut ctx);
        self.schedule_effects(id, cid, &mut out);
        self.scratch = Some(out);
        Some(result)
    }

    /// Applies the send bookkeeping: messages-sent counter, latency draw,
    /// FIFO bump and channel high-water mark.
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
    /// delivery time and the event — applying the send bookkeeping. The
    /// delivery inherits `cid`, the correlation id of the event whose handler
    /// emitted the effect.
    #[inline]
    fn delivery_of(
        &mut self,
        from: PeerId,
        cid: Cid,
        effect: Effect<N::Msg>,
    ) -> (SimTime, Delivery<N::Msg>) {
        let (at, to, msg, is_timer) = match effect {
            Effect::Send { to, msg } => (self.schedule_send(from, to), to, msg, false),
            Effect::Timer { delay, msg } => (self.now + delay, from, msg, true),
        };
        let delivery = Delivery {
            from,
            to,
            msg,
            is_timer,
            is_external: false,
            cid,
        };
        (at, delivery)
    }

    /// Schedules the buffered effects in emission order, leaving `effects`
    /// empty (the caller hands the buffer back for reuse).
    fn schedule_effects(&mut self, from: PeerId, cid: Cid, effects: &mut Effects<N::Msg>) {
        effects.drain_each(|effect| {
            let (at, delivery) = self.delivery_of(from, cid, effect);
            self.push(at, delivery);
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
    fn step(&mut self) -> bool {
        let Some((at, seq, delivery)) = self.queue.pop() else {
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
        let Delivery {
            from,
            to,
            msg,
            is_timer,
            is_external,
            cid,
        } = delivery;
        let Some(s) = self
            .slot(to)
            .filter(|&s| seq >= self.floor[s] && self.alive[s])
        else {
            if is_timer {
                self.stats.timers_dropped += 1;
            } else {
                self.stats.messages_dropped += 1;
            }
            return true;
        };
        if is_timer {
            self.stats.timers_fired += 1;
        } else if is_external {
            self.stats.external_delivered += 1;
        } else {
            self.stats.messages_delivered += 1;
        }
        self.deliveries_by_slot[s] += 1;
        let mut out = self.scratch.take().unwrap_or_default();
        let mut ctx = Context {
            self_id: to,
            now: self.now,
            cid,
            is_timer,
            out: &mut out,
        };
        self.nodes[s].on_message(&mut ctx, from, msg);
        self.schedule_effects(to, cid, &mut out);
        self.scratch = Some(out);
        true
    }

    /// Runs the simulation until virtual time `deadline` (inclusive): every
    /// event scheduled at or before the deadline is processed, and the clock
    /// ends at exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.queue.peek().is_some_and(|at| at <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs the simulation for `d` of virtual time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn token_node(next: PeerId) -> TokenNode {
        TokenNode {
            next,
            tokens_seen: 0,
            ticks: 0,
            killed: false,
        }
    }

    fn three_node_sim() -> (Simulator<TokenNode>, PeerId, PeerId, PeerId) {
        let mut sim = Simulator::new(NetworkConfig::lan(42));
        let a = sim.add_node(|_| token_node(PeerId(1)));
        let b = sim.add_node(|_| token_node(PeerId(2)));
        let c = sim.add_node(|_| token_node(PeerId(0)));
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
        sim.run_until(SimTime::from_millis(1));
        sim.kill(b);
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
            let a = sim.add_node(|_| token_node(PeerId(1)));
            let b = sim.add_node(|_| token_node(PeerId(0)));
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
        // Running far past the last event drains the queue and stops.
        sim.run_for(Duration::from_secs(3600));
        assert_eq!(sim.stats().events_processed, 4);
        assert_eq!(sim.queue.len(), 0);
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
        assert_eq!(
            sim.nodes_iter().map(|(p, _)| p).collect::<Vec<_>>(),
            vec![a, b, c]
        );
        assert_eq!(
            sim.alive_nodes_iter().map(|(p, _)| p).collect::<Vec<_>>(),
            vec![a, c]
        );
        let mut seen = Vec::new();
        for (p, node) in sim.nodes_iter_mut() {
            assert_eq!(
                node.next.raw(),
                (p.raw() + 1) % 3,
                "each id gets its own node"
            );
            seen.push(p);
        }
        assert_eq!(seen, vec![a, b, c]);
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
        sim.revive(b, token_node(a));
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
        sim.revive(a, token_node(a));
    }

    #[test]
    fn kill_and_revive_reuse_the_same_slot() {
        let (mut sim, a, b, c) = three_node_sim();
        sim.kill(b);
        assert_eq!(sim.alive_count(), 2);
        sim.revive(b, token_node(c));
        // The revived peer keeps its id and slot: the simulator never grows
        // with churn, only with `add_node`.
        assert_eq!(sim.peers().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(sim.alive_count(), 3);
        assert!(!sim.node(b).unwrap().killed, "the slot holds the new node");
        assert_eq!(sim.add_node(|_| token_node(a)), PeerId(3));
    }

    #[test]
    fn unknown_ids_are_absent() {
        let (mut sim, a, _, _) = three_node_sim();
        for id in [PeerId(3), PeerId(1 << 40), EXTERNAL_SENDER] {
            assert!(sim.node(id).is_none(), "{id}");
            assert!(sim.node_mut(id).is_none(), "{id}");
            assert!(!sim.is_alive(id), "{id}");
            assert!(sim.with_node_ctx(id, |_, _| ()).is_none(), "{id}");
            sim.kill(id);
        }
        assert_eq!(sim.alive_count(), 3, "killing an unknown id is a no-op");
        // A message to an unknown id is dropped, not delivered anywhere.
        sim.with_node_ctx(a, |_, ctx| ctx.send(PeerId(7), TokenMsg::Token(0)));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.stats().messages_delivered, 0);
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut sim: Simulator<TokenNode> = Simulator::new(NetworkConfig::instant(1));
        let a = sim.add_node(token_node);
        let b = sim.add_node(token_node);
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
        let mut sim: Simulator<BurstNode> = Simulator::new(NetworkConfig::lan(3));
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
        assert_eq!(sim.node(b).unwrap().got, want);
        assert_eq!(sim.stats().messages_delivered, want.len() as u64);
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

    fn probe_pair() -> Simulator<CidProbe> {
        let mut sim = Simulator::new(NetworkConfig::lan(11));
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
        let mut sim = probe_pair();
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
        let mut sim = probe_pair();
        sim.send_external(PeerId(0), ProbeMsg::Fwd(0));
        sim.send_external(PeerId(1), ProbeMsg::Fwd(0));
        sim.run_for(Duration::from_secs(1));
        let a = sim.node(PeerId(0)).unwrap().seen[0].0;
        let b = sim.node(PeerId(1)).unwrap().seen[0].0;
        assert_ne!(a, b, "each injection is its own causal root");
    }

    #[test]
    fn timers_inherit_the_cid_of_the_scheduling_context() {
        let mut sim = probe_pair();
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
}
