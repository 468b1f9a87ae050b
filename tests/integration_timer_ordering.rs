//! Cross-layer timer ordering through the generic `ProtocolLayer` dispatch.
//!
//! The composed peer arms every layer's periodic timers through the same
//! [`LayerSlot`] boundary, and the simulator orders all events by
//! `(SimTime, seq)`. These tests pin down the two properties the composition
//! relies on:
//!
//! 1. timers from different layers that fire at the *same* virtual instant
//!    are delivered in the order the layers emitted them (the `seq`
//!    tie-break), so interleaved ring/datastore/replication rounds are
//!    deterministic, and
//! 2. a full `PeerNode` cluster run is bit-for-bit reproducible for a fixed
//!    seed — the refactor onto generic dispatch must not introduce any
//!    iteration-order dependence.

use std::time::Duration;

use pepper_net::{
    Context, Effects, LayerCtx, LayerSlot, NetworkConfig, Node, ProtocolLayer, SimTime, Simulator,
};
use pepper_sim::{Cluster, ClusterConfig};
use pepper_types::PeerId;

// ---------------------------------------------------------------------------
// A miniature three-layer peer built from the same composition primitives as
// the real PeerNode.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TickMsg {
    Tick,
}

#[derive(Debug)]
enum NoEvent {}

/// A layer whose only behaviour is a periodic self-timer.
#[derive(Debug)]
struct TickLayer {
    period: Duration,
    started: bool,
}

impl TickLayer {
    fn new(period: Duration) -> Self {
        TickLayer {
            period,
            started: false,
        }
    }
}

impl ProtocolLayer for TickLayer {
    type Msg = TickMsg;
    type Event = NoEvent;

    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<TickMsg>) {
        if !self.started {
            self.started = true;
            fx.timer(self.period, TickMsg::Tick);
        }
    }

    fn handle(&mut self, _ctx: LayerCtx, _from: PeerId, msg: TickMsg, fx: &mut Effects<TickMsg>) {
        match msg {
            TickMsg::Tick => fx.timer(self.period, TickMsg::Tick),
        }
    }

    fn drain_events(&mut self) -> Vec<NoEvent> {
        Vec::new()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WireMsg {
    Ring(TickMsg),
    Ds(TickMsg),
    Repl(TickMsg),
}

/// Three timer layers composed exactly like the real peer: one `LayerSlot`
/// per layer, started in a fixed order, dispatched by enum arm, each mapping
/// its effects straight into the simulator's buffer.
struct ThreeLayerNode {
    ring: LayerSlot<TickLayer, WireMsg>,
    ds: LayerSlot<TickLayer, WireMsg>,
    repl: LayerSlot<TickLayer, WireMsg>,
    fired: Vec<(SimTime, &'static str)>,
}

impl ThreeLayerNode {
    fn new(period: Duration) -> Self {
        ThreeLayerNode {
            ring: LayerSlot::new(TickLayer::new(period), WireMsg::Ring),
            ds: LayerSlot::new(TickLayer::new(period), WireMsg::Ds),
            repl: LayerSlot::new(TickLayer::new(period), WireMsg::Repl),
            fired: Vec::new(),
        }
    }

    fn start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let lctx = LayerCtx::new(ctx.self_id(), ctx.now());
        let out = ctx.effects();
        self.ring.start_timers(lctx, out);
        self.ds.start_timers(lctx, out);
        self.repl.start_timers(lctx, out);
    }
}

impl Node for ThreeLayerNode {
    type Msg = WireMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, WireMsg>, from: PeerId, msg: WireMsg) {
        let now = ctx.now();
        let lctx = LayerCtx::new(ctx.self_id(), now);
        let out = ctx.effects();
        match msg {
            WireMsg::Ring(m) => {
                self.fired.push((now, "ring"));
                self.ring.handle(lctx, from, m, out);
            }
            WireMsg::Ds(m) => {
                self.fired.push((now, "ds"));
                self.ds.handle(lctx, from, m, out);
            }
            WireMsg::Repl(m) => {
                self.fired.push((now, "repl"));
                self.repl.handle(lctx, from, m, out);
            }
        }
    }
}

fn run_three_layer(seed: u64, rounds: u32) -> Vec<(SimTime, &'static str)> {
    let period = Duration::from_millis(100);
    let mut sim: Simulator<ThreeLayerNode> = Simulator::new(NetworkConfig::instant(seed));
    let id = sim.add_node(|_| ThreeLayerNode::new(period));
    sim.with_node_ctx(id, |node, ctx| node.start(ctx));
    sim.run_for(period * rounds + Duration::from_millis(1));
    sim.node(id).unwrap().fired.clone()
}

#[test]
fn same_instant_timers_fire_in_emission_order() {
    let fired = run_three_layer(7, 10);
    assert_eq!(fired.len(), 30, "10 rounds × 3 layers");
    for (round, chunk) in fired.chunks(3).enumerate() {
        let tags: Vec<&str> = chunk.iter().map(|(_, tag)| *tag).collect();
        assert_eq!(
            tags,
            vec!["ring", "ds", "repl"],
            "round {round}: same-instant timers must fire in the order the \
             layers were started (the (SimTime, seq) tie-break)"
        );
        // All three deliveries of a round share one virtual instant.
        assert_eq!(chunk[0].0, chunk[1].0);
        assert_eq!(chunk[1].0, chunk[2].0);
    }
}

#[test]
fn interleaved_timer_schedule_is_deterministic() {
    assert_eq!(run_three_layer(42, 25), run_three_layer(42, 25));
}

// ---------------------------------------------------------------------------
// The real composed peer: a full cluster run must be reproducible.
// ---------------------------------------------------------------------------

fn cluster_trace(seed: u64) -> Vec<String> {
    let mut cluster = Cluster::new(ClusterConfig::fast(seed).with_free_peers(3));
    for k in 1..=12u64 {
        cluster.insert_key(k * 7_000_000);
        cluster.run(Duration::from_millis(50));
    }
    cluster.run_secs(4);
    let id = cluster
        .query_at(cluster.first, 10_000_000, 80_000_000)
        .unwrap();
    cluster.wait_for_query(cluster.first, id, Duration::from_secs(10));
    cluster
        .drain_observations()
        .into_iter()
        .map(|(peer, obs)| format!("{peer:?} {obs:?}"))
        .collect()
}

#[test]
fn peer_node_cluster_is_deterministic_per_seed() {
    let a = cluster_trace(1234);
    let b = cluster_trace(1234);
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical seeds must produce identical observations");
}
