//! The uniform protocol-layer contract and the generic composition adapter.
//!
//! Every protocol layer of a PEPPER peer (fault-tolerant ring, Data Store,
//! replication manager, content router) is a pure state machine with the same
//! shape: it starts periodic timers, handles messages of its own type by
//! emitting [`Effects`], and reports facts the composed peer must react to as
//! typed *events*. [`ProtocolLayer`] captures that shape, and [`LayerSlot`]
//! owns the one place where a layer's `Effects<L::Msg>` are mapped into the
//! composed peer's unified message type — so the peer composes layers
//! generically instead of hand-wiring per-layer dispatch, effect-mapping and
//! timer fan-out.

use std::ops::{Deref, DerefMut};

use pepper_types::PeerId;

use crate::effect::{Effects, LayerCtx};

/// A protocol layer: a pure state machine driven by messages and timers.
///
/// Handlers never touch the network; they emit [`Effects`] (sends and timers
/// in the layer's own message type) and buffer [`Self::Event`]s which the
/// composed peer drains after every invocation. This uniform boundary is what
/// keeps each layer unit-testable in isolation and makes cross-layer
/// invariant checking tractable.
pub trait ProtocolLayer {
    /// The message type this layer exchanges (timers deliver the same type).
    type Msg: Clone + std::fmt::Debug;

    /// The typed events this layer reports upward (ring membership changes,
    /// data-store rebalance requests, replication refresh ticks, …).
    type Event: std::fmt::Debug;

    /// Schedules the layer's periodic timers. The composed peer calls it
    /// once per incarnation, so a layer keeps no flag to guard it; the
    /// timers re-arm themselves when they fire.
    fn start_timers(&mut self, ctx: LayerCtx, fx: &mut Effects<Self::Msg>);

    /// Handles one delivered message (or timer), emitting effects into `fx`
    /// and buffering events for [`Self::drain_events`].
    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: Self::Msg, fx: &mut Effects<Self::Msg>);

    /// Drains the events buffered since the last drain, in emission order.
    fn drain_events(&mut self) -> Vec<Self::Event>;
}

/// Owns one layer inside a composed peer, together with the *single* mapping
/// from the layer's message type into the peer's unified message type.
///
/// All effect mapping funnels through [`LayerSlot::with`]; the composed
/// peer never touches [`Effects::absorb`] itself. Read access to the
/// layer goes through `Deref`, and state mutators that emit neither effects
/// nor events can be called through `DerefMut`; anything that emits either
/// must run inside [`LayerSlot::with`] so the effects are captured and mapped
/// and the events are drained and returned — never left behind in the layer's
/// buffer to be mis-attributed to a later, unrelated invocation.
#[derive(Debug, Clone)]
pub struct LayerSlot<L: ProtocolLayer, M> {
    layer: L,
    wrap: fn(L::Msg) -> M,
}

impl<L: ProtocolLayer, M> LayerSlot<L, M> {
    /// Wraps `layer`, mapping its messages into `M` with `wrap` (typically an
    /// enum constructor like `PeerMsg::Ring`).
    pub fn new(layer: L, wrap: fn(L::Msg) -> M) -> Self {
        LayerSlot { layer, wrap }
    }

    /// Runs `f` against the layer with a fresh effect buffer, moves every
    /// emitted effect, mapped and in emission order, onto the end of `out`,
    /// and returns the closure result together with the events the
    /// invocation buffered. The fresh buffer lives on this call's stack and
    /// touches the heap only for a burst beyond its inline slots, so nothing
    /// is retained per slot between invocations. This is the one generic
    /// mapping site of a composed peer, and draining here (rather than at
    /// the call site) guarantees no event is left behind to be mis-attributed
    /// to a later, unrelated invocation.
    pub fn with<R>(
        &mut self,
        out: &mut Effects<M>,
        f: impl FnOnce(&mut L, &mut Effects<L::Msg>) -> R,
    ) -> (R, Vec<L::Event>) {
        let mut fx = Effects::new();
        let result = f(&mut self.layer, &mut fx);
        out.absorb(fx, self.wrap);
        (result, self.layer.drain_events())
    }

    /// Starts the layer's timers, mapping them into `out` and returning any
    /// events the layer buffered while doing so.
    pub fn start_timers(&mut self, ctx: LayerCtx, out: &mut Effects<M>) -> Vec<L::Event> {
        self.with(out, |layer, fx| layer.start_timers(ctx, fx)).1
    }

    /// Dispatches one message to the layer, maps its effects into `out`, and
    /// returns the events the invocation produced.
    pub fn handle(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        msg: L::Msg,
        out: &mut Effects<M>,
    ) -> Vec<L::Event> {
        self.with(out, |layer, fx| layer.handle(ctx, from, msg, fx))
            .1
    }
}

impl<L: ProtocolLayer, M> Deref for LayerSlot<L, M> {
    type Target = L;
    fn deref(&self) -> &L {
        &self.layer
    }
}

impl<L: ProtocolLayer, M> DerefMut for LayerSlot<L, M> {
    fn deref_mut(&mut self) -> &mut L {
        &mut self.layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{Effect, INLINE};
    use crate::time::SimTime;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum EchoMsg {
        Tick,
        Hello,
        /// Answered with that many numbered `Hello`s (to peers `0..n`).
        Burst(u64),
    }

    #[derive(Debug, PartialEq, Eq)]
    enum EchoEvent {
        Greeted(PeerId),
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum WireMsg {
        Echo(EchoMsg),
    }

    /// A minimal layer: re-arms a tick, greets back whoever says hello and
    /// emits bursts on request.
    #[derive(Debug, Default)]
    struct EchoLayer {
        started: bool,
        events: Vec<EchoEvent>,
    }

    impl ProtocolLayer for EchoLayer {
        type Msg = EchoMsg;
        type Event = EchoEvent;

        fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<EchoMsg>) {
            if !self.started {
                self.started = true;
                fx.timer(Duration::from_secs(1), EchoMsg::Tick);
            }
        }

        fn handle(
            &mut self,
            _ctx: LayerCtx,
            from: PeerId,
            msg: EchoMsg,
            fx: &mut Effects<EchoMsg>,
        ) {
            match msg {
                EchoMsg::Tick => fx.timer(Duration::from_secs(1), EchoMsg::Tick),
                EchoMsg::Hello => {
                    fx.send(from, EchoMsg::Hello);
                    self.events.push(EchoEvent::Greeted(from));
                }
                EchoMsg::Burst(n) => (0..n).for_each(|i| fx.send(PeerId(i), EchoMsg::Hello)),
            }
        }

        fn drain_events(&mut self) -> Vec<EchoEvent> {
            std::mem::take(&mut self.events)
        }
    }

    fn ctx() -> LayerCtx {
        LayerCtx::new(PeerId(1), SimTime::ZERO)
    }

    #[test]
    fn slot_maps_timer_effects() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        slot.start_timers(ctx(), &mut out);
        assert!(matches!(
            out.drain()[0],
            crate::effect::Effect::Timer {
                msg: WireMsg::Echo(EchoMsg::Tick),
                ..
            }
        ));
        // Idempotent through the slot too.
        slot.start_timers(ctx(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn slot_handle_maps_sends_and_returns_events() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        let events = slot.handle(ctx(), PeerId(7), EchoMsg::Hello, &mut out);
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(7))]);
        assert!(matches!(
            out.drain()[0],
            crate::effect::Effect::Send {
                to: PeerId(7),
                msg: WireMsg::Echo(EchoMsg::Hello),
            }
        ));
        // Events were drained by handle; nothing left behind.
        assert!(slot.drain_events().is_empty());
    }

    #[test]
    fn deref_exposes_layer_state() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        assert!(!slot.started);
        slot.started = true; // DerefMut for effect-free mutators
        assert!(slot.started);
    }

    #[test]
    fn with_returns_closure_result_and_drains_events() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        let (n, events) = slot.with(&mut out, |layer, fx| {
            layer.handle(ctx(), PeerId(2), EchoMsg::Hello, fx);
            fx.len()
        });
        assert_eq!(n, 1);
        assert_eq!(out.len(), 1);
        // Events buffered inside the closure come back from `with` itself;
        // nothing is left behind for a later invocation to pick up.
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(2))]);
        assert!(slot.drain_events().is_empty());
    }

    /// The destinations of the buffered sends, in buffer order.
    fn destinations(out: &Effects<WireMsg>) -> Vec<u64> {
        out.iter()
            .map(|e| match e {
                Effect::Send { to, .. } => to.raw(),
                Effect::Timer { .. } => panic!("only sends were emitted"),
            })
            .collect()
    }

    #[test]
    fn with_appends_in_emission_order_below_and_beyond_the_inline_slots() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        for n in [0, 1, INLINE as u64, 3 * INLINE as u64 + 1] {
            let mut out: Effects<WireMsg> = Effects::new();
            // `out` already holds an effect of an earlier layer call of the
            // same event; the slot appends after it.
            out.send(PeerId(100), WireMsg::Echo(EchoMsg::Tick));
            slot.handle(ctx(), PeerId(7), EchoMsg::Burst(n), &mut out);
            let mut want = vec![100];
            want.extend(0..n);
            assert_eq!(destinations(&out), want, "burst of {n}");
        }
    }

    #[test]
    fn a_reused_out_buffer_carries_nothing_into_the_next_invocation() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        // A burst that spills, drained the way the simulator schedules it …
        slot.handle(
            ctx(),
            PeerId(7),
            EchoMsg::Burst(3 * INLINE as u64),
            &mut out,
        );
        let mut scheduled = 0;
        out.drain_each(|_| scheduled += 1);
        assert_eq!(scheduled, 3 * INLINE);
        // … then invocations that emit nothing: an empty burst, and
        // `start_timers` returning early on its second call.
        slot.handle(ctx(), PeerId(7), EchoMsg::Burst(0), &mut out);
        assert!(out.is_empty());
        slot.start_timers(ctx(), &mut out);
        assert_eq!(out.drain().len(), 1, "first start arms the tick");
        slot.start_timers(ctx(), &mut out);
        assert!(out.is_empty(), "early return emits nothing, old or new");
        // And one that emits a single effect gets exactly that one.
        slot.handle(ctx(), PeerId(9), EchoMsg::Hello, &mut out);
        assert_eq!(destinations(&out), vec![9]);
    }
}
