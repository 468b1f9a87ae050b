//! Effects emitted by protocol state machines.
//!
//! Every protocol layer in this workspace is written as a state machine whose
//! handlers never touch the network directly: they push [`Effect`]s into an
//! [`Effects`] buffer. The composed peer maps each layer's effects into its
//! own unified message type (see [`Effects::absorb`]), writing them straight
//! into the buffer of the simulator's [`Context`](crate::sim::Context). This
//! keeps every protocol unit-testable in isolation.

use std::time::Duration;

use pepper_types::PeerId;

use crate::time::SimTime;

/// The immutable per-invocation context handed to a layer handler.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// The peer on which the handler runs.
    pub self_id: PeerId,
    /// Current virtual time.
    pub now: SimTime,
}

impl LayerCtx {
    /// Creates a layer context.
    pub fn new(self_id: PeerId, now: SimTime) -> Self {
        LayerCtx { self_id, now }
    }
}

/// A single side effect requested by a protocol handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `msg` to peer `to` (delivered after the network latency).
    Send {
        /// Destination peer.
        to: PeerId,
        /// The message to deliver.
        msg: M,
    },
    /// Deliver `msg` back to the emitting peer after `delay`.
    Timer {
        /// How long to wait before the timer fires.
        delay: Duration,
        /// The message delivered to the peer itself when the timer fires.
        msg: M,
    },
}

impl<M> Effect<M> {
    /// Maps the message type of the effect.
    pub fn map<N>(self, f: &mut impl FnMut(M) -> N) -> Effect<N> {
        match self {
            Effect::Send { to, msg } => Effect::Send { to, msg: f(msg) },
            Effect::Timer { delay, msg } => Effect::Timer { delay, msg: f(msg) },
        }
    }
}

/// How many effects an [`Effects`] buffer holds inline before it spills to
/// the heap. Maintenance handlers emit one to three (a reply; a ping, its
/// guard timer and the re-armed tick); only bursts such as the router's
/// one-probe-per-level tick go beyond.
pub(crate) const INLINE: usize = 4;

/// An ordered buffer of effects produced by one handler invocation.
///
/// The first four effects live in the buffer itself, so a buffer
/// created on the stack for one handler call (as [`LayerSlot::with`] does)
/// costs no heap allocation in the common case, and a long-lived buffer (the
/// simulator's) keeps its spill capacity across uses.
///
/// [`LayerSlot::with`]: crate::layer::LayerSlot::with
#[derive(Clone, PartialEq, Eq)]
pub struct Effects<M> {
    /// `inline[..inline_len]` are `Some`, the rest `None`.
    inline: [Option<Effect<M>>; INLINE],
    inline_len: usize,
    /// Everything emitted after the inline slots filled up.
    spill: Vec<Effect<M>>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            inline: std::array::from_fn(|_| None),
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl<M: std::fmt::Debug> std::fmt::Debug for Effects<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<M> Effects<M> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn push(&mut self, effect: Effect<M>) {
        if self.inline_len < INLINE {
            self.inline[self.inline_len] = Some(effect);
            self.inline_len += 1;
        } else {
            self.spill.push(effect);
        }
    }

    /// Requests that `msg` be sent to `to`.
    #[inline]
    pub fn send(&mut self, to: PeerId, msg: M) {
        self.push(Effect::Send { to, msg });
    }

    /// Requests a timer: `msg` is delivered to the emitting peer after
    /// `delay`.
    #[inline]
    pub fn timer(&mut self, delay: Duration, msg: M) {
        self.push(Effect::Timer { delay, msg });
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Returns `true` when no effects were emitted.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Moves every buffered effect into `f` in emission order, leaving the
    /// buffer empty with its spill capacity intact.
    #[inline]
    pub(crate) fn drain_each(&mut self, mut f: impl FnMut(Effect<M>)) {
        for slot in &mut self.inline[..self.inline_len] {
            f(slot.take().expect("slots below inline_len are occupied"));
        }
        self.inline_len = 0;
        self.spill.drain(..).for_each(f);
    }

    /// Drains the buffered effects.
    pub fn drain(&mut self) -> Vec<Effect<M>> {
        let mut drained = Vec::with_capacity(self.len());
        self.drain_each(|effect| drained.push(effect));
        drained
    }

    /// Iterates over the buffered effects.
    pub fn iter(&self) -> impl Iterator<Item = &Effect<M>> {
        self.inline.iter().flatten().chain(&self.spill)
    }

    /// Appends all effects from `other` (after mapping) to `self`.
    #[inline]
    pub fn absorb<N>(&mut self, mut other: Effects<N>, mut f: impl FnMut(N) -> M) {
        other.drain_each(|effect| self.push(effect.map(&mut f)));
    }
}

impl<M> IntoIterator for Effects<M> {
    type Item = Effect<M>;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<Effect<M>>, INLINE>>,
        std::vec::IntoIter<Effect<M>>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Low {
        Ping,
        Pong,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum High {
        Low(Low),
    }

    #[test]
    fn buffer_collects_in_order() {
        let mut fx: Effects<Low> = Effects::new();
        assert!(fx.is_empty());
        fx.send(PeerId(2), Low::Ping);
        fx.timer(Duration::from_secs(1), Low::Pong);
        assert_eq!(fx.len(), 2);
        let drained = fx.drain();
        assert_eq!(
            drained[0],
            Effect::Send {
                to: PeerId(2),
                msg: Low::Ping
            }
        );
        assert!(
            matches!(drained[1], Effect::Timer { delay, .. } if delay == Duration::from_secs(1))
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn absorb_merges_layer_effects() {
        let mut low: Effects<Low> = Effects::new();
        low.send(PeerId(3), Low::Pong);
        let mut high: Effects<High> = Effects::new();
        high.absorb(low, High::Low);
        assert_eq!(
            high.drain(),
            vec![Effect::Send {
                to: PeerId(3),
                msg: High::Low(Low::Pong)
            }]
        );
    }

    /// `n` sends to peers `0..n`: the destination doubles as the emission
    /// index.
    fn numbered(n: u64) -> Effects<Low> {
        let mut fx = Effects::new();
        for i in 0..n {
            fx.send(PeerId(i), Low::Ping);
        }
        fx
    }

    fn destinations<'a, M: 'a>(effects: impl IntoIterator<Item = &'a Effect<M>>) -> Vec<u64> {
        effects
            .into_iter()
            .map(|e| match e {
                Effect::Send { to, .. } => to.raw(),
                Effect::Timer { .. } => panic!("only sends were emitted"),
            })
            .collect()
    }

    #[test]
    fn order_survives_the_spill_to_the_heap() {
        // Empty, within the inline slots, exactly full, and well past them.
        for n in [0, 1, INLINE as u64, INLINE as u64 + 1, 3 * INLINE as u64] {
            let want: Vec<u64> = (0..n).collect();
            let fx = numbered(n);
            assert_eq!(fx.len() as u64, n);
            assert_eq!(fx.is_empty(), n == 0);
            assert_eq!(destinations(fx.iter()), want, "iter, n = {n}");
            assert_eq!(destinations(&fx.clone().drain()), want, "drain, n = {n}");
            let owned: Vec<Effect<Low>> = fx.clone().into_iter().collect();
            assert_eq!(destinations(&owned), want, "into_iter, n = {n}");
            // Absorbing appends after what the target already holds, whether
            // that sits inline or has spilled.
            let mut high: Effects<High> = Effects::new();
            high.send(PeerId(100), High::Low(Low::Pong));
            high.absorb(fx, High::Low);
            let mut appended = vec![100];
            appended.extend(&want);
            assert_eq!(destinations(high.iter()), appended, "absorb, n = {n}");
        }
    }

    #[test]
    fn a_drained_buffer_is_empty_and_reusable() {
        let mut fx = numbered(3 * INLINE as u64);
        assert_eq!(fx.drain().len(), 3 * INLINE);
        assert!(fx.is_empty());
        assert_eq!(fx.len(), 0);
        assert_eq!(fx.iter().count(), 0);
        assert_eq!(fx, Effects::new(), "nothing of the first use is left");
        fx.timer(Duration::from_secs(1), Low::Pong);
        assert_eq!(
            fx.drain(),
            vec![Effect::Timer {
                delay: Duration::from_secs(1),
                msg: Low::Pong
            }]
        );
    }

    #[test]
    fn layer_ctx_carries_identity_and_time() {
        let ctx = LayerCtx::new(PeerId(9), SimTime::from_secs(3));
        assert_eq!(ctx.self_id, PeerId(9));
        assert_eq!(ctx.now, SimTime::from_secs(3));
    }
}
