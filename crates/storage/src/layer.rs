//! The storage protocol layer: the periodic snapshot timer.
//!
//! Storage is wired into the composed peer as a fifth [`ProtocolLayer`]
//! (exactly following ARCHITECTURE.md's recipe): a pure state machine whose
//! only job is to tick. The actual snapshot needs the Data Store's items,
//! the replication manager's holdings and the [`PeerStorage`] engine — all
//! cross-layer state — so, like the replication refresh, the tick surfaces
//! as an event ([`StorageEvent::SnapshotDue`]) that the composed peer
//! answers.
//!
//! [`PeerStorage`]: crate::PeerStorage

use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer};
use pepper_types::PeerId;

/// Period of the snapshot tick (WAL compaction). Only meaningful for peers
/// running with a storage engine attached; not a paper parameter.
const SNAPSHOT_PERIOD: Duration = Duration::from_secs(10);

/// Storage-layer messages (timers only; the layer has no wire traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMsg {
    /// The periodic snapshot tick.
    SnapshotTick,
}

impl StorageMsg {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            StorageMsg::SnapshotTick => "SnapshotTick",
        }
    }
}

/// Events surfaced to the composed peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageEvent {
    /// A snapshot should be considered now (the composed peer decides
    /// whether enough WAL records accumulated to make one worthwhile).
    SnapshotDue,
}

impl StorageEvent {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            StorageEvent::SnapshotDue => "SnapshotDue",
        }
    }
}

/// The storage layer state machine, ticking every `SNAPSHOT_PERIOD`.
#[derive(Debug, Clone, Default)]
pub struct StorageLayer {
    timers_started: bool,
    events: Vec<StorageEvent>,
}

impl ProtocolLayer for StorageLayer {
    type Msg = StorageMsg;
    type Event = StorageEvent;

    /// Schedules the periodic snapshot timer. Idempotent; staggered per
    /// peer so a cluster does not snapshot in lockstep.
    fn start_timers(&mut self, ctx: LayerCtx, fx: &mut Effects<StorageMsg>) {
        if self.timers_started {
            return;
        }
        self.timers_started = true;
        let stagger = Duration::from_micros((ctx.self_id.raw() % 83) * 270);
        fx.timer(SNAPSHOT_PERIOD / 2 + stagger, StorageMsg::SnapshotTick);
    }

    fn handle(
        &mut self,
        _ctx: LayerCtx,
        _from: PeerId,
        msg: StorageMsg,
        fx: &mut Effects<StorageMsg>,
    ) {
        match msg {
            StorageMsg::SnapshotTick => {
                fx.timer(SNAPSHOT_PERIOD, StorageMsg::SnapshotTick);
                self.events.push(StorageEvent::SnapshotDue);
            }
        }
    }

    fn drain_events(&mut self) -> Vec<StorageEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::{Effect, SimTime};

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    #[test]
    fn timers_start_once() {
        let mut layer = StorageLayer::default();
        let mut fx = Effects::new();
        layer.start_timers(ctx(1), &mut fx);
        layer.start_timers(ctx(1), &mut fx);
        assert_eq!(fx.len(), 1);
    }

    #[test]
    fn tick_rearms_and_reports_due() {
        let mut layer = StorageLayer::default();
        let mut fx = Effects::new();
        ProtocolLayer::handle(
            &mut layer,
            ctx(1),
            PeerId(1),
            StorageMsg::SnapshotTick,
            &mut fx,
        );
        assert_eq!(layer.drain_events(), vec![StorageEvent::SnapshotDue]);
        assert!(layer.drain_events().is_empty());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: StorageMsg::SnapshotTick,
                ..
            }
        )));
    }
}
