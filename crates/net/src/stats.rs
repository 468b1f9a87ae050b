//! Network statistics counters.

/// Counters maintained by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by peers.
    pub messages_sent: u64,
    /// Messages actually delivered to a live peer.
    pub messages_delivered: u64,
    /// Messages dropped because the destination was dead or removed.
    pub messages_dropped: u64,
    /// Timer events that fired on a live peer.
    pub timers_fired: u64,
    /// Timer events dropped because the peer died before they fired.
    pub timers_dropped: u64,
    /// External (harness-injected) messages delivered.
    pub external_delivered: u64,
    /// Queue pops processed by `Simulator::run_until` (deliveries and drops
    /// alike) — the denominator for events/sec throughput.
    pub events_processed: u64,
    /// Highest number of simultaneously queued events seen (RSS proxy:
    /// each queued event holds one message).
    pub peak_queue_depth: u64,
    /// Highest number of simultaneously tracked (sender, receiver) FIFO
    /// channels (RSS proxy for the per-pair ordering map).
    pub peak_fifo_channels: u64,
}

impl NetStats {
    /// Total events processed (delivered messages + timers + external).
    pub fn total_events(&self) -> u64 {
        self.messages_delivered + self.timers_fired + self.external_delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = NetStats {
            messages_sent: 10,
            messages_delivered: 8,
            messages_dropped: 2,
            timers_fired: 5,
            timers_dropped: 1,
            external_delivered: 3,
            ..NetStats::default()
        };
        assert_eq!(s.total_events(), 16);
        assert_eq!(NetStats::default().total_events(), 0);
    }
}
