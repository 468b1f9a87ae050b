//! System-wide configuration.
//!
//! [`SystemConfig`] is the one configuration of a peer. It collects the
//! tunables the paper sweeps in its evaluation (Section 6.1): successor list
//! length, ring stabilization period, storage factor, replication factor.
//! The defaults are exactly the paper's defaults. Every layer (ring, Data
//! Store, replication, router) is built from it and keeps it, and every
//! timeout derived from it is one of its methods.
//!
//! [`Protocol`] selects the paper's *PEPPER* algorithms or the *naive*
//! baselines, so every experiment can run both sides over identical
//! workloads.

use std::time::Duration;

use crate::key::KeyMap;

/// Protocol variant selection: PEPPER (the paper's algorithms) vs the naive
/// baselines it compares against in Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The paper's system: the consistent `insertSucc` (JOINING entries
    /// propagated by stabilization), the `scanRange` primitive (hand-over-hand
    /// range locks), the availability-preserving `leave` (successor-list
    /// lengthening) and the leaver's extra-hop replication.
    #[default]
    Pepper,
    /// The naive baselines, with no correctness or availability guarantee:
    /// the new peer just points at its successor, the scan is a lock-free
    /// application-level ring walk, a leaver just leaves and drops its
    /// replicas.
    Naive,
}

/// System parameters, with the paper's defaults (Section 6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Length `d` of the Chord-style successor list (paper default: 4, swept
    /// 2–8 in Figures 19 and 22).
    pub succ_list_len: usize,
    /// Ring stabilization period (paper default: 4 s, swept 2–8 s in
    /// Figure 20): the one clock of every periodic loop. The replica
    /// refresh and the router's maintenance tick run at this period, the
    /// successor ping at half of it ([`SystemConfig::ping_period`]).
    pub stabilization_period: Duration,
    /// Storage factor `sf` of the P-Ring Data Store: a live peer holds
    /// between `sf` and `2·sf` items (paper default: 5).
    pub storage_factor: usize,
    /// Replication factor `k` of the Replication Manager (paper default: 6).
    pub replication_factor: usize,
    /// The map `M : K -> PV` used by the Data Store (the identity).
    pub key_map: KeyMap,
    /// PEPPER or the naive baselines.
    pub protocol: Protocol,
}

impl SystemConfig {
    /// The paper's default configuration with PEPPER protocols enabled.
    pub fn paper_defaults() -> Self {
        SystemConfig {
            succ_list_len: 4,
            stabilization_period: Duration::from_secs(4),
            storage_factor: 5,
            replication_factor: 6,
            key_map: KeyMap,
            protocol: Protocol::Pepper,
        }
    }

    /// The paper's configuration shrunk so tests and the fault-injection
    /// harness finish quickly: `sf` 2, `k` 2 and a 200 ms stabilization
    /// period (so a 100 ms ping, and 200 ms replica and router rounds).
    /// Protocol semantics are unchanged.
    pub fn fast() -> Self {
        SystemConfig {
            stabilization_period: Duration::from_millis(200),
            storage_factor: 2,
            replication_factor: 2,
            ..SystemConfig::paper_defaults()
        }
    }

    /// Builder-style override of the successor list length.
    pub fn with_succ_list_len(mut self, len: usize) -> Self {
        self.succ_list_len = len;
        self
    }

    /// Builder-style override of the stabilization period.
    pub fn with_stabilization_period(mut self, period: Duration) -> Self {
        self.stabilization_period = period;
        self
    }

    /// Builder-style override of the storage factor.
    pub fn with_storage_factor(mut self, sf: usize) -> Self {
        self.storage_factor = sf;
        self
    }

    /// Builder-style override of the replication factor.
    pub fn with_replication_factor(mut self, k: usize) -> Self {
        self.replication_factor = k;
        self
    }

    /// Builder-style override of the protocol selection.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Maximum number of items a live peer may hold (`2·sf`).
    pub fn overflow_threshold(&self) -> usize {
        self.storage_factor * 2
    }

    /// Minimum number of items a live peer should hold (`sf`).
    pub fn underflow_threshold(&self) -> usize {
        self.storage_factor
    }

    /// Period of the successor ping / failure detection loop: half the
    /// stabilization period.
    pub fn ping_period(&self) -> Duration {
        self.stabilization_period / 2
    }

    /// How long the ring waits for a ping reply before declaring the
    /// successor failed: a quarter of the ping period, at least 20 ms, so
    /// failure detection keeps working when experiments shrink the periods.
    pub fn ping_timeout(&self) -> Duration {
        (self.ping_period() / 4).max(Duration::from_millis(20))
    }

    /// How long an `insertSucc` may stay in flight before it is aborted. A
    /// joining free peer cannot be ping-probed (it is not a member yet), so
    /// this guard is the only way out when it fail-stops mid-join. A join
    /// normally completes within one or two stabilization rounds; well
    /// beyond that, the joining peer is assumed dead.
    pub fn insert_timeout(&self) -> Duration {
        self.stabilization_period * 6 + Duration::from_secs(1)
    }

    /// How long a scan waits for the successor to acknowledge its hand-off
    /// before retrying. Tied to the ping period: a scan forwarded to a peer
    /// that has just departed is retried once the ring's failure/departure
    /// detection has had a chance to update the cached successor, so the
    /// retry actually reaches a different peer.
    pub fn scan_forward_timeout(&self) -> Duration {
        self.ping_period().max(Duration::from_millis(500))
    }

    /// How long a peer waits on its ring predecessor, whose failure the ping
    /// loop never reports: a giver for the acknowledgement of a grant, a
    /// leaver for the answer to its leave offer. A leaver needs one
    /// extra-hop replication round plus a ring leave, itself bounded by
    /// stabilization rounds, before granting.
    pub fn predecessor_reply_timeout(&self) -> Duration {
        self.stabilization_period * 4 + Duration::from_secs(2)
    }

    /// Safety-net deadline after which an unfinished query is finalized with
    /// whatever has been collected.
    pub fn query_timeout(&self) -> Duration {
        self.scan_forward_timeout() * 4 + Duration::from_secs(30)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6_1() {
        let c = SystemConfig::paper_defaults();
        assert_eq!(c.succ_list_len, 4);
        assert_eq!(c.stabilization_period, Duration::from_secs(4));
        assert_eq!(c.storage_factor, 5);
        assert_eq!(c.replication_factor, 6);
        assert_eq!(c.overflow_threshold(), 10);
        assert_eq!(c.underflow_threshold(), 5);
        assert_eq!(c.protocol, Protocol::Pepper);
    }

    #[test]
    fn derived_timeouts_follow_the_periods() {
        let ms = Duration::from_millis;
        let timeouts = |c: SystemConfig| {
            [
                c.ping_timeout(),
                c.insert_timeout(),
                c.scan_forward_timeout(),
                c.predecessor_reply_timeout(),
                c.query_timeout(),
            ]
        };
        assert_eq!(
            timeouts(SystemConfig::paper_defaults()),
            [ms(500), ms(25_000), ms(2_000), ms(18_000), ms(38_000)]
        );
        assert_eq!(
            timeouts(SystemConfig::fast()),
            [ms(25), ms(2_200), ms(500), ms(2_800), ms(32_000)]
        );
        // PEPPER is the default, and the (exhaustive) match says naive is the
        // only other protocol.
        assert_eq!(Protocol::default(), Protocol::Pepper);
        let non_default = |p| match p {
            Protocol::Pepper => false,
            Protocol::Naive => true,
        };
        assert!(non_default(Protocol::Naive));
    }

    #[test]
    fn derived_from_system_config() {
        // The ring reads the successor list length, the period and the
        // protocol straight from the system config, and its ping and
        // timeouts follow an overridden stabilization period.
        let c = SystemConfig::paper_defaults()
            .with_succ_list_len(6)
            .with_stabilization_period(Duration::from_secs(2));
        assert_eq!(c.succ_list_len, 6);
        assert_eq!(c.stabilization_period, Duration::from_secs(2));
        assert_eq!(c.ping_period(), Duration::from_secs(1));
        assert_eq!(c.ping_timeout(), Duration::from_millis(250));
        assert_eq!(c.insert_timeout(), Duration::from_secs(13));
        assert_eq!(c.predecessor_reply_timeout(), Duration::from_secs(10));
        assert_eq!(c.protocol, Protocol::Pepper);
    }

    #[test]
    fn derived_from_system() {
        // The Data Store's thresholds follow the storage factor; its scan and
        // query timeouts follow the ping period, with a 500 ms floor.
        let c = SystemConfig::paper_defaults().with_storage_factor(7);
        assert_eq!(c.storage_factor, 7);
        assert_eq!(c.overflow_threshold(), 14);
        assert_eq!(c.underflow_threshold(), 7);
        assert_eq!(c.protocol, Protocol::Pepper);
        let slow_ping = c.clone().with_stabilization_period(Duration::from_secs(6));
        assert_eq!(slow_ping.ping_period(), Duration::from_secs(3));
        assert_eq!(slow_ping.scan_forward_timeout(), Duration::from_secs(3));
        assert_eq!(slow_ping.query_timeout(), Duration::from_secs(42));
        let quick_ping = c.with_stabilization_period(Duration::from_millis(80));
        assert_eq!(quick_ping.ping_period(), Duration::from_millis(40));
        assert_eq!(
            quick_ping.scan_forward_timeout(),
            Duration::from_millis(500)
        );
        assert_eq!(quick_ping.ping_timeout(), Duration::from_millis(20));
    }

    #[test]
    fn naive_defaults_disable_all_mechanisms() {
        // One switch selects every naive baseline; other parameters and the
        // timeouts derived from them are untouched.
        let pepper = SystemConfig::paper_defaults();
        let naive = pepper.clone().with_protocol(Protocol::Naive);
        assert_eq!(naive.protocol, Protocol::Naive);
        assert_ne!(naive, pepper);
        assert_eq!(
            SystemConfig {
                protocol: Protocol::Pepper,
                ..naive.clone()
            },
            pepper
        );
        assert_eq!(naive.succ_list_len, 4);
        assert_eq!(naive.insert_timeout(), pepper.insert_timeout());
        assert_eq!(naive.query_timeout(), pepper.query_timeout());
    }

    #[test]
    fn builders_override_single_fields() {
        let c = SystemConfig::paper_defaults()
            .with_succ_list_len(8)
            .with_storage_factor(1)
            .with_replication_factor(2)
            .with_stabilization_period(Duration::from_secs(2));
        assert_eq!(c.succ_list_len, 8);
        assert_eq!(c.storage_factor, 1);
        assert_eq!(c.replication_factor, 2);
        assert_eq!(c.stabilization_period, Duration::from_secs(2));
        assert_eq!(c.overflow_threshold(), 2);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper_defaults());
    }
}
