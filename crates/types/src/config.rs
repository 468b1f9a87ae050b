//! System-wide configuration.
//!
//! [`SystemConfig`] collects the tunables the paper sweeps in its evaluation
//! (Section 6.1): successor list length, ring stabilization period, storage
//! factor, replication factor, and the workload arrival rates. The defaults
//! are exactly the paper's defaults.
//!
//! [`ProtocolConfig`] selects, per mechanism, whether the *naive* baseline or
//! the paper's *PEPPER* algorithm is used, so every experiment can run both
//! sides over identical workloads.

use std::time::Duration;

use crate::key::KeyMap;

/// Protocol variant selection: PEPPER (the paper's algorithms) vs the naive
/// baselines it compares against in Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Use the consistent `insertSucc` (JOINING/JOINED states propagated via
    /// stabilization) instead of the naive "just point at your successor".
    pub pepper_insert_succ: bool,
    /// Use the `scanRange` primitive (hand-over-hand range locks) instead of
    /// the naive application-level ring scan.
    pub pepper_scan: bool,
    /// Use the availability-preserving `leave` (successor-list lengthening)
    /// instead of the naive "just leave".
    pub pepper_leave: bool,
    /// Replicate the leaving peer's items one additional hop before a merge
    /// completes, instead of dropping its replicas.
    pub extra_hop_replication: bool,
}

impl ProtocolConfig {
    /// All four PEPPER mechanisms enabled (the paper's system).
    pub const fn pepper() -> Self {
        ProtocolConfig {
            pepper_insert_succ: true,
            pepper_scan: true,
            pepper_leave: true,
            extra_hop_replication: true,
        }
    }

    /// All four naive baselines (no correctness / availability guarantees).
    pub const fn naive() -> Self {
        ProtocolConfig {
            pepper_insert_succ: false,
            pepper_scan: false,
            pepper_leave: false,
            extra_hop_replication: false,
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::pepper()
    }
}

/// System parameters, with the paper's defaults (Section 6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Length of the Chord-style successor list (paper default: 4, swept 2–8
    /// in Figures 19 and 22).
    pub succ_list_len: usize,
    /// Ring stabilization period (paper default: 4 s, swept 2–8 s in
    /// Figure 20).
    pub stabilization_period: Duration,
    /// Period of the successor ping / failure detection loop.
    pub ping_period: Duration,
    /// Storage factor `sf` of the P-Ring Data Store: a live peer holds
    /// between `sf` and `2·sf` items (paper default: 5).
    pub storage_factor: usize,
    /// Replication factor `k` of the Replication Manager (paper default: 6).
    pub replication_factor: usize,
    /// Period of the replica refresh loop.
    pub replica_refresh_period: Duration,
    /// Period of the content-router maintenance loop.
    pub router_refresh_period: Duration,
    /// Period of the durable-storage snapshot loop (WAL compaction). Only
    /// meaningful for peers running with a storage engine attached; not a
    /// paper parameter.
    pub snapshot_period: Duration,
    /// The map `M : K -> PV` used by the Data Store.
    pub key_map: KeyMap,
    /// Protocol variant selection (PEPPER vs naive baselines).
    pub protocol: ProtocolConfig,
}

impl SystemConfig {
    /// The paper's default configuration with PEPPER protocols enabled.
    pub fn paper_defaults() -> Self {
        SystemConfig {
            succ_list_len: 4,
            stabilization_period: Duration::from_secs(4),
            ping_period: Duration::from_secs(2),
            storage_factor: 5,
            replication_factor: 6,
            replica_refresh_period: Duration::from_secs(4),
            router_refresh_period: Duration::from_secs(4),
            snapshot_period: Duration::from_secs(10),
            key_map: KeyMap::order_preserving(),
            protocol: ProtocolConfig::pepper(),
        }
    }

    /// The paper's default configuration with the naive baselines enabled.
    pub fn naive_defaults() -> Self {
        SystemConfig {
            protocol: ProtocolConfig::naive(),
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
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
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
        assert_eq!(c.protocol, ProtocolConfig::pepper());
    }

    #[test]
    fn naive_defaults_disable_all_mechanisms() {
        let c = SystemConfig::naive_defaults();
        assert!(!c.protocol.pepper_insert_succ);
        assert!(!c.protocol.pepper_scan);
        assert!(!c.protocol.pepper_leave);
        assert!(!c.protocol.extra_hop_replication);
        // Other parameters are untouched.
        assert_eq!(c.succ_list_len, 4);
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
        assert_eq!(ProtocolConfig::default(), ProtocolConfig::pepper());
    }
}
