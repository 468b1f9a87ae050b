//! Experiment drivers: one per figure of the paper plus the ablations.
//!
//! | Driver | Reproduces |
//! |---|---|
//! | [`insert_succ::figure_19`] | Fig. 19 — insertSucc time vs successor-list length |
//! | [`insert_succ::figure_20`] | Fig. 20 — insertSucc time vs stabilization period |
//! | [`insert_succ::figure_23`] | Fig. 23 — insertSucc time vs failure rate |
//! | [`scan_range::figure_21`] | Fig. 21 — range-scan time vs hops, scanRange vs naive |
//! | [`leave::figure_22`] | Fig. 22 — leave / leave+merge / naive-leave time vs list length |
//! | [`correctness::query_correctness`] | §4.2 ablation — incorrect query results under churn |
//! | [`correctness::load_balance`] | §2.3 ablation — storage balance under skew |
//! | [`availability::ring_availability`] | §5.1 ablation — disconnection after leave + failure |
//! | [`availability::item_availability`] | §5.2 ablation — item loss after merge + failure |
//!
//! Every driver takes an [`Effort`] so the same code serves quick smoke tests
//! (`Effort::Quick`) and the full regeneration run (`Effort::Full`).

pub mod availability;
pub mod correctness;
pub mod insert_succ;
pub mod leave;
pub mod scan_range;

use std::time::Duration;

use crate::cluster::{Cluster, ClusterConfig};
use crate::workload::{KeyDistribution, KeyGenerator};
use pepper_types::SystemConfig;

/// How much virtual time / how many samples an experiment spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced parameters for tests and CI smoke runs.
    Quick,
    /// The full parameters used to regenerate the paper's figures.
    Full,
}

impl Effort {
    /// Scales a count by the effort level.
    pub fn scale(&self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

/// Shared helper: builds a cluster with the given system configuration and
/// grows it by inserting `items` uniformly distributed keys while supplying
/// free peers, so that splits (and hence ring `insertSucc` operations) occur
/// naturally, exactly as in the paper's setup (peers arrive, items arrive,
/// overflows drive joins).
pub(crate) fn grow_cluster(
    system: SystemConfig,
    seed: u64,
    items: usize,
    item_period: Duration,
    free_peer_period: Duration,
) -> Cluster {
    let mut cluster = Cluster::new(
        ClusterConfig::paper(seed)
            .with_system(system)
            .with_free_peers(2),
    );
    let mut keys = KeyGenerator::new(
        KeyDistribution::Uniform {
            domain: u64::MAX / 2,
        },
        seed.wrapping_mul(31).wrapping_add(7),
    );
    let mut since_free = Duration::ZERO;
    for _ in 0..items {
        let key = keys.next_key();
        cluster.insert_key(key);
        cluster.run(item_period);
        since_free += item_period;
        if since_free >= free_peer_period {
            cluster.add_free_peer();
            since_free = Duration::ZERO;
        }
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Quick.scale(2, 10), 2);
        assert_eq!(Effort::Full.scale(2, 10), 10);
    }

    #[test]
    fn grow_cluster_produces_a_multi_peer_ring() {
        let mut system = SystemConfig::paper_defaults().with_storage_factor(2);
        system.stabilization_period = Duration::from_millis(200);
        system.ping_period = Duration::from_millis(100);
        system.replica_refresh_period = Duration::from_millis(300);
        system.router_refresh_period = Duration::from_millis(300);
        let mut cluster = grow_cluster(
            system,
            3,
            20,
            Duration::from_millis(100),
            Duration::from_millis(500),
        );
        // Let in-flight hand-offs settle before counting (a split that is
        // mid-hand-off briefly counts its items on both sides).
        cluster.run_secs(5);
        assert_eq!(cluster.total_items(), 20);
        assert!(cluster.ring_members().len() >= 3);
        let (consistent, connected) = cluster.check_ring();
        assert!(consistent && connected);
    }
}
