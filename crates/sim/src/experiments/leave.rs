//! Figure 22: the cost of the availability-preserving `leave`.
//!
//! A ring is grown, then items are deleted so that peers underflow, merge
//! with their successors, and the merged-away peers leave the ring. Three
//! durations are measured, as in the paper: the ring `leave` alone, the full
//! merge (leave + replicate-to-additional-hop + range/item hand-off), and
//! the naive leave (which simply departs).

use std::time::Duration;

use pepper_index::Observation;
use pepper_types::{Protocol, SystemConfig};

use crate::metrics::{mean_secs, Table};

use super::{grow_cluster, Effort};

/// Durations collected from one leave/merge measurement run.
#[derive(Debug, Clone)]
pub struct LeaveMeasurement {
    /// Ring `leave` durations.
    pub leave: Vec<Duration>,
    /// Full merge durations (leave + extra-hop replication + hand-off).
    pub merge: Vec<Duration>,
}

/// Grows a cluster, then deletes items to force merges and collects the
/// leave / merge durations.
pub fn measure_leave(system: SystemConfig, seed: u64, items: usize) -> LeaveMeasurement {
    let mut cluster = grow_cluster(
        system,
        seed,
        items,
        Duration::from_millis(200),
        Duration::from_secs(2),
    );
    cluster.run_secs(10);
    // Delete most of the items, youngest region first, to drive underflows.
    let keys: Vec<u64> = cluster.stored_keys().into_iter().collect();
    let issuer = cluster.first;
    for key in keys.iter().rev().take(keys.len().saturating_sub(2)) {
        cluster.delete_key_at(issuer, *key);
        cluster.run(Duration::from_millis(300));
    }
    cluster.run_secs(30);

    let mut leave = Vec::new();
    let mut merge = Vec::new();
    for (_, obs) in cluster.drain_observations() {
        match obs {
            Observation::LeaveCompleted { elapsed } => leave.push(elapsed),
            Observation::MergeCompleted { elapsed } => merge.push(elapsed),
            _ => {}
        }
    }
    LeaveMeasurement { leave, merge }
}

/// Figure 22: leave / leave+merge / naive-leave time vs successor-list
/// length. Times are reported in **milliseconds** (the paper plots this on a
/// log scale; naive leave is essentially instantaneous).
pub fn figure_22(effort: Effort, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 22: overhead of leave (milliseconds)",
        &[
            "succ_list_len",
            "leave_ring_plus_merge_ms",
            "leave_ring_ms",
            "naive_leave_ms",
        ],
    );
    let items = effort.scale(24, 60);
    let lengths: Vec<usize> = match effort {
        Effort::Quick => vec![2, 4],
        Effort::Full => (2..=8).collect(),
    };
    for d in lengths {
        let pepper = measure_leave(
            SystemConfig::paper_defaults().with_succ_list_len(d),
            seed,
            items,
        );
        let naive = measure_leave(
            SystemConfig::paper_defaults()
                .with_succ_list_len(d)
                .with_protocol(Protocol::Naive),
            seed,
            items,
        );
        // Naive leave completes locally; clamp to the per-message processing
        // cost so the log-scale comparison stays meaningful.
        let naive_ms = (mean_secs(&naive.leave) * 1e3).max(0.05);
        table.push_row(vec![
            d as f64,
            mean_secs(&pepper.merge) * 1e3,
            mean_secs(&pepper.leave) * 1e3,
            naive_ms,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_happen_and_pepper_leave_costs_more_than_naive() {
        let seed = 27;
        let pepper = measure_leave(SystemConfig::paper_defaults(), seed, 24);
        let naive = measure_leave(
            SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
            seed,
            24,
        );
        assert!(
            !pepper.leave.is_empty(),
            "expected at least one merge/leave"
        );
        assert!(!naive.leave.is_empty());
        let leave = mean_secs(&pepper.leave);
        // The availability-preserving leave must wait for its predecessors to
        // lengthen their lists, so it costs measurably more than the naive
        // instant departure…
        assert!(leave > mean_secs(&naive.leave));
        // …but stays far below the stabilization period thanks to the
        // proactive propagation (the paper reports ~100 ms).
        assert!(leave < 2.0, "leave mean = {leave}");
        // The full merge includes the leave.
        assert!(mean_secs(&pepper.merge) >= leave);
    }

    #[test]
    fn figure_22_quick_orders_the_three_curves() {
        let t = figure_22(Effort::Quick, 29);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let (merge, leave, naive) = (row[1], row[2], row[3]);
            assert!(merge >= leave, "merge {merge} must include leave {leave}");
            assert!(leave > naive, "leave {leave} must exceed naive {naive}");
        }
    }
}
