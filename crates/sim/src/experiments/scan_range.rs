//! Figure 21: the cost of `scanRange` vs the naive application-level scan.
//!
//! A ring is grown to a couple of dozen live peers, then range queries whose
//! spans cover 0, 1, 2, … consecutive peers are issued *at the peer owning
//! the query's lower bound* (so that, as in the paper, the measurement
//! isolates the scan along the ring from the content-router lookup). The
//! elapsed virtual time is averaged per hop count, for the PEPPER `scanRange`
//! and the naive scan.

use std::time::Duration;

use pepper_types::{Protocol, SystemConfig};

use crate::cluster::Cluster;
use crate::metrics::{mean_secs, Table};

use super::{grow_cluster, Effort};

/// Grows a cluster and measures mean scan time per hop count.
/// Returns `(hops, mean_seconds)` pairs for hop counts `0..=max_hops`.
pub fn measure_scan_times(
    system: SystemConfig,
    seed: u64,
    items: usize,
    max_hops: usize,
) -> Vec<(usize, f64)> {
    let mut cluster = grow_cluster(
        system,
        seed,
        items,
        Duration::from_millis(200),
        Duration::from_secs(2),
    );
    cluster.run_secs(20); // let the ring and router settle

    let mut out = Vec::new();
    for hops in 0..=max_hops {
        let samples = scan_samples(&mut cluster, hops, 5);
        if !samples.is_empty() {
            out.push((hops, mean_secs(&samples)));
        }
    }
    out
}

/// Issues `repeats` queries spanning exactly `hops + 1` consecutive peers and
/// returns their elapsed times.
fn scan_samples(cluster: &mut Cluster, hops: usize, repeats: usize) -> Vec<Duration> {
    let mut samples = Vec::new();
    for attempt in 0..repeats {
        // Order the live members by the upper end of their ranges so that
        // consecutive entries are ring-adjacent.
        let mut members: Vec<_> = cluster
            .ring_members()
            .into_iter()
            .filter(|p| !cluster.node(*p).unwrap().data_store().range().is_empty())
            .collect();
        if members.len() < hops + 1 {
            break;
        }
        members.sort_by_key(|p| cluster.node(*p).unwrap().data_store().range().high());
        // Start at a rotating position; never let the span wrap past the end
        // of the sorted list (the wrap-around range complicates the linear
        // query interval).
        let max_start = members.len() - (hops + 1);
        let start_idx = attempt % (max_start + 1);
        let first = members[start_idx];
        let last = members[start_idx + hops];
        let first_range = cluster.node(first).unwrap().data_store().range();
        let last_range = cluster.node(last).unwrap().data_store().range();
        if first_range.wraps() || last_range.wraps() {
            continue;
        }
        let lb = first_range.low().raw().saturating_add(1);
        let ub = last_range.high().raw();
        if lb > ub {
            continue;
        }
        let Some(id) = cluster.query_at(first, lb, ub) else {
            continue;
        };
        if let Some(outcome) = cluster.wait_for_query(first, id, Duration::from_secs(40)) {
            if outcome.hops as usize == hops {
                samples.push(outcome.elapsed);
            }
        }
    }
    samples
}

/// Figure 21: mean range-scan time vs number of hops along the ring,
/// `scanRange` vs the naive application-level search.
pub fn figure_21(effort: Effort, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 21: overhead of scanRange vs hops along the ring (seconds)",
        &["hops", "scan_range", "naive_search"],
    );
    let items = effort.scale(30, 140);
    let max_hops = effort.scale(3, 12);

    let pepper = measure_scan_times(SystemConfig::paper_defaults(), seed, items, max_hops);
    let naive = measure_scan_times(
        SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
        seed,
        items,
        max_hops,
    );
    for (hops, mean) in &pepper {
        let naive_mean = naive
            .iter()
            .find(|(h, _)| h == hops)
            .map(|(_, m)| *m)
            .unwrap_or(f64::NAN);
        table.push_row(vec![*hops as f64, *mean, naive_mean]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_range_overhead_is_comparable_to_naive_search() {
        let pepper = measure_scan_times(SystemConfig::paper_defaults(), 3, 30, 2);
        let naive = measure_scan_times(
            SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
            3,
            30,
            2,
        );
        assert!(!pepper.is_empty());
        assert!(!naive.is_empty());
        // The paper's finding: the consistency-preserving scan costs about
        // the same as the naive application-level scan (well within 3x on
        // the same workload, typically indistinguishable).
        let p_mean: f64 = pepper.iter().map(|(_, m)| m).sum::<f64>() / pepper.len() as f64;
        let n_mean: f64 = naive.iter().map(|(_, m)| m).sum::<f64>() / naive.len() as f64;
        assert!(
            p_mean < n_mean * 3.0 + 0.01,
            "scanRange ({p_mean}) should not be drastically slower than naive ({n_mean})"
        );
    }

    #[test]
    fn scan_time_grows_with_hop_count() {
        let times = measure_scan_times(SystemConfig::paper_defaults(), 9, 40, 3);
        assert!(times.len() >= 2);
        let first = times.first().unwrap().1;
        let last = times.last().unwrap().1;
        assert!(
            last >= first,
            "more hops should not be faster ({first} -> {last})"
        );
    }
}
