//! Figures 19, 20 and 23: the cost of the consistent `insertSucc`.
//!
//! The workload mirrors Section 6.1: items arrive continuously, free peers
//! arrive continuously, and every Data Store overflow drives one ring
//! `insertSucc`. The measured quantity is the time from invoking the
//! operation at the inserter to the confirmation that the new peer has
//! installed its successor list, averaged over all such operations — for the
//! PEPPER protocol and for the naive baseline.

use std::time::Duration;

use pepper_index::Observation;
use pepper_net::SimTime;
use pepper_types::{Protocol, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::Cluster;
use crate::metrics::{mean_secs, Table};
use crate::workload::{KeyDistribution, KeyGenerator};

use super::Effort;

/// Parameters of one insertSucc measurement run.
#[derive(Debug, Clone)]
pub struct InsertSuccRun {
    /// System configuration (protocol + parameters).
    pub system: SystemConfig,
    /// Number of items inserted over the run.
    pub items: usize,
    /// Time between item inserts (paper: 0.5 s — 2 items/s).
    pub item_period: Duration,
    /// Time between free-peer arrivals (paper: 3 s).
    pub peer_period: Duration,
    /// Fail-stop failures per 100 s of virtual time (0 for Figures 19/20).
    pub failures_per_100s: f64,
    /// Random seed.
    pub seed: u64,
}

impl InsertSuccRun {
    /// The paper's workload with the given system configuration.
    pub fn paper(system: SystemConfig, items: usize, seed: u64) -> Self {
        InsertSuccRun {
            system,
            items,
            item_period: Duration::from_millis(500),
            peer_period: Duration::from_secs(3),
            failures_per_100s: 0.0,
            seed,
        }
    }
}

/// Runs one measurement and returns every `insertSucc` completion time.
pub fn measure_insert_succ(run: &InsertSuccRun) -> Vec<Duration> {
    let mut cluster = Cluster::new(
        crate::cluster::ClusterConfig::paper(run.seed)
            .with_system(run.system.clone())
            .with_free_peers(2),
    );
    let mut keys = KeyGenerator::new(
        KeyDistribution::Uniform {
            domain: u64::MAX / 2,
        },
        run.seed.wrapping_mul(97).wrapping_add(13),
    );
    let mut rng = StdRng::seed_from_u64(run.seed.wrapping_add(1));
    let horizon = run.item_period * run.items as u32;
    let failure_times = pepper_net::FailureSchedule::poisson_like(
        run.failures_per_100s,
        SimTime::ZERO,
        horizon,
        &mut rng,
    );
    let mut failures = failure_times.times().to_vec();
    failures.reverse(); // pop from the back in chronological order

    let mut since_peer = Duration::ZERO;
    for _ in 0..run.items {
        cluster.insert_key(keys.next_key());
        cluster.run(run.item_period);
        since_peer += run.item_period;
        if since_peer >= run.peer_period {
            cluster.add_free_peer();
            since_peer = Duration::ZERO;
        }
        while failures.last().is_some_and(|t| *t <= cluster.now()) {
            failures.pop();
            // Never kill the workload-issuing bootstrap peer.
            let first = cluster.first;
            cluster.kill_random_member(&mut rng, &[first]);
            // Replace the capacity so the system keeps growing.
            cluster.add_free_peer();
        }
    }
    // Let in-flight operations settle.
    cluster.run_secs(10);

    let mut samples = Vec::new();
    for (_, obs) in cluster.drain_observations() {
        if let Observation::InsertSuccCompleted { elapsed, .. } = obs {
            samples.push(elapsed);
        }
    }
    samples
}

/// Figure 19: average `insertSucc` time vs successor-list length (2–8),
/// PEPPER vs naive.
pub fn figure_19(effort: Effort, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 19: overhead of insertSucc vs successor list length (seconds)",
        &["succ_list_len", "pepper_insert_succ", "naive_insert_succ"],
    );
    let items = effort.scale(30, 120);
    let lengths: Vec<usize> = match effort {
        Effort::Quick => vec![2, 4, 8],
        Effort::Full => (2..=8).collect(),
    };
    for d in lengths {
        let pepper = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults().with_succ_list_len(d),
            items,
            seed,
        ));
        let naive = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults()
                .with_succ_list_len(d)
                .with_protocol(Protocol::Naive),
            items,
            seed,
        ));
        table.push_row(vec![d as f64, mean_secs(&pepper), mean_secs(&naive)]);
    }
    table
}

/// Figure 20: average `insertSucc` time vs ring stabilization period (2–8 s),
/// PEPPER vs naive.
pub fn figure_20(effort: Effort, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 20: overhead of insertSucc vs ring stabilization period (seconds)",
        &[
            "stabilization_period_s",
            "pepper_insert_succ",
            "naive_insert_succ",
        ],
    );
    let items = effort.scale(30, 120);
    let periods: Vec<u64> = match effort {
        Effort::Quick => vec![2, 8],
        Effort::Full => (2..=8).collect(),
    };
    for p in periods {
        let system =
            SystemConfig::paper_defaults().with_stabilization_period(Duration::from_secs(p));
        let pepper = measure_insert_succ(&InsertSuccRun::paper(system.clone(), items, seed));
        let naive = measure_insert_succ(&InsertSuccRun::paper(
            system.with_protocol(Protocol::Naive),
            items,
            seed,
        ));
        table.push_row(vec![p as f64, mean_secs(&pepper), mean_secs(&naive)]);
    }
    table
}

/// Figure 23: average `insertSucc` time vs peer failure rate
/// (failures per 100 s), with the paper's default parameters.
pub fn figure_23(effort: Effort, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 23: insertSucc time vs failure rate (failures per 100 s)",
        &["failures_per_100s", "pepper_insert_succ"],
    );
    let items = effort.scale(30, 120);
    let rates: Vec<f64> = match effort {
        Effort::Quick => vec![0.0, 10.0],
        Effort::Full => vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
    };
    for rate in rates {
        let mut run = InsertSuccRun::paper(SystemConfig::paper_defaults(), items, seed);
        run.failures_per_100s = rate;
        table.push_row(vec![rate, mean_secs(&measure_insert_succ(&run))]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pepper_insert_succ_costs_more_than_naive_but_stays_small() {
        let seed = 11;
        let pepper = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults(),
            30,
            seed,
        ));
        let naive = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
            30,
            seed,
        ));
        assert!(
            pepper.len() >= 2,
            "expected several splits, got {}",
            pepper.len()
        );
        assert!(naive.len() >= 2);
        let (pepper, naive) = (mean_secs(&pepper), mean_secs(&naive));
        // The consistency protocol costs more than the naive join…
        assert!(pepper > naive, "pepper {pepper} vs naive {naive}");
        // …but stays in the same ballpark (a fraction of the 4 s
        // stabilization period in a stable LAN system), as the paper
        // reports. The bound leaves headroom for the occasional extra
        // stabilization round the notify-repair path can add to a join.
        assert!(pepper < 1.5, "pepper mean = {pepper}");
    }

    #[test]
    fn insert_succ_cost_grows_with_successor_list_length() {
        let seed = 19;
        let short = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults().with_succ_list_len(2),
            30,
            seed,
        ));
        let long = measure_insert_succ(&InsertSuccRun::paper(
            SystemConfig::paper_defaults().with_succ_list_len(8),
            30,
            seed,
        ));
        let (short, long) = (mean_secs(&short), mean_secs(&long));
        assert!(
            long > short,
            "d=8 ({long}) should cost more than d=2 ({short})"
        );
    }

    #[test]
    fn figure_19_quick_has_expected_shape() {
        let t = figure_19(Effort::Quick, 5);
        assert_eq!(t.rows.len(), 3);
        let pepper = t.column("pepper_insert_succ").unwrap();
        let naive = t.column("naive_insert_succ").unwrap();
        for (p, n) in pepper.iter().zip(&naive) {
            assert!(p > n, "pepper ({p}) must cost more than naive ({n})");
        }
    }

    #[test]
    fn figure_23_produces_finite_positive_means() {
        // With the quick effort the sample counts are too small for the
        // failure-rate trend to be statistically meaningful; the full-effort
        // run (driver table in `experiments/mod.rs`) is where the increase
        // the paper reports shows. Here we only check that the driver works
        // end to end.
        let t = figure_23(Effort::Quick, 23);
        let col = t.column("pepper_insert_succ").unwrap();
        assert_eq!(col.len(), 2);
        for v in col {
            assert!(v.is_finite() && v > 0.0);
        }
    }
}
