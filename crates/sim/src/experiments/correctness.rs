//! Query-correctness ablation (Section 4.2) and storage-balance ablation
//! (Section 2.3).
//!
//! The correctness experiment reproduces the *reason* the paper's protocols
//! exist: with the naive ring scan, concurrent splits / merges /
//! redistributions can move items "out from under" a running range query and
//! live items are silently missed; with the PEPPER `scanRange` (and
//! consistent successor pointers) this cannot happen. The workload keeps a
//! set of *stable* keys (never deleted — the ground truth) interleaved with
//! *churn* keys that are repeatedly deleted and re-inserted to force
//! continuous rebalancing, while range queries over the whole region run
//! concurrently. A query is **incorrect** if it claims full coverage yet
//! misses a stable key; a query that *reports* incomplete coverage is
//! counted separately as **incomplete** (a visible, retriable availability
//! failure — see [`CorrectnessOutcome`]).

use std::time::Duration;

use pepper_types::{Protocol, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{Cluster, ClusterConfig};
use crate::metrics::Table;
use crate::workload::{KeyDistribution, KeyGenerator};

use super::Effort;

/// Result of one correctness run.
///
/// The two failure columns are deliberately distinct, because they are
/// different claims entirely:
///
/// * **incorrect** — the scan *claimed full coverage* of the interval yet
///   missed a live stable item: a silent wrong answer, exactly what the
///   paper's `scanRange` locks exist to prevent;
/// * **incomplete** — the scan itself reported that it could not cover the
///   interval (rejected past the re-route budget, forward retries
///   exhausted): an availability failure the client *sees* and can retry.
///
/// Counting incomplete-and-missing results as "incorrect" once made the
/// quick-effort table report PEPPER *worse* than naive (the old ROADMAP open
/// item): PEPPER's lock-step scan start is rejected more often under stale
/// routing, so it produced more — visible, honest — incompletes, while every
/// one of its *completed* scans was correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrectnessOutcome {
    /// Queries issued (and finished, successfully or not).
    pub queries: usize,
    /// Queries that claimed full coverage but missed a live (stable) item.
    pub incorrect: usize,
    /// Queries that reported incomplete coverage (client-visible failure).
    pub incomplete: usize,
}

/// Runs the churn + concurrent-queries workload and counts incorrect query
/// results.
pub fn run_correctness(system: SystemConfig, seed: u64, rounds: usize) -> CorrectnessOutcome {
    const SPACING: u64 = 10_000_000;
    const STABLE: u64 = 40;
    const CHURN: u64 = 40;

    let mut cluster = Cluster::new(
        ClusterConfig::paper(seed)
            .with_system(system)
            .with_free_peers(4),
    );
    // Interleave stable (even slots) and churn (odd slots) keys so every peer
    // holds a mix of both and churn rebalancing moves stable items around.
    let stable_keys: Vec<u64> = (0..STABLE).map(|i| (2 * i + 1) * SPACING).collect();
    let churn_keys: Vec<u64> = (0..CHURN).map(|i| (2 * i + 2) * SPACING).collect();
    for (s, c) in stable_keys.iter().zip(&churn_keys) {
        cluster.insert_key(*s);
        cluster.run(Duration::from_millis(120));
        cluster.insert_key(*c);
        cluster.run(Duration::from_millis(120));
        cluster.add_free_peer();
    }
    cluster.run_secs(20);

    let lo = *stable_keys.first().expect("non-empty");
    let hi = stable_keys.last().expect("non-empty") + SPACING;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(99));
    let mut queries = 0usize;
    let mut incorrect = 0usize;
    let mut incomplete = 0usize;
    let mut churn_present = true;

    for _ in 0..rounds {
        // Toggle the churn keys to force splits, merges and redistributions…
        let issuer = cluster.first;
        for key in &churn_keys {
            if churn_present {
                cluster.delete_key_at(issuer, *key);
            } else {
                cluster.insert_key_at(issuer, *key);
            }
            cluster.run(Duration::from_millis(40));
        }
        churn_present = !churn_present;
        for _ in 0..2 {
            cluster.add_free_peer();
        }
        // …and query the stable region while that rebalancing is in flight.
        let members = cluster.ring_members();
        let at = members[rng.gen_range(0..members.len())];
        if let Some(id) = cluster.query_at(at, lo, hi) {
            if let Some(outcome) = cluster.wait_for_query(at, id, Duration::from_secs(60)) {
                queries += 1;
                let got: std::collections::BTreeSet<u64> =
                    outcome.items.iter().map(|i| i.skv.raw()).collect();
                let missing = stable_keys.iter().any(|k| !got.contains(k));
                if !outcome.complete {
                    incomplete += 1;
                } else if missing {
                    incorrect += 1;
                }
            }
        }
        cluster.run_secs(2);
    }
    CorrectnessOutcome {
        queries,
        incorrect,
        incomplete,
    }
}

/// Query-correctness ablation table: PEPPER vs naive.
pub fn query_correctness(effort: Effort, seed: u64) -> Table {
    let rounds = effort.scale(4, 16);
    let mut table = Table::new(
        "Query correctness under churn (0 = naive, 1 = PEPPER)",
        &[
            "pepper",
            "queries",
            "incorrect",
            "incomplete",
            "incorrect_fraction",
        ],
    );
    for (flag, protocol) in [(0.0, Protocol::Naive), (1.0, Protocol::Pepper)] {
        let outcome = run_correctness(
            SystemConfig::paper_defaults().with_protocol(protocol),
            seed,
            rounds,
        );
        let frac = if outcome.queries == 0 {
            0.0
        } else {
            outcome.incorrect as f64 / outcome.queries as f64
        };
        table.push_row(vec![
            flag,
            outcome.queries as f64,
            outcome.incorrect as f64,
            outcome.incomplete as f64,
            frac,
        ]);
    }
    table
}

/// Storage-balance ablation: items per live peer after inserting keys drawn
/// from different distributions. The P-Ring split/merge machinery must keep
/// every peer between `sf` and `2·sf` items even under heavy skew.
pub fn load_balance(effort: Effort, seed: u64) -> Table {
    let items = effort.scale(40, 150);
    let mut table = Table::new(
        "Storage balance (items per live peer) under different key distributions",
        &[
            "distribution",
            "peers",
            "mean_items",
            "min_items",
            "max_items",
            "max_over_mean",
        ],
    );
    let distributions = [
        (
            1.0,
            KeyDistribution::Uniform {
                domain: u64::MAX / 2,
            },
        ),
        (
            2.0,
            KeyDistribution::Zipf {
                domain: u64::MAX / 2,
                hotspots: 8,
                theta: 0.99,
            },
        ),
        (3.0, KeyDistribution::Sequential { stride: 1_000_003 }),
    ];
    for (id, dist) in distributions {
        let mut cluster = Cluster::new(
            ClusterConfig::paper(seed)
                .with_system(SystemConfig::paper_defaults())
                .with_free_peers(6),
        );
        let mut gen = KeyGenerator::new(dist, seed.wrapping_add(5));
        for i in 0..items {
            cluster.insert_key(gen.next_key());
            cluster.run(Duration::from_millis(150));
            if i % 4 == 0 {
                cluster.add_free_peer();
            }
        }
        cluster.run_secs(30);
        let counts = cluster.items_per_member();
        let peers = counts.len().max(1);
        let mean = counts.iter().sum::<usize>() as f64 / peers as f64;
        let min = counts.iter().copied().min().unwrap_or(0) as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        table.push_row(vec![
            id,
            peers as f64,
            mean,
            min,
            max,
            if mean > 0.0 { max / mean } else { 0.0 },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correctness_driver_completes_queries_under_churn() {
        let outcome = run_correctness(SystemConfig::paper_defaults(), 41, 3);
        assert!(outcome.queries >= 2, "queries = {}", outcome.queries);
        assert!(outcome.incorrect <= outcome.queries);
    }

    #[test]
    fn naive_queries_are_never_better_than_pepper() {
        // The comparative claim of the paper, asserted for real across a
        // seed matrix: under identical churn, the PEPPER `scanRange` never
        // produces more *silently wrong* results than the naive scan — and
        // in fact produces none at all: a scan that claims full coverage has
        // held the range locks the whole way, so it cannot have missed a
        // stable item. (Visible `incomplete` failures are a different,
        // retriable outcome and are reported separately; for the absolute
        // counts run this driver at full effort — see the driver table in
        // `experiments/mod.rs`.)
        let mut naive_total = CorrectnessOutcome {
            queries: 0,
            incorrect: 0,
            incomplete: 0,
        };
        let mut pepper_total = naive_total;
        for seed in [43u64, 1009, 2026] {
            let naive = run_correctness(
                SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
                seed,
                4,
            );
            let pepper = run_correctness(SystemConfig::paper_defaults(), seed, 4);
            assert_eq!(naive.queries, 4, "seed {seed}: naive queries lost");
            assert_eq!(pepper.queries, 4, "seed {seed}: pepper queries lost");
            assert!(
                pepper.incorrect <= naive.incorrect,
                "seed {seed}: pepper reported more silently-wrong results                  ({} vs {})",
                pepper.incorrect,
                naive.incorrect
            );
            naive_total.queries += naive.queries;
            naive_total.incorrect += naive.incorrect;
            naive_total.incomplete += naive.incomplete;
            pepper_total.queries += pepper.queries;
            pepper_total.incorrect += pepper.incorrect;
            pepper_total.incomplete += pepper.incomplete;
        }
        // The theorem itself: no completed PEPPER scan is ever wrong.
        assert_eq!(
            pepper_total.incorrect, 0,
            "a complete scanRange result missed a stable key: {pepper_total:?}"
        );
        assert!(pepper_total.incorrect <= naive_total.incorrect);
        assert_eq!(pepper_total.queries, 12);
        // Nor does one give up on this churn: each hop forwards to the peer
        // that owns the next range, even while that range is being handed
        // over, so no scan skips a range and reports itself incomplete.
        assert_eq!(
            pepper_total.incomplete, 0,
            "a scanRange reported incomplete coverage: {pepper_total:?}"
        );
    }

    #[test]
    fn skewed_inserts_stay_balanced() {
        let t = load_balance(Effort::Quick, 47);
        assert_eq!(t.rows.len(), 3);
        let sf = SystemConfig::paper_defaults().storage_factor as f64;
        for row in &t.rows {
            let (peers, max) = (row[1], row[4]);
            assert!(peers >= 2.0, "skew must still spread over several peers");
            assert!(
                max <= 2.0 * sf + 1.0,
                "no peer may exceed the overflow threshold once settled (max = {max})"
            );
        }
    }
}
