//! Cross-crate integration: the full index stack (ring + data store +
//! replication + router) behind the public API, on the simulated network.

use std::time::Duration;

use pepper_ring::EntryState;
use pepper_sim::{Cluster, ClusterConfig, TraceConfig};

#[test]
fn insert_query_delete_lifecycle() {
    let mut cluster = Cluster::new(ClusterConfig::fast(101).with_free_peers(3));
    let keys: Vec<u64> = (1..=15).map(|k| k * 5_000_000).collect();
    for &k in &keys {
        cluster.insert_key(k);
        cluster.run(Duration::from_millis(50));
    }
    cluster.run_secs(5);
    assert_eq!(cluster.total_items(), keys.len());
    assert!(cluster.ring_members().len() >= 3);

    // Query the middle of the key space.
    let issuer = cluster.first;
    let id = cluster.query_at(issuer, 20_000_000, 60_000_000).unwrap();
    let outcome = cluster
        .wait_for_query(issuer, id, Duration::from_secs(20))
        .expect("query completes");
    let got: Vec<u64> = outcome.items.iter().map(|i| i.skv.raw()).collect();
    let expected: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|k| (20_000_000..=60_000_000).contains(k))
        .collect();
    assert_eq!(got, expected);
    assert!(outcome.complete);

    // Delete everything; the index must shrink without losing consistency.
    for &k in &keys {
        cluster.delete_key_at(issuer, k);
        cluster.run(Duration::from_millis(80));
    }
    cluster.run_secs(10);
    assert_eq!(cluster.total_items(), 0);
    let (consistent, connected) = cluster.check_ring();
    assert!(consistent && connected);
}

#[test]
fn storage_stays_within_bounds_as_the_index_grows() {
    // Enough free peers that every overflow can be resolved by a split.
    let mut cluster = Cluster::new(ClusterConfig::fast(103).with_free_peers(12));
    for k in 1..=24u64 {
        cluster.insert_key(k * 3_000_000);
        cluster.run(Duration::from_millis(60));
    }
    cluster.run_secs(8);
    assert_eq!(cluster.total_items(), 24);
    let sf = cluster.system().storage_factor;
    for (peer, count) in cluster
        .ring_members()
        .iter()
        .zip(cluster.items_per_member())
    {
        assert!(
            count <= 2 * sf,
            "peer {peer} exceeds the overflow threshold with {count} items"
        );
    }
}

/// SplitMix64, the generator `benchmark/src/rng.rs` draws its inputs from.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

#[test]
fn a_settled_paper_timer_ring_has_a_member_with_three_router_levels() {
    // The setup of the benchmark's micro drivers (`benchmark/src/micro.rs`,
    // `prepare`): 150 spaced inserts into a paper-timer ring with 64 free
    // peers, then 80 s to settle. Its router driver needs a mid-ring member
    // whose router holds at least three levels.
    const DOMAIN: u64 = 1 << 40;
    for seed in 1..=2 {
        let mut cluster = Cluster::new(ClusterConfig::paper(seed).with_free_peers(64));
        let mut rng = SplitMix(seed);
        for _ in 0..150 {
            let at = cluster.with_ring_members(|m| m[rng.below(m.len() as u64) as usize]);
            cluster.insert_key_at(at, rng.below(DOMAIN));
            cluster.run(Duration::from_millis(100));
        }
        cluster.run_secs(80);
        let settled = cluster.ring_members().into_iter().any(|p| {
            let node = cluster.node(p).expect("member exists");
            let ds = node.data_store();
            node.ring().pred().is_some()
                && node.ring().succ_list().len() >= 2
                && !ds.range().wraps()
                && (4..9).contains(&ds.item_count())
                && node.router().populated_levels() >= 3
        });
        assert!(settled, "seed {seed}: no settled mid-ring member");
    }
}

#[test]
fn an_insert_the_third_listed_successor_owns_takes_one_route() {
    // A settled fast-timer ring, counting deliveries per message tag.
    let metrics = TraceConfig {
        metrics: true,
        ..TraceConfig::off()
    };
    let cfg = ClusterConfig::fast(105).with_free_peers(12);
    let mut cluster = Cluster::new(cfg.with_trace(metrics));
    for k in 1..=30u64 {
        cluster.insert_key(k * 3_000_000);
        cluster.run(Duration::from_millis(60));
    }
    cluster.run_secs(10);
    // A member whose list starts with three JOINED successors, the third
    // owning its own value: the owner is two peers past the first hop.
    let (issuer, owner, key) = cluster
        .ring_members()
        .into_iter()
        .find_map(|me| {
            let list = cluster.node(me)?.ring().succ_list();
            let third = list.get(2)?;
            let mut settled = list.iter().take(3);
            (settled.all(|e| e.state == EntryState::Joined && e.peer != me)
                && cluster.owner_of(third.value.raw()) == Some(third.peer))
            .then_some((me, third.peer, third.value.raw()))
        })
        .expect("a member with three settled successors");
    let routes = |c: &Cluster| c.metrics().counter("index", "Route");
    let before = routes(&cluster);
    cluster.insert_key_at(issuer, key);
    cluster.run(Duration::from_millis(200));
    assert_eq!(routes(&cluster) - before, 1, "one hop, straight to {owner}");
    assert!(cluster.stored_keys().contains(&key));
    assert_eq!(cluster.owner_of(key), Some(owner));
}
