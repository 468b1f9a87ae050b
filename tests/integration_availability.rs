//! Cross-crate integration: availability invariants under failures and
//! departures.

use std::time::Duration;

use pepper_sim::cluster::DurabilityConfig;
use pepper_sim::{Cluster, ClusterConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn single_failure_never_disconnects_the_ring_or_loses_items() {
    let mut cluster = Cluster::new(ClusterConfig::fast(211).with_free_peers(4));
    let keys: Vec<u64> = (1..=16).map(|k| k * 7_000_000).collect();
    for &k in &keys {
        cluster.insert_key(k);
        cluster.run(Duration::from_millis(60));
    }
    // Let replicas propagate.
    cluster.run_secs(8);
    assert!(cluster.ring_members().len() >= 3);

    let mut rng = StdRng::seed_from_u64(5);
    let first = cluster.first;
    cluster
        .kill_random_member(&mut rng, &[first])
        .expect("a victim exists");
    // Failure detection, range takeover and replica revival.
    cluster.run_secs(15);

    let (_, connected) = cluster.check_ring();
    assert!(connected, "one failure must not disconnect the ring");
    let stored = cluster.stored_keys();
    for k in &keys {
        assert!(stored.contains(k), "item {k} must survive a single failure");
    }
}

/// Steps the cluster in 10 ms slices until `done`, for at most `limit`.
fn run_until(cluster: &mut Cluster, limit: Duration, done: impl Fn(&Cluster) -> bool) {
    let deadline = cluster.now() + limit;
    while !done(cluster) {
        assert!(cluster.now() < deadline, "not reached within {limit:?}");
        cluster.run(Duration::from_millis(10));
    }
}

/// A leaver merges into its predecessor (the absorber), the absorber
/// crashes, and the leaver is recycled across the ring as a split's new
/// peer. The leaver's old successor must hand its predecessor pointer to the
/// absorber as soon as the absorber presents the leaver's value: had it kept
/// the departed leaver for the rest of its lease, the absorber's predecessor
/// would learn the leaver from it after the crash (Chord-notify repair) and
/// follow it to its new position, skipping everything in between.
#[test]
fn a_recycled_leaver_is_not_relearned_after_its_absorber_crashes() {
    let mut cluster = Cluster::new(ClusterConfig::paper(5).with_free_peers(24));
    for k in 1..=120u64 {
        cluster.insert_key(k << 40);
        cluster.run(Duration::from_millis(200));
    }
    cluster.run_secs(40);
    // Nobody else is free: the leaver will be the next split's new peer.
    while cluster.pool.acquire().is_some() {}
    let first = cluster.first;
    let ring = |c: &Cluster, p| c.node(p).expect("peer exists").ring().clone();
    let pred = |c: &Cluster, p| ring(c, p).pred().expect("a predecessor").0;
    let members = cluster.ring_members();
    assert!(members.len() >= 12, "{} members", members.len());
    let (leaver, absorber, before) = members
        .iter()
        .map(|&l| (l, pred(&cluster, l), pred(&cluster, pred(&cluster, l))))
        .find(|&(l, a, b)| ![l, a, b].contains(&first))
        .expect("a leaver two hops clear of the bootstrap peer");
    let old_succ = ring(&cluster, leaver)
        .best_succ()
        .expect("a successor")
        .peer;
    // The members whose successor lists can see the merge.
    let near: Vec<_> = [before, old_succ]
        .iter()
        .flat_map(|&p| ring(&cluster, p).succ_list().to_vec())
        .map(|e| e.peer)
        .chain([first, before, absorber, leaver, old_succ])
        .collect();

    assert!(cluster.leave_peer(leaver));
    run_until(&mut cluster, Duration::from_secs(20), |c| {
        c.pool.snapshot() == [leaver]
    });
    // The absorber now holds the leaver's value: the old successor adopts it
    // at the absorber's next stabilization, well inside the leaver's lease.
    let period = cluster.system().stabilization_period;
    run_until(&mut cluster, period + period / 4, |c| {
        pred(c, old_succ) == absorber
    });
    assert!(cluster.crash_peer(absorber));
    // A split out of sight of the merge draws the leaver.
    let splitter = cluster
        .ring_members()
        .into_iter()
        .find(|p| !near.contains(p))
        .expect("a member clear of the merge");
    let low = cluster
        .node(splitter)
        .expect("alive")
        .data_store()
        .range()
        .low();
    for i in 1..=12 {
        cluster.insert_key_at(splitter, low.raw() + i);
        cluster.run(Duration::from_millis(50));
    }
    run_until(&mut cluster, Duration::from_secs(20), |c| {
        c.ring_members().contains(&leaver)
    });
    cluster.run_secs(30);

    let (consistent, connected) = cluster.check_ring();
    assert!(consistent, "successor pointers must stay consistent");
    assert!(connected, "the ring must stay connected");
}

/// A leaver crashes right after its predecessor accepted its leave, and
/// restarts as a free peer before any ping to it times out. The failure
/// detector never reports it: the predecessor's next ping is answered
/// `member = false`, and that departure must end the predecessor's wait for
/// the grant, or it would never split, merge or leave again.
#[test]
fn a_leaver_restarted_before_any_ping_times_out_releases_its_predecessor() {
    let mut cluster = Cluster::new(
        ClusterConfig::paper(5)
            .with_free_peers(24)
            .with_durability(DurabilityConfig::default()),
    );
    let keys: Vec<u64> = (1..=120u64).map(|k| k << 40).collect();
    for &k in &keys {
        cluster.insert_key(k);
        cluster.run(Duration::from_millis(200));
    }
    cluster.run_secs(40);
    let first = cluster.first;
    let rebalancing = |c: &Cluster, p| {
        let node = c.node(p).expect("peer exists");
        node.data_store().is_rebalancing()
    };
    let pred = |c: &Cluster, p| {
        let node = c.node(p).expect("peer exists");
        node.ring().pred().expect("a predecessor").0
    };
    let (leaver, absorber) = cluster
        .ring_members()
        .into_iter()
        .map(|l| (l, pred(&cluster, l)))
        .find(|&(l, a)| {
            ![l, a].contains(&first) && !rebalancing(&cluster, l) && !rebalancing(&cluster, a)
        })
        .expect("an idle leaver and predecessor clear of the bootstrap peer");

    assert!(cluster.leave_peer(leaver));
    // The whole leave takes a few milliseconds: catch the moment the
    // predecessor has accepted and waits for the grant.
    let deadline = cluster.now() + Duration::from_secs(1);
    while !rebalancing(&cluster, absorber) {
        assert!(cluster.now() < deadline, "the offer was not accepted");
        cluster.run(Duration::from_micros(100));
    }
    assert!(cluster.crash_peer(leaver));
    assert!(cluster.restart_peer(leaver).is_some());
    let ping_period = cluster.system().ping_period;
    run_until(&mut cluster, ping_period * 2, |c| !rebalancing(c, absorber));

    cluster.run_secs(30);
    let (consistent, connected) = cluster.check_ring();
    assert!(consistent, "successor pointers must stay consistent");
    assert!(connected, "the ring must stay connected");
    let stored = cluster.stored_keys();
    assert!(keys.iter().all(|k| stored.contains(k)), "no item is lost");
}

#[test]
fn graceful_departures_keep_the_ring_consistent() {
    let mut cluster = Cluster::new(ClusterConfig::fast(223).with_free_peers(3));
    for k in 1..=12u64 {
        cluster.insert_key(k * 9_000_000);
        cluster.run(Duration::from_millis(60));
    }
    cluster.run_secs(5);
    let members_before = cluster.ring_members().len();
    assert!(members_before >= 3);

    // Delete most items: peers merge away gracefully.
    let issuer = cluster.first;
    let keys: Vec<u64> = cluster.stored_keys().into_iter().collect();
    for k in keys.iter().take(10) {
        cluster.delete_key_at(issuer, *k);
        cluster.run(Duration::from_millis(120));
    }
    cluster.run_secs(15);
    assert!(cluster.ring_members().len() < members_before);
    let (consistent, connected) = cluster.check_ring();
    assert!(consistent, "successor pointers must stay consistent");
    assert!(connected, "the ring must stay connected through departures");
}
