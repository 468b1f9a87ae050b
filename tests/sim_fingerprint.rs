//! A pinned fingerprint of one whole simulated run: the tripwire for every
//! change that is meant to leave the simulation alone.
//!
//! A durable paper-timer ring of ~64 members serves a seeded
//! insert/delete/query mix through one crash + restart and one voluntary
//! leave; the final `NetStats`, the stored keys and every peer's replica keys
//! are folded into one FNV hash. One message sent, dropped, reordered or
//! re-timed, one item or one replica more or less, moves it. The `NetStats`
//! are also pinned field by field, so a re-pin shows which counter moved.
//!
//! That run uses the paper's timers. The harness profiles run on the fast
//! timers and on the naive switch, so their seed-1 op-trace and final-state
//! hashes are pinned here too.

use std::time::Duration;

use pepper_index::Observation;
use pepper_net::NetStats;
use pepper_sim::cluster::{Cluster, ClusterConfig, DurabilityConfig};
use pepper_sim::harness::{fnv1a, Harness, HarnessConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// To re-pin after an *intended* protocol change: run
// `cargo test -q -p pepper-sim --test sim_fingerprint`, copy the "got" value.
const FINGERPRINT: u64 = 0x93e6_ca91_4281_bba3;

/// The run's final network counters, checked before [`FINGERPRINT`]. Re-pin
/// them the same way, from the "left" value of the failed assertion.
const NET_STATS: NetStats = NetStats {
    messages_sent: 32_334,
    messages_delivered: 32_323,
    messages_dropped: 10,
    timers_fired: 19_344,
    timers_dropped: 6,
    external_delivered: 0,
    events_processed: 51_683,
    peak_queue_depth: 409,
    peak_fifo_channels: 1121,
};

const KEY_SPACE: u64 = 1 << 40;

/// A seeded insert/delete/query mix, one op per 250 virtual ms, each issued
/// at a random ring member.
fn client_mix(cluster: &mut Cluster, rng: &mut StdRng, ops: usize) {
    for _ in 0..ops {
        let at = cluster.with_ring_members(|m| m[rng.gen_range(0..m.len())]);
        match rng.gen_range(0..10u32) {
            0..=3 => {
                cluster.insert_key_at(at, rng.gen_range(0..KEY_SPACE));
            }
            4..=6 => {
                let stored = cluster.stored_keys();
                if let Some(&key) = stored.iter().nth(rng.gen_range(0..stored.len().max(1))) {
                    cluster.delete_key_at(at, key);
                }
            }
            _ => {
                let lo = rng.gen_range(0..KEY_SPACE);
                cluster.query_at(at, lo, lo.saturating_add(KEY_SPACE / 50));
            }
        }
        cluster.run(Duration::from_millis(250));
    }
}

fn fingerprint() -> (u64, usize, NetStats) {
    let mut cluster = Cluster::new(
        ClusterConfig::paper(21)
            .with_free_peers(140)
            .with_durability(DurabilityConfig::default()),
    );
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..450 {
        let at = cluster.with_ring_members(|m| m[rng.gen_range(0..m.len())]);
        cluster.insert_key_at(at, rng.gen_range(0..KEY_SPACE));
        cluster.run(Duration::from_millis(100));
    }
    cluster.run_secs(30);
    let members = cluster.ring_members().len();
    client_mix(&mut cluster, &mut rng, 80);

    // Crash a member, wait out failure detection and the takeover, restart it.
    let first = cluster.first;
    let pick = |cluster: &Cluster, rng: &mut StdRng| {
        cluster.with_ring_members(|m| {
            let others: Vec<_> = m.iter().copied().filter(|p| *p != first).collect();
            others[rng.gen_range(0..others.len())]
        })
    };
    let victim = pick(&cluster, &mut rng);
    assert!(cluster.crash_peer(victim));
    client_mix(&mut cluster, &mut rng, 40);
    cluster.run_secs(30);
    cluster.restart_peer(victim).expect("victim restarts");
    client_mix(&mut cluster, &mut rng, 40);

    let leaver = pick(&cluster, &mut rng);
    assert!(cluster.leave_peer(leaver));
    client_mix(&mut cluster, &mut rng, 40);
    cluster.run_secs(30);
    let left = cluster.node(leaver).expect("leaver exists").observations();
    assert!(left.contains(&Observation::BecameFree), "the leave ran");

    let s = cluster.sim.stats();
    let mut words = vec![
        s.messages_sent,
        s.messages_delivered,
        s.messages_dropped,
        s.timers_fired,
        s.timers_dropped,
        s.external_delivered,
        s.events_processed,
        s.peak_queue_depth,
        s.peak_fifo_channels,
    ];
    let stored = cluster.stored_keys();
    words.push(stored.len() as u64);
    words.extend(&stored);
    for (peer, replicas) in cluster.replica_holdings() {
        words.extend([peer.raw(), replicas.len() as u64]);
        words.extend(&replicas);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    (fnv1a(&bytes), members, s)
}

#[test]
fn a_seeded_run_through_crash_restart_and_leave_matches_the_pinned_fingerprint() {
    let (got, members, stats) = fingerprint();
    assert!(
        (48..=96).contains(&members),
        "ring of {members} members is not the run that was pinned"
    );
    assert_eq!(stats, NET_STATS, "the network counters moved");
    assert_eq!(
        got, FINGERPRINT,
        "the simulation moved: got {got:#018x}, pinned {FINGERPRINT:#018x}"
    );
}

/// `(profile, OpTrace::hash, final_state_hash)` of each fast-timer harness
/// profile at seed 1. Re-pin the way [`FINGERPRINT`] is re-pinned. At seed 1
/// the two broken-recovery profiles end exactly where `quick` does.
const PROFILE_HASHES: [(&str, u64, u64); 8] = [
    ("quick", 0xb205_fbab_47df_fc7b, 0x1fae_e9c7_34b1_96e2),
    ("quick-leave", 0x9b98_e409_dcb4_d60d, 0x498f_eb48_6de3_0ef2),
    (
        "quick-no-failures",
        0xb248_46f3_1129_c14b,
        0x5cdf_a67f_6069_c738,
    ),
    ("quick-naive", 0x90ff_d49b_cc19_fe94, 0xc844_b79a_a0c2_fafa),
    ("quick-zipf", 0xe24e_7010_87fb_f82f, 0x6d5b_eea7_87d0_6147),
    (
        "quick-sequential",
        0xc87a_a705_6f44_5a38,
        0x4210_3f33_d539_527d,
    ),
    (
        "quick-skip-wal",
        0xb205_fbab_47df_fc7b,
        0x1fae_e9c7_34b1_96e2,
    ),
    (
        "quick-serve-stale",
        0xb205_fbab_47df_fc7b,
        0x1fae_e9c7_34b1_96e2,
    ),
];

#[test]
fn the_fast_timer_harness_profiles_match_their_pinned_hashes() {
    let got: Vec<(&str, u64, u64)> = PROFILE_HASHES
        .iter()
        .map(|(profile, _, _)| {
            let cfg = HarnessConfig::from_profile(profile, 1).expect("known profile");
            let report = Harness::run_generated(cfg);
            (*profile, report.trace.hash(), report.final_state_hash)
        })
        .collect();
    assert_eq!(got, PROFILE_HASHES, "a fast-timer profile moved");
}
