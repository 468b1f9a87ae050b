//! Allocation budget of the simulator's event path.
//!
//! The simulator spends its host time on maintenance events that emit one
//! to three effects each, so a heap allocation per effect buffer is a
//! double-digit share of every run. This test pins the budget with a
//! counting global allocator — which is why it is a test binary of its own:
//! a settled paper-timer ring must simulate a quiet stretch for at most
//! [`BUDGET`] heap allocations per event (the pre-budget code paid 2.7).
//! The same allocator counts live bytes, and the heap the ring holds after
//! the stretch must stay within [`HEAP_BUDGET`] per stored entry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use pepper_sim::cluster::{Cluster, ClusterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heap allocations allowed per simulated event in the steady state: the
/// measured 0.106 plus 50%. Stabilizing on change cut the stretch from
/// 20 824 allocations over 147 942 events (0.141) to 13 278 over 125 235:
/// most rounds no longer send a `StabResponse`, whose successor-list `Vec`
/// was one of the last allocation sites. Replica pushes only on change then
/// took it to 12 666 over 108 325 (0.117): the refresh rounds they dropped
/// were allocation-free events. Routing straight to the owner the
/// successor list names left it at 12 770 over 111 729 (0.114).
const BUDGET: f64 = 0.159;

/// Live heap bytes allowed per stored entry (items plus replicas) once the
/// ring has settled: the measured 168 B plus 10%. Per-peer `BTreeMap`
/// stores held 4 366 044 B for 2 000 items and 15 490 replicas (250 B per
/// entry); flat sorted stores (a type of their own then, one
/// `pepper_types::VecMap` each now) held 3 850 828 B (220 B). Releasing what is empty took it to 2 930 472 B for
/// 17 490 entries (168 B): truncated WALs and consumed tails free their
/// buffers, request tables free theirs with their last entry, node slots
/// are boxed, and the event slab grows by fixed pages. One sorted table
/// type under one capacity rule, with the router's tables inline in the
/// node, left it at 2 901 624 B (166 B).
const HEAP_BUDGET: f64 = 185.0;

/// Counts every allocation request (growth through `realloc` included) and
/// the bytes live, and otherwise defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one quiet stretch measured.
#[derive(Debug, PartialEq)]
struct Stretch {
    allocations: u64,
    events: u64,
    /// Ring members at the end, to show the stretch simulated a real ring.
    members: usize,
    /// Heap bytes live at the end that were not live before the cluster.
    live_bytes: i64,
    /// Items stored by live peers plus replicas held by alive peers.
    entries: usize,
}

/// Grows a ring with 2000 seeded inserts, lets it settle, then measures the
/// allocations and events of a further 120 quiet virtual seconds and the
/// heap the ring holds after them.
fn quiet_stretch() -> Stretch {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut cluster = Cluster::new(ClusterConfig::paper(1).with_free_peers(600));
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..2000 {
        let at = cluster.with_ring_members(|m| m[rng.gen_range(0..m.len())]);
        cluster.insert_key_at(at, rng.gen_range(0..1u64 << 40));
        cluster.run(Duration::from_millis(100));
    }
    cluster.run_secs(120);
    cluster.drain_observations();
    let events_before = cluster.sim.stats().events_processed;
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_secs(120);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let live_bytes = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let events = cluster.sim.stats().events_processed - events_before;
    let items: usize = cluster
        .datastore_snapshots()
        .iter()
        .filter(|(alive, _)| *alive)
        .map(|(_, ds)| ds.mapped_keys.len())
        .sum();
    let replicas: usize = cluster.replica_holdings().values().map(|r| r.len()).sum();
    Stretch {
        allocations,
        events,
        members: cluster.ring_members().len(),
        live_bytes,
        entries: items + replicas,
    }
}

// One test function: the counter is process-wide, so a second test running on
// a parallel thread would be counted too.
#[test]
fn steady_state_event_path_stays_within_its_allocation_budget() {
    let first = quiet_stretch();
    let Stretch {
        allocations,
        events,
        members,
        live_bytes,
        entries,
    } = first;
    assert!(members > 200, "ring too small to mean anything: {members}");
    assert!(events > 100_000, "stretch too short: {events} events");
    let per_event = allocations as f64 / events as f64;
    println!("{allocations} allocations / {events} events = {per_event:.3} ({members} members)");
    assert!(
        per_event <= BUDGET,
        "{per_event:.3} heap allocations per event exceeds the budget of {BUDGET}"
    );
    assert!(entries > 10_000, "too few stored entries: {entries}");
    let per_entry = live_bytes as f64 / entries as f64;
    println!("{live_bytes} live bytes / {entries} entries = {per_entry:.0} B");
    assert!(
        per_entry <= HEAP_BUDGET,
        "{per_entry:.0} live heap bytes per stored entry exceeds the budget of {HEAP_BUDGET}"
    );
    // The counts are a property of the simulated schedule, not of the host.
    assert_eq!(
        quiet_stretch(),
        first,
        "a second run in the same process must count the same"
    );
}
