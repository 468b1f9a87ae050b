//! Allocation budget of the simulator's event path.
//!
//! The simulator spends its host time on maintenance events that emit one
//! to three effects each, so a heap allocation per effect buffer is a
//! double-digit share of every run. This test pins the budget with a
//! counting global allocator — which is why it is a test binary of its own:
//! a settled paper-timer ring must simulate a quiet stretch for at most
//! [`BUDGET`] heap allocations per event (the pre-budget code paid 2.7).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pepper_sim::cluster::{Cluster, ClusterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heap allocations allowed per simulated event in the steady state: the
/// measured 0.156 (0.177 before refresh rounds reused their batch) plus 50%.
const BUDGET: f64 = 0.234;

/// Counts every allocation request (growth through `realloc` included) and
/// otherwise defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Grows a ring with 2000 seeded inserts, lets it settle, then returns the
/// allocations and events of a further 120 quiet virtual seconds (plus the
/// ring size, to show the stretch simulated a real ring).
fn quiet_stretch() -> (u64, u64, usize) {
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
    let events = cluster.sim.stats().events_processed - events_before;
    (allocations, events, cluster.ring_members().len())
}

// One test function: the counter is process-wide, so a second test running on
// a parallel thread would be counted too.
#[test]
fn steady_state_event_path_stays_within_its_allocation_budget() {
    let (allocations, events, members) = quiet_stretch();
    assert!(members > 200, "ring too small to mean anything: {members}");
    assert!(events > 100_000, "stretch too short: {events} events");
    let per_event = allocations as f64 / events as f64;
    println!("{allocations} allocations / {events} events = {per_event:.3} ({members} members)");
    assert!(
        per_event <= BUDGET,
        "{per_event:.3} heap allocations per event exceeds the budget of {BUDGET}"
    );
    // The count is a property of the simulated schedule, not of the host.
    assert_eq!(
        quiet_stretch(),
        (allocations, events, members),
        "a second run in the same process must count the same"
    );
}
