//! A hierarchical timer wheel for the simulator's event queue.
//!
//! The old queue was a global `BinaryHeap<QueuedEvent>` whose entries
//! carried the full message payload — every sift moved a large enum
//! `O(log n)` times, and the protocol's timer-churn workload (hundreds of
//! staggered periodic timers per peer ring) kept the heap deep. The wheel
//! replaces it with:
//!
//! * a **payload slab**: messages are stored once and addressed by a `u32`
//!   handle, so ordering structures only ever move 24-byte entries; its
//!   slots come in fixed pages, so a peak queue costs at most one page of
//!   slack;
//! * a **near ring** of [`NEAR_SLOTS`] time buckets ([`SLOT_NANOS`] ns
//!   each, ~268 ms of look-ahead at the default width) with an occupancy
//!   bitmask — pushes into the near future are O(1) bucket appends, and
//!   advancing skips empty buckets at word-scan speed;
//! * a **far map** for events beyond the ring's current *lap* (one full
//!   turn, [`NEAR_SLOTS`] buckets): a `BTreeMap` of one unsorted bucket per
//!   lap, spread over the ring when the cursor enters that lap. Protocol
//!   timers (0.5–4 s) all start out here, so a bucket per lap rather than
//!   per time slot is what keeps them from allocating per timer. A lap's
//!   bucket is freed once spread, not recycled: the farthest timers (each
//!   query's safety net, 30 s and more ahead) keep over a hundred laps
//!   occupied with a few entries each, and recycled buckets would give
//!   every one of them the capacity of the fullest lap ever seen;
//! * a small **overdue heap** for entries pushed behind the cursor —
//!   `peek` moves the cursor to the next event's bucket, so what the harness
//!   schedules at the current time after `run_until` looked past its
//!   deadline can land in already-drained buckets.
//!
//! Pop order is the simulator's total event order: strictly increasing
//! `(time, seq)`, bucket contents sorted on first drain. The wheel is a
//! drop-in priority queue: `pop` always returns the minimum `(time, seq)`
//! entry among the current contents, wherever it lives.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::SimTime;

/// log2 of the bucket width in nanoseconds (262 µs): fine enough that
/// LAN-latency deliveries spread over a few buckets, coarse enough that
/// the protocol's 100–200 ms timer periods stay inside the near ring.
const SLOT_SHIFT: u32 = 18;
/// Bucket width in nanoseconds.
#[cfg(test)]
const SLOT_NANOS: u64 = 1 << SLOT_SHIFT;
/// log2 of the number of buckets in the near ring.
const LAP_SHIFT: u32 = 10;
/// Number of buckets in the near ring (power of two).
pub(crate) const NEAR_SLOTS: u64 = 1 << LAP_SHIFT;
const NEAR_MASK: u64 = NEAR_SLOTS - 1;
const OCC_WORDS: usize = (NEAR_SLOTS / 64) as usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    idx: u32,
}

/// log2 of the number of payload slots in one slab page.
const PAGE_SHIFT: u32 = 10;
/// Payload slots per slab page.
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = PAGE_SLOTS as u32 - 1;

/// Slab of event payloads addressed by `u32` handles with free-list reuse:
/// message buffers are recycled in place instead of being reallocated per
/// event. The slots live in fixed pages of [`PAGE_SLOTS`], allocated as the
/// queue first grows past them, so the slab holds at most one page it does
/// not use instead of a doubling vector's slack. A handle is
/// `page << PAGE_SHIFT | slot`.
struct Slab<T> {
    pages: Vec<Vec<Option<T>>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            pages: Vec::new(),
            free: Vec::new(),
        }
    }

    fn slot(&mut self, idx: u32) -> &mut Option<T> {
        &mut self.pages[(idx >> PAGE_SHIFT) as usize][(idx & PAGE_MASK) as usize]
    }

    fn insert(&mut self, value: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            *self.slot(idx) = Some(value);
            return idx;
        }
        if self
            .pages
            .last()
            .map_or(true, |page| page.len() == PAGE_SLOTS)
        {
            self.pages.push(Vec::with_capacity(PAGE_SLOTS));
        }
        let page = (self.pages.len() - 1) as u32;
        let last = self.pages.last_mut().expect("a page with room");
        last.push(Some(value));
        page << PAGE_SHIFT | (last.len() - 1) as u32
    }

    fn take(&mut self, idx: u32) -> T {
        let v = self.slot(idx).take().expect("slab slot occupied");
        self.free.push(idx);
        v
    }

    /// Slots handed out so far, over every page.
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }
}

/// The event wheel: a total-order priority queue on `(SimTime, seq)`.
pub(crate) struct EventWheel<T> {
    payloads: Slab<T>,
    /// Near ring, indexed by `bucket & NEAR_MASK`. Invariant: holds only
    /// entries whose bucket lies after the cursor in the cursor's lap.
    near: Vec<Vec<Entry>>,
    occupied: [u64; OCC_WORDS],
    /// Events of later laps, keyed by lap (`bucket >> LAP_SHIFT`).
    far: BTreeMap<u64, Vec<Entry>>,
    /// Entries pushed behind the cursor (scheduled after a `peek` ran
    /// ahead): always strictly earlier than anything in the current bucket.
    overdue: BinaryHeap<Reverse<Entry>>,
    /// Absolute bucket index currently being drained.
    cursor: u64,
    /// The current bucket's entries, sorted ascending; `drain_next` points
    /// at the next entry to pop.
    drain: Vec<Entry>,
    drain_next: usize,
    len: usize,
}

impl<T> EventWheel<T> {
    pub(crate) fn new() -> Self {
        EventWheel {
            payloads: Slab::new(),
            near: (0..NEAR_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            far: BTreeMap::new(),
            overdue: BinaryHeap::new(),
            cursor: 0,
            drain: Vec::new(),
            drain_next: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_bit(&mut self, bucket: u64) {
        let r = (bucket & NEAR_MASK) as usize;
        self.occupied[r >> 6] |= 1u64 << (r & 63);
    }

    #[inline]
    fn clear_bit(&mut self, bucket: u64) {
        let r = (bucket & NEAR_MASK) as usize;
        self.occupied[r >> 6] &= !(1u64 << (r & 63));
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let idx = self.payloads.insert(payload);
        let entry = Entry {
            at: at.as_nanos(),
            seq,
            idx,
        };
        self.len += 1;
        let bucket = entry.at >> SLOT_SHIFT;
        if bucket < self.cursor {
            self.overdue.push(Reverse(entry));
        } else if bucket == self.cursor {
            // Insert into the still-undrained suffix of the current bucket,
            // keeping it sorted: the entry only needs to land in order among
            // the REMAINING ones.
            let tail = &self.drain[self.drain_next..];
            let pos = tail.partition_point(|e| (e.at, e.seq) < (entry.at, entry.seq));
            self.drain.insert(self.drain_next + pos, entry);
        } else if bucket >> LAP_SHIFT == self.cursor >> LAP_SHIFT {
            self.push_near(bucket, entry);
        } else {
            self.far.entry(bucket >> LAP_SHIFT).or_default().push(entry);
        }
    }

    #[inline]
    fn push_near(&mut self, bucket: u64, entry: Entry) {
        self.near[(bucket & NEAR_MASK) as usize].push(entry);
        self.set_bit(bucket);
    }

    /// First occupied near bucket strictly after the cursor, if any. The
    /// ring holds one lap, so the scan runs from the cursor's position to
    /// the end of the ring and never wraps (a cursor on a lap's last bucket,
    /// where `advance` parks it before spreading the next lap, scans the
    /// whole ring).
    fn scan_near(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & NEAR_MASK) as usize;
        let mut mask = !0u64 << (start & 63);
        for w in (start >> 6)..OCC_WORDS {
            let word = self.occupied[w] & mask;
            if word != 0 {
                let position = w * 64 + word.trailing_zeros() as usize;
                return Some(self.cursor + 1 + (position - start) as u64);
            }
            mask = !0;
        }
        None
    }

    /// Moves the cursor to the next occupied bucket and fills the drain
    /// list. Returns `false` when no bucketed entries remain.
    fn advance(&mut self) -> bool {
        let next = loop {
            if let Some(next) = self.scan_near() {
                break next;
            }
            // The cursor's lap is exhausted: spread the next occupied lap
            // over the (now empty) ring and scan it from its first bucket.
            let Some((lap, entries)) = self.far.pop_first() else {
                return false;
            };
            self.cursor = (lap << LAP_SHIFT) - 1;
            for entry in entries {
                self.push_near(entry.at >> SLOT_SHIFT, entry);
            }
        };
        self.cursor = next;
        self.drain.clear();
        self.drain_next = 0;
        std::mem::swap(&mut self.drain, &mut self.near[(next & NEAR_MASK) as usize]);
        self.clear_bit(next);
        self.drain.sort_unstable();
        true
    }

    fn ensure_drain(&mut self) {
        while self.drain_next >= self.drain.len() {
            if !self.advance() {
                break;
            }
        }
    }

    /// Time of the earliest queued event.
    pub(crate) fn peek(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Overdue entries are strictly earlier than the current bucket
        // (their bucket index is below the cursor), so they win outright.
        if let Some(Reverse(e)) = self.overdue.peek() {
            return Some(SimTime::from_nanos(e.at));
        }
        self.ensure_drain();
        self.drain
            .get(self.drain_next)
            .map(|e| SimTime::from_nanos(e.at))
    }

    /// Pops the minimum `(time, seq)` entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let entry = if let Some(Reverse(e)) = self.overdue.peek() {
            let e = *e;
            self.overdue.pop();
            e
        } else {
            self.ensure_drain();
            let e = self.drain[self.drain_next];
            self.drain_next += 1;
            e
        };
        self.len -= 1;
        let payload = self.payloads.take(entry.idx);
        Some((SimTime::from_nanos(entry.at), entry.seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the old global heap.
    struct RefHeap {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        payloads: Vec<u32>,
    }

    impl RefHeap {
        fn new() -> Self {
            RefHeap {
                heap: BinaryHeap::new(),
                payloads: Vec::new(),
            }
        }
        fn push(&mut self, at: u64, seq: u64, payload: u32) {
            let idx = self.payloads.len() as u32;
            self.payloads.push(payload);
            self.heap.push(Reverse((at, seq, idx)));
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap
                .pop()
                .map(|Reverse((at, seq, idx))| (at, seq, self.payloads[idx as usize]))
        }
    }

    /// A tiny deterministic PRNG (xorshift) so the equivalence sweep needs
    /// no external crates.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn same_time_entries_pop_in_seq_order() {
        // The tie-break the whole simulator's determinism rests on: equal
        // times pop in strictly increasing seq order, exactly like the old
        // heap's (at, seq) ordering.
        let mut w: EventWheel<u64> = EventWheel::new();
        let t = SimTime::from_millis(7);
        for seq in [5u64, 1, 9, 3, 7] {
            w.push(t, seq, seq * 100);
        }
        let mut seqs = Vec::new();
        while let Some((at, seq, payload)) = w.pop() {
            assert_eq!(at, t);
            assert_eq!(payload, seq * 100);
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn matches_binary_heap_on_randomized_schedules() {
        // Interleaved pushes and pops over a wide time range: near-ring
        // hits, far-map cascades, same-bucket ties, zero-delay events. The
        // wheel must reproduce the reference heap's pop sequence exactly.
        for trial in 0..8u64 {
            let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (trial + 1));
            let mut wheel: EventWheel<u32> = EventWheel::new();
            let mut reference = RefHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = 0usize;
            let mut most_queued = 0usize;
            for step in 0..4000 {
                let burst = rng.next() % 4;
                for _ in 0..=burst {
                    // Mix of horizons: same-bucket, near-ring, far future.
                    let delay = match rng.next() % 10 {
                        0 => 0,
                        1..=5 => rng.next() % (SLOT_NANOS * 4),
                        6..=8 => rng.next() % (SLOT_NANOS * NEAR_SLOTS / 2),
                        _ => rng.next() % (SLOT_NANOS * NEAR_SLOTS * 8),
                    };
                    let at = now + delay;
                    wheel.push(SimTime::from_nanos(at), seq, seq as u32);
                    reference.push(at, seq, seq as u32);
                    seq += 1;
                }
                most_queued = most_queued.max(wheel.len());
                if step % 2 == 0 {
                    for _ in 0..(rng.next() % 4) {
                        let got = wheel.pop();
                        let want = reference.pop();
                        assert_eq!(
                            got.map(|(at, s, p)| (at.as_nanos(), s, p)),
                            want,
                            "trial {trial}, step {step}"
                        );
                        if let Some((at, _, _)) = want {
                            now = now.max(at);
                            popped += 1;
                        }
                    }
                }
            }
            while let Some(want) = reference.pop() {
                let got = wheel.pop().expect("wheel drained early");
                assert_eq!((got.0.as_nanos(), got.1, got.2), want);
                popped += 1;
            }
            assert!(wheel.pop().is_none());
            assert!(wheel.is_empty());
            assert!(popped > 1000, "sweep too small to mean anything");
            // Handles on three or more pages: the sweep crossed at least two
            // page boundaries of the slab.
            assert!(
                most_queued > 2 * PAGE_SLOTS,
                "queue peaked at {most_queued}"
            );
        }
    }

    #[test]
    fn overdue_pushes_behind_the_cursor_still_pop_in_order() {
        // `peek` moves the cursor to the next event's bucket; whatever is
        // scheduled for an earlier time afterwards lands BEHIND the cursor
        // and must still pop before everything later.
        let mut w: EventWheel<&'static str> = EventWheel::new();
        let far = SimTime::from_millis(50);
        w.push(far, 10, "late");
        // Drain up to `far`'s bucket so the cursor moves past early buckets.
        assert_eq!(w.peek(), Some(far));
        // Now push behind the cursor.
        let early = SimTime::from_millis(1);
        w.push(early, 11, "overdue");
        assert_eq!(w.peek(), Some(early));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("overdue"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("late"));
        assert!(w.pop().is_none());
    }

    #[test]
    fn payload_slots_are_reused_across_events() {
        let mut w: EventWheel<Vec<u8>> = EventWheel::new();
        for round in 0..100u64 {
            w.push(SimTime::from_nanos(round), round, vec![round as u8]);
            let (_, _, p) = w.pop().unwrap();
            assert_eq!(p, vec![round as u8]);
        }
        // One push-pop at a time: the slab never needs more than one slot.
        assert_eq!(w.payloads.slots(), 1, "slab must recycle freed slots");
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: EventWheel<()> = EventWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
        assert!(w.pop().is_none());
        w.push(SimTime::ZERO, 0, ());
        assert_eq!(w.len(), 1);
        assert!(w.pop().is_some());
        assert!(w.is_empty());
    }
}
