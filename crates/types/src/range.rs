//! Circular ranges on the peer-value ring and linear key intervals.
//!
//! A peer `p` on the ring is responsible for the half-open range
//! `(pred(p).val, p.val]` of the circular value space (`p.range` in the
//! paper). Because the space is circular, a range may *wrap around* the top
//! of the domain. [`CircularRange`] captures that, including the degenerate
//! single-peer case where one peer owns the whole circle.
//!
//! Range queries, on the other hand, are expressed over the *linear* key
//! domain `K`; because the domain is discrete (`u64`), every query normalizes
//! to a closed interval `[lo, hi]` represented by [`KeyInterval`]. The
//! intersection of a circular range with a linear interval — exactly the `r =
//! [lb, ub] ∩ p.range` computed by the `scanRange` handlers — yields at most
//! two disjoint linear intervals.

use std::fmt;

use crate::key::PeerValue;

/// Returns `true` iff `x` lies in the circular half-open interval `(a, b]`.
///
/// When `a == b` the interval is interpreted as the full circle (this is the
/// convention used by a single-peer ring, where the only peer is responsible
/// for everything).
#[inline]
pub fn in_half_open(a: u64, x: u64, b: u64) -> bool {
    if a == b {
        // Full circle.
        true
    } else if a < b {
        a < x && x <= b
    } else {
        x > a || x <= b
    }
}

/// Returns `true` iff `x` lies in the circular open interval `(a, b)`.
///
/// When `a == b` the interval is interpreted as "everything except `a`",
/// which is the convention Chord-style routing uses.
#[inline]
pub fn in_open(a: u64, x: u64, b: u64) -> bool {
    if a == b {
        x != a
    } else if a < b {
        a < x && x < b
    } else {
        x > a || x < b
    }
}

/// A closed interval `[lo, hi]` over the linear `u64` key/value domain.
///
/// Invariant: `lo <= hi`. Empty intervals are represented by `Option::None`
/// at use sites rather than by a degenerate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyInterval {
    lo: u64,
    hi: u64,
}

impl KeyInterval {
    /// Creates the closed interval `[lo, hi]`. Returns `None` if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Option<Self> {
        if lo <= hi {
            Some(KeyInterval { lo, hi })
        } else {
            None
        }
    }

    /// Creates a single-point interval `[v, v]`.
    pub const fn point(v: u64) -> Self {
        KeyInterval { lo: v, hi: v }
    }

    /// The full domain `[0, u64::MAX]`.
    pub const fn full() -> Self {
        KeyInterval {
            lo: u64::MIN,
            hi: u64::MAX,
        }
    }

    /// Lower (inclusive) endpoint.
    pub const fn lo(&self) -> u64 {
        self.lo
    }

    /// Upper (inclusive) endpoint.
    pub const fn hi(&self) -> u64 {
        self.hi
    }

    /// Returns `true` iff `v` lies within the interval.
    #[inline]
    pub const fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of values covered by the interval (saturating at `u64::MAX`).
    pub const fn len(&self) -> u64 {
        // hi - lo + 1, saturating for the full domain.
        let span = self.hi - self.lo;
        span.saturating_add(1)
    }

    /// Closed intervals are never empty (emptiness is `Option::None`).
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Intersection with another interval.
    pub fn intersect(&self, other: &KeyInterval) -> Option<KeyInterval> {
        KeyInterval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Returns `true` iff the two intervals overlap (the paper's `r1 ⋈ r2`).
    pub fn overlaps(&self, other: &KeyInterval) -> bool {
        self.intersect(other).is_some()
    }
}

impl fmt::Display for KeyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A circular half-open range `(low, high]` over the peer-value domain.
///
/// `low == high` together with the `full` flag distinguishes the full circle
/// (single-peer ring) from the empty range (a peer that has given up its
/// whole range during a merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircularRange {
    low: u64,
    high: u64,
    full: bool,
}

impl CircularRange {
    /// Creates the range `(low, high]`.
    ///
    /// If `low == high` this denotes the *empty* range; use
    /// [`CircularRange::full`] for the full circle.
    pub fn new(low: impl Into<PeerValue>, high: impl Into<PeerValue>) -> Self {
        let low = low.into().raw();
        let high = high.into().raw();
        CircularRange {
            low,
            high,
            full: false,
        }
    }

    /// Creates the full circle anchored at `high`, i.e. the range owned by
    /// the only peer of a one-peer ring whose value is `high`.
    pub fn full(high: impl Into<PeerValue>) -> Self {
        let high = high.into().raw();
        CircularRange {
            low: high,
            high,
            full: true,
        }
    }

    /// Creates an explicitly empty range anchored at `at`.
    pub fn empty(at: impl Into<PeerValue>) -> Self {
        let at = at.into().raw();
        CircularRange {
            low: at,
            high: at,
            full: false,
        }
    }

    /// Lower (exclusive) endpoint.
    pub const fn low(&self) -> PeerValue {
        PeerValue(self.low)
    }

    /// Upper (inclusive) endpoint.
    pub const fn high(&self) -> PeerValue {
        PeerValue(self.high)
    }

    /// Returns `true` iff this range covers the full circle.
    pub const fn is_full(&self) -> bool {
        self.full
    }

    /// Returns `true` iff this range covers nothing.
    pub const fn is_empty(&self) -> bool {
        self.low == self.high && !self.full
    }

    /// Returns `true` iff the range wraps around the top of the domain.
    pub const fn wraps(&self) -> bool {
        (self.low > self.high) || self.full
    }

    /// Returns `true` iff `v` lies in the range.
    #[inline]
    pub fn contains(&self, v: impl Into<PeerValue>) -> bool {
        if self.full {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        in_half_open(self.low, v.into().raw(), self.high)
    }

    /// Number of values covered (saturating at `u64::MAX`).
    pub fn len(&self) -> u64 {
        if self.full {
            u64::MAX
        } else {
            self.high.wrapping_sub(self.low)
        }
    }

    /// Extends this range by absorbing the range of its *successor*:
    /// `(low, high] ∪ (high, other_high] = (low, other_high]`.
    ///
    /// `other` must start exactly where `self` ends. This is the range
    /// hand-off performed by a Data Store merge. If the union covers the
    /// whole circle the result is the full range.
    pub fn merge_with_successor(&self, other: &CircularRange) -> Option<CircularRange> {
        if other.is_empty() {
            return Some(*self);
        }
        if self.is_empty() {
            return Some(*other);
        }
        if self.full || other.full {
            return Some(CircularRange::full(PeerValue(other.high)));
        }
        if other.low != self.high {
            return None;
        }
        if other.high == self.low {
            return Some(CircularRange::full(PeerValue(other.high)));
        }
        Some(CircularRange {
            low: self.low,
            high: other.high,
            full: false,
        })
    }

    /// Intersects the circular range with a linear closed interval, yielding
    /// up to two disjoint linear intervals (two when the range wraps around
    /// the top of the domain and the interval straddles it).
    pub fn intersect_interval(&self, iv: &KeyInterval) -> Vec<KeyInterval> {
        if self.is_empty() {
            return Vec::new();
        }
        if self.full {
            return vec![*iv];
        }
        let mut out = Vec::with_capacity(2);
        if self.low < self.high {
            // (low, high] == [low + 1, high] on the integer domain.
            if let Some(piece) =
                KeyInterval::new(self.low + 1, self.high).and_then(|p| p.intersect(iv))
            {
                out.push(piece);
            }
        } else {
            // Wrapping: (low, MAX] ∪ [0, high].
            if self.low < u64::MAX {
                if let Some(piece) =
                    KeyInterval::new(self.low + 1, u64::MAX).and_then(|p| p.intersect(iv))
                {
                    out.push(piece);
                }
            }
            if let Some(piece) = KeyInterval::new(0, self.high).and_then(|p| p.intersect(iv)) {
                out.push(piece);
            }
        }
        out
    }
}

impl fmt::Display for CircularRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.full {
            write!(f, "(*full* @{}]", self.high)
        } else if self.is_empty() {
            write!(f, "(empty @{})", self.high)
        } else {
            write!(f, "({}, {}]", self.low, self.high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_membership() {
        assert!(in_half_open(5, 7, 10));
        assert!(in_half_open(5, 10, 10));
        assert!(!in_half_open(5, 5, 10));
        assert!(!in_half_open(5, 11, 10));
        // Wrapping interval (20, 5].
        assert!(in_half_open(20, 25, 5));
        assert!(in_half_open(20, 3, 5));
        assert!(in_half_open(20, 5, 5));
        assert!(!in_half_open(20, 20, 5));
        assert!(!in_half_open(20, 10, 5));
        // Degenerate a == b: full circle.
        assert!(in_half_open(7, 7, 7));
        assert!(in_half_open(7, 100, 7));
    }

    #[test]
    fn open_membership() {
        assert!(in_open(5, 7, 10));
        assert!(!in_open(5, 10, 10));
        assert!(!in_open(5, 5, 10));
        assert!(in_open(20, 25, 5));
        assert!(!in_open(20, 5, 5));
        assert!(in_open(7, 8, 7));
        assert!(!in_open(7, 7, 7));
    }

    #[test]
    fn interval_basics() {
        let iv = KeyInterval::new(5, 10).unwrap();
        assert!(iv.contains(5));
        assert!(iv.contains(10));
        assert!(!iv.contains(4));
        assert_eq!(iv.len(), 6);
        assert!(KeyInterval::new(10, 5).is_none());
        assert_eq!(KeyInterval::point(3).len(), 1);
        assert_eq!(KeyInterval::full().len(), u64::MAX);
    }

    #[test]
    fn interval_intersection() {
        let a = KeyInterval::new(5, 10).unwrap();
        let b = KeyInterval::new(8, 20).unwrap();
        assert_eq!(a.intersect(&b), KeyInterval::new(8, 10));
        let c = KeyInterval::new(11, 20).unwrap();
        assert_eq!(a.intersect(&c), None);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn circular_range_membership() {
        let r = CircularRange::new(5u64, 10u64);
        assert!(r.contains(6u64));
        assert!(r.contains(10u64));
        assert!(!r.contains(5u64));
        assert!(!r.contains(11u64));
        assert!(!r.wraps());
        assert_eq!(r.len(), 5);

        let w = CircularRange::new(20u64, 5u64);
        assert!(w.wraps());
        assert!(w.contains(25u64));
        assert!(w.contains(0u64));
        assert!(w.contains(5u64));
        assert!(!w.contains(20u64));
        assert!(!w.contains(10u64));

        let f = CircularRange::full(7u64);
        assert!(f.is_full());
        assert!(f.contains(0u64));
        assert!(f.contains(7u64));
        assert!(f.contains(u64::MAX));

        let e = CircularRange::empty(7u64);
        assert!(e.is_empty());
        assert!(!e.contains(7u64));
        assert!(!e.contains(8u64));
    }

    #[test]
    fn merge_with_successor_rejoins_split() {
        let r = CircularRange::new(5u64, 10u64);
        let (a, b) = (
            CircularRange::new(5u64, 7u64),
            CircularRange::new(7u64, 10u64),
        );
        assert_eq!(a.merge_with_successor(&b), Some(r));
        // Non-adjacent ranges cannot merge.
        let far = CircularRange::new(12u64, 20u64);
        assert_eq!(a.merge_with_successor(&far), None);
    }

    #[test]
    fn merge_to_full_circle() {
        let a = CircularRange::new(5u64, 10u64);
        let b = CircularRange::new(10u64, 5u64);
        let merged = a.merge_with_successor(&b).unwrap();
        assert!(merged.is_full());
    }

    #[test]
    fn merge_with_empty() {
        let a = CircularRange::new(5u64, 10u64);
        let e = CircularRange::empty(10u64);
        assert_eq!(a.merge_with_successor(&e), Some(a));
        assert_eq!(e.merge_with_successor(&a), Some(a));
    }

    #[test]
    fn intersect_interval_non_wrapping() {
        let r = CircularRange::new(5u64, 10u64);
        let iv = KeyInterval::new(0, 100).unwrap();
        assert_eq!(
            r.intersect_interval(&iv),
            vec![KeyInterval::new(6, 10).unwrap()]
        );
        let iv2 = KeyInterval::new(8, 9).unwrap();
        assert_eq!(r.intersect_interval(&iv2), vec![iv2]);
        let iv3 = KeyInterval::new(11, 20).unwrap();
        assert!(r.intersect_interval(&iv3).is_empty());
    }

    #[test]
    fn intersect_interval_wrapping() {
        let r = CircularRange::new(u64::MAX - 5, 10u64);
        let iv = KeyInterval::full();
        let pieces = r.intersect_interval(&iv);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0], KeyInterval::new(u64::MAX - 4, u64::MAX).unwrap());
        assert_eq!(pieces[1], KeyInterval::new(0, 10).unwrap());
        // An interval entirely inside the low piece.
        let iv2 = KeyInterval::new(2, 4).unwrap();
        assert_eq!(r.intersect_interval(&iv2), vec![iv2]);
    }

    #[test]
    fn intersect_interval_full_and_empty() {
        let f = CircularRange::full(3u64);
        let iv = KeyInterval::new(10, 20).unwrap();
        assert_eq!(f.intersect_interval(&iv), vec![iv]);
        let e = CircularRange::empty(3u64);
        assert!(e.intersect_interval(&iv).is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(CircularRange::new(5u64, 10u64).to_string(), "(5, 10]");
        assert_eq!(CircularRange::full(3u64).to_string(), "(*full* @3]");
        assert_eq!(CircularRange::empty(3u64).to_string(), "(empty @3)");
        assert_eq!(KeyInterval::new(1, 2).unwrap().to_string(), "[1, 2]");
    }
}
