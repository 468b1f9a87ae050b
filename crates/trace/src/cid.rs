//! Correlation ids.

use std::fmt;

/// A correlation id tying every message, timer and layer event back to the
/// root cause that started the causal chain.
///
/// Minted by the simulator from `(virtual time, event sequence number)` at
/// every *root*: an external message injection or a harness API call made
/// through `with_node_ctx`. Every effect (send or timer) scheduled while
/// handling an event inherits the event's id, so a range query's whole scan
/// path — and a failure's whole takeover/recovery cascade, which rides the
/// ping-timer chain that detected it — shares one id.
///
/// # Determinism
///
/// Both components are canonical simulator state: virtual time and the
/// global event sequence number. No wall clock and no RNG draw ever
/// contributes, so a trace keyed by these ids is reproducible by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cid {
    /// Virtual time (nanoseconds) at which the root was minted.
    pub nanos: u64,
    /// The simulator's event sequence number at the mint point.
    pub seq: u64,
}

impl Cid {
    /// The "no correlation" sentinel, used before any root has been minted
    /// (e.g. events delivered by test drivers that bypass the roots).
    pub const NONE: Cid = Cid {
        nanos: u64::MAX,
        seq: u64::MAX,
    };

    /// Creates an id from a virtual-time nanosecond stamp and a sequence
    /// number.
    pub const fn new(nanos: u64, seq: u64) -> Self {
        Cid { nanos, seq }
    }

    /// Returns `true` for the [`Cid::NONE`] sentinel.
    pub const fn is_none(&self) -> bool {
        self.nanos == u64::MAX && self.seq == u64::MAX
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "c-")
        } else {
            write!(f, "c{}.{}", self.nanos, self.seq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_time_then_seq() {
        let a = Cid::new(10, 5);
        let b = Cid::new(10, 6);
        let c = Cid::new(11, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_and_sentinel() {
        assert_eq!(Cid::new(1500, 7).to_string(), "c1500.7");
        assert_eq!(Cid::NONE.to_string(), "c-");
        assert!(Cid::NONE.is_none());
        assert!(!Cid::new(0, 0).is_none());
    }
}
