//! Content routers for the PEPPER P2P range index.
//!
//! The Content Router of the indexing framework locates, in a small number of
//! hops, the peer responsible for a given value — it is used to route item
//! insertions/deletions and to find the first peer of a range scan. The
//! paper uses the P-Ring content router (a hierarchy of rings); its details
//! are explicitly out of scope there ("the details of the content router are
//! not relevant here"), and none of the reproduced figures measure it. This
//! crate therefore provides:
//!
//! * [`HierarchicalRouter`]: a position-based shortcut router in the spirit
//!   of the P-Ring hierarchy — level `i` points roughly `2^i` peers ahead and
//!   is maintained lazily by asking the level `i-1` target for *its* level
//!   `i-1` pointer. Routing picks the farthest shortcut that does not
//!   overshoot the destination and falls back to the ring successor, giving
//!   `O(log n)` hops on a stable ring and graceful degradation under churn;
//! * a trivial linear fallback (just follow successors), which is what the
//!   hierarchical router degenerates to before its shortcuts are built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod messages;
pub mod router;

pub use messages::RouterMsg;
pub use router::{HierarchicalRouter, RouterEvent};
