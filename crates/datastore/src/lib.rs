//! The P-Ring Data Store with the PEPPER `scanRange` primitive.
//!
//! This crate implements the Data Store component of the indexing framework
//! (Section 2.2/2.3 of the paper) together with the concurrency-safe range
//! scan of Section 4.3.2:
//!
//! * **order-preserving item placement**: an item `i` is stored at the peer
//!   whose range `(pred.val, p.val]` contains `M(i.skv)`;
//! * **storage balance**: a live peer holds between `sf` and `2·sf` items.
//!   Overflows trigger a **split** with a free peer, underflows trigger a
//!   **merge / redistribute** with the successor (Section 2.3);
//! * **`scanRange`** (Algorithms 3–7): a range scan walks the ring holding a
//!   hand-over-hand read lock on each peer's range, so that concurrent
//!   splits, merges and redistributions can never cause live items to be
//!   missed (Theorems 2 and 3). Range-changing writes that arrive while a
//!   scan holds the lock are *deferred* and applied when the lock is
//!   released;
//! * the **naive application-level scan** used as the baseline in Section 6,
//!   which takes no locks and can therefore miss items (Section 4.2.2);
//! * a **hashed placement** baseline (Chord/CFS style) used by the
//!   load-balance ablation.
//!
//! Like the ring, the Data Store is a pure state machine: handlers consume
//! [`DsMsg`]s and emit effects plus [`DsEvent`]s for the composed peer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod balance;
pub mod events;
pub mod messages;
pub mod scan;
pub mod state;
pub mod store;

pub use events::DsEvent;
pub use messages::{DsMsg, QueryId};
pub use state::{DataStoreState, DsSnapshot, DsStatus};
pub use store::ItemStore;
