//! Fault-tolerant ring with provably consistent successor pointers.
//!
//! This crate implements the ring layer of the paper:
//!
//! * a Chord-style fault-tolerant ring: every peer keeps a successor list of
//!   length `d`, periodically **stabilizes** with its first live successor
//!   (copying and shifting its successor list), and **pings** its successor to
//!   detect fail-stop failures;
//! * the paper's **PEPPER `insertSucc`** (Section 4.3.1, Algorithms 1–2 and
//!   appendix Algorithms 8–11): a newly inserted peer stays in the `JOINING`
//!   state, knowledge of it is propagated backwards through the predecessors
//!   by piggybacking on ring stabilization (plus the paper's proactive
//!   stabilization-trigger optimization), and only when the farthest relevant
//!   predecessor has learned about it does the inserter receive a *join ack*
//!   and transition the peer to `JOINED`. This guarantees *consistent
//!   successor pointers* (Theorem 1, checked by [`consistency`]);
//! * the paper's **availability-preserving `leave`** (Section 5.1): a leaving
//!   peer stays in the `LEAVING` state while every predecessor that points to
//!   it lengthens its successor list by one; only then does the peer receive a
//!   *leave ack* and actually depart, so a single subsequent failure cannot
//!   disconnect the ring;
//! * the **naive baselines** the paper compares against in Section 6: naive
//!   `insertSucc` (the joining peer immediately becomes part of the ring) and
//!   naive `leave` (the peer departs without telling anyone).
//!
//! The ring is written as a pure state machine ([`RingState`]): handlers
//! consume messages and emit [`Effects`](pepper_net::Effects) plus
//! [`RingEvent`]s for the layers above (Data Store, Replication Manager).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod consistency;
pub mod entry;
pub mod events;
pub mod join;
pub mod leave;
pub mod messages;
pub mod ping;
pub mod stabilization;
pub mod state;

pub use entry::{EntryState, RingPhase, SuccEntry};
pub use events::RingEvent;
pub use messages::RingMsg;
pub use state::RingState;
