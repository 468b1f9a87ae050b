//! The routed requests a peer issued and still waits on.
//!
//! `insertItem`, `deleteItem`, `rangeQuery` and a restarted peer's donations
//! are routed to the peer responsible for their key. Until that peer answers
//! — an insert or delete acknowledgement, or the query's completion — the
//! issuer keeps one entry per request, keyed by its operation. A bounce off a
//! peer that is not responsible (stale routing state somewhere on the path)
//! names the request it bounced, and the entry's retry policy decides whether
//! it is routed again after a pause or given up.

use std::time::Duration;

use pepper_datastore::QueryId;
use pepper_net::SimTime;
use pepper_types::{ItemId, SystemConfig};

use crate::messages::RoutePayload;

/// A routed request, named by its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Request {
    /// An item insert, a client's or a donation, by item id.
    Insert(ItemId),
    /// An item delete, by the mapped value of its key.
    Delete(u64),
    /// A range query's scan start.
    Scan(QueryId),
}

impl Request {
    /// The request `payload` carries.
    pub(crate) fn of(payload: &RoutePayload) -> Self {
        match payload {
            RoutePayload::Insert { item, .. } => Request::Insert(item.id),
            RoutePayload::Delete { mapped, .. } => Request::Delete(*mapped),
            RoutePayload::ScanStart { query, .. } => Request::Scan(*query),
        }
    }
}

/// How a request is retried after a bounce: the pause before the first
/// re-route, the longest pause it doubles up to, and how many re-routes it
/// gets before it gives up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPolicy {
    first: Duration,
    longest: Duration,
    reroutes: u32,
}

impl RetryPolicy {
    /// A client insert, delete or scan start. Most bounces mean a split or
    /// merge is mid-flight, which settles within a few round trips, so the
    /// first re-routes come quickly. A failed peer's range stays unowned
    /// until its successor takes it over, several stabilization rounds
    /// later, so the pause doubles up to one stabilization period and the
    /// re-routes outlast a takeover (about 38 s at paper timers). A scan
    /// start that never gets through is ended incomplete by its query's
    /// safety net, just before its last re-route.
    pub(crate) fn client(cfg: &SystemConfig) -> Self {
        RetryPolicy {
            first: Duration::from_millis(25),
            longest: cfg.stabilization_period,
            reroutes: 16,
        }
    }
    /// A donation: a restarted peer handing a recovered item back to its
    /// live owner. It may race the failure-detection and takeover window
    /// that follows the donor's own crash, in which every insert into the
    /// donor's old range bounces, so it retries patiently: dropping it would
    /// lose an acknowledged item.
    pub(crate) const DONATION: Self = RetryPolicy::constant(Duration::from_millis(250), 40);

    /// The same `pause` before each of `reroutes` re-routes.
    const fn constant(pause: Duration, reroutes: u32) -> Self {
        RetryPolicy {
            first: pause,
            longest: pause,
            reroutes,
        }
    }

    /// The pause before re-route `n` (counted from 1): the first pause,
    /// doubled per earlier re-route, up to the longest.
    pub(crate) fn pause(&self, n: u32) -> Duration {
        let doublings = n.saturating_sub(1).min(31);
        self.first.saturating_mul(1 << doublings).min(self.longest)
    }
}

/// One issued request awaiting its answer.
#[derive(Debug)]
pub(crate) struct Issued {
    pub(crate) payload: RoutePayload,
    /// When it was issued.
    pub(crate) started: SimTime,
    /// How many times it bounced.
    attempts: u32,
    policy: RetryPolicy,
}

impl Issued {
    /// A request routed at `started`, not bounced yet.
    pub(crate) fn new(payload: RoutePayload, started: SimTime, policy: RetryPolicy) -> Self {
        Issued {
            payload,
            started,
            attempts: 0,
            policy,
        }
    }

    /// Counts a bounce: the pause before the request is routed again, or
    /// `None` once its re-routes are used up.
    pub(crate) fn bounced(&mut self) -> Option<Duration> {
        self.attempts += 1;
        (self.attempts <= self.policy.reroutes).then(|| self.policy.pause(self.attempts))
    }
}
