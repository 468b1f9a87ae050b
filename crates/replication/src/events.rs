//! Events reported by the Replication Manager to the composed peer.

/// An event emitted by the replication layer.
///
/// The refresh loop needs the peer's current Data Store content and successor
/// list — state owned by *other* layers. Instead of threading that state into
/// the message handler (which would break the uniform
/// [`ProtocolLayer`](pepper_net::ProtocolLayer) boundary), the layer reports
/// that a refresh round is due and the composed peer calls
/// [`refresh`](crate::ReplicationManager::refresh) with the cross-layer
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplEvent {
    /// The periodic refresh timer fired: the composed peer should push the
    /// Data Store's items to the current successors.
    RefreshDue,
    /// A recovery reply arrived: the composed peer should offer these items
    /// to the Data Store (which installs the ones inside its range that it
    /// does not already hold).
    Recovered {
        /// The recovered items (mapped value, item).
        items: Vec<(u64, pepper_types::Item)>,
    },
    /// A replica push landed and actually changed the replica store. Only
    /// the *delta* (new or replaced entries) is reported: every push carries
    /// the owner's whole item set, and journaling the entries already held
    /// would grow the durable WAL with no-ops.
    ReplicasInstalled {
        /// The new or changed replicas (mapped value, item).
        items: Vec<(u64, pepper_types::Item)>,
    },
}

impl ReplEvent {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            ReplEvent::RefreshDue => "RefreshDue",
            ReplEvent::Recovered { .. } => "Recovered",
            ReplEvent::ReplicasInstalled { .. } => "ReplicasInstalled",
        }
    }
}
