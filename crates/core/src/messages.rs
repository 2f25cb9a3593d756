//! DRS control messages.
//!
//! DRS needs remarkably little signalling: the monitoring phase is pure
//! ICMP, and repair only speaks when **both** direct links to a peer are
//! gone — a broadcast question ("who can still reach X?") answered by
//! unicast offers. Requests carry a per-requester id so stale offers from
//! an earlier round cannot install an outdated gateway.

use crate::ids::NodeId;

/// A DRS control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrsMsg {
    /// Broadcast: "can anyone act as a gateway between me and `target`?"
    RouteRequest {
        /// The unreachable peer.
        target: NodeId,
        /// Requester-local discovery round, echoed in offers.
        req_id: u64,
    },
    /// Unicast answer: "I have live direct links to both of you."
    RouteOffer {
        /// The peer the offer is about.
        target: NodeId,
        /// The `req_id` of the request being answered.
        req_id: u64,
    },
}

impl DrsMsg {
    /// The peer this message concerns.
    #[must_use]
    pub fn target(&self) -> NodeId {
        match self {
            DrsMsg::RouteRequest { target, .. } | DrsMsg::RouteOffer { target, .. } => *target,
        }
    }

    /// The discovery round this message belongs to.
    #[must_use]
    pub fn req_id(&self) -> u64 {
        match self {
            DrsMsg::RouteRequest { req_id, .. } | DrsMsg::RouteOffer { req_id, .. } => *req_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let rq = DrsMsg::RouteRequest {
            target: NodeId(4),
            req_id: 9,
        };
        let of = DrsMsg::RouteOffer {
            target: NodeId(4),
            req_id: 9,
        };
        assert_eq!(rq.target(), NodeId(4));
        assert_eq!(of.target(), NodeId(4));
        assert_eq!(rq.req_id(), 9);
        assert_eq!(of.req_id(), 9);
        assert_ne!(rq, of);
    }
}
