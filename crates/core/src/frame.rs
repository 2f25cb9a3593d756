//! Frames: the unit of transmission on a simulated network segment.
//!
//! A frame models one Ethernet frame on one of the two networks. The kind
//! distinguishes kernel-level ICMP echo traffic, routing-daemon control
//! messages (generic over the protocol's message type `M`), and
//! application data segments carried by the reliable transport.

use drs_obs::flight::EventRef;

use crate::ids::{FlowId, NetId, NodeId};

/// L2 destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Addressed to a single host's NIC on the segment.
    Node(NodeId),
    /// Broadcast to every live NIC on the segment (e.g. DRS route
    /// discovery).
    Broadcast,
}

/// Whether a data segment carries payload or acknowledges one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Payload segment travelling source → destination.
    Data,
    /// Acknowledgement travelling destination → source.
    Ack,
}

/// An application data segment (the transport's unit of retransmission).
///
/// `src`/`dst` are the *end-to-end* endpoints; the enclosing [`Frame`]
/// carries the L2 hop (which may be a gateway when the route is indirect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Originating host.
    pub src: NodeId,
    /// Final destination host.
    pub dst: NodeId,
    /// Flow this segment belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow.
    pub seq: u32,
    /// Payload or acknowledgement.
    pub kind: SegmentKind,
    /// Remaining hop budget; decremented at each forwarding host, the
    /// frame is dropped at zero (routing-loop backstop).
    pub ttl: u8,
    /// Payload size in bytes (used for serialization delay).
    pub payload_bytes: u32,
    /// Which transmission attempt this is (1 = first send). Receivers can
    /// tell retransmitted data apart — the analogue of a TCP receiver
    /// seeing an already-acknowledged sequence number again.
    pub attempt: u32,
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameKind<M> {
    /// ICMP echo request (kernel answers without daemon involvement).
    EchoRequest {
        /// Prober-chosen identifier, returned verbatim in the reply.
        id: u32,
        /// Prober-chosen sequence number, returned verbatim.
        seq: u32,
    },
    /// ICMP echo reply.
    EchoReply {
        /// Identifier copied from the request.
        id: u32,
        /// Sequence copied from the request.
        seq: u32,
    },
    /// Routing-daemon control message (DRS, RIP, …).
    Control(M),
    /// Application data carried by the reliable transport. Boxed: a
    /// segment is 32 bytes, twice any other arm, and inline it would make
    /// every probe frame carry room for one. Data frames are rare, and
    /// the simulator recycles their boxes the way it recycles frames.
    Data(Box<Segment>),
}

/// One frame in flight on one network segment.
///
/// The simulator queues every frame in its own heap box, and at
/// N = 1024, K = 2 it holds two million probe frames at once, so the
/// frame's size decides the malloc class of each: 48 bytes with the DRS
/// message type, a 64-byte chunk (it was 88 bytes and a 96-byte chunk
/// while the data segment and the flight identity were carried inline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<M> {
    /// Transmitting host.
    pub src: NodeId,
    /// L2 destination on this segment.
    pub dst: Destination,
    /// Which of the two networks the frame is on.
    pub net: NetId,
    /// Contents.
    pub kind: FrameKind<M>,
    /// Total on-wire size in bytes, including all headers. Determines the
    /// serialization delay on the shared medium.
    pub wire_bytes: u32,
    /// Flight-recorder identity of the trace record that launched this
    /// frame (the probe's `ProbeSend`), carried so kernel loss sites and
    /// the echo auto-reply can name their cause. Pure metadata: never
    /// read by scheduling, routing or accounting, so traced and
    /// untraced runs dispatch identical events. Boxed, because it is
    /// `None` unless the recorder is on: an untraced frame pays 8 bytes
    /// for it, not the 32 of an inline `Option<EventRef>`, and allocates
    /// nothing.
    pub flight: Option<Box<EventRef>>,
}

impl<M> Frame<M> {
    /// True for ICMP echo traffic (probe overhead accounting).
    #[must_use]
    pub fn is_probe(&self) -> bool {
        matches!(
            self.kind,
            FrameKind::EchoRequest { .. } | FrameKind::EchoReply { .. }
        )
    }

    /// True for routing-daemon control messages.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self.kind, FrameKind::Control(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind<u8>) -> Frame<u8> {
        Frame {
            src: NodeId(0),
            dst: Destination::Node(NodeId(1)),
            net: NetId::A,
            kind,
            wire_bytes: 74,
            flight: None,
        }
    }

    #[test]
    fn classification() {
        assert!(frame(FrameKind::EchoRequest { id: 1, seq: 2 }).is_probe());
        assert!(frame(FrameKind::EchoReply { id: 1, seq: 2 }).is_probe());
        assert!(frame(FrameKind::Control(9)).is_control());
        let seg = Segment {
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(1),
            seq: 0,
            kind: SegmentKind::Data,
            ttl: 8,
            payload_bytes: 512,
            attempt: 1,
        };
        assert!(!frame(FrameKind::Data(Box::new(seg))).is_probe());
    }
}
