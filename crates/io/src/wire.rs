//! Datagram codec for the live UDP backend.
//!
//! One DRS frame per UDP datagram, fixed little-endian layout, no
//! dependencies. The format mirrors what the DES kernel carries in its
//! [`drs_core::frame::FrameKind`]: echo request/reply (the monitor
//! plane) and the two control messages (the repair plane). The plane
//! index travels in the datagram so a receiver can verify it against
//! the socket the datagram arrived on.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0]      kind: 1 echo-request, 2 echo-reply, 3 route-request, 4 route-offer
//! [1..5]   src node id (u32)
//! [5]      plane index (u8)
//! echo:    [6..10] icmp id (u32), [10..14] seq (u32)          -> 14 B
//! control: [6..10] target node (u32), [10..18] req id (u64)   -> 18 B
//! ```

use drs_core::messages::DrsMsg;
use drs_core::{NetId, NodeId};

/// One decoded datagram: who sent it, on which plane, carrying what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Plane the sender transmitted on.
    pub net: NetId,
    /// The payload.
    pub payload: Payload,
}

/// The DRS frame kinds that cross the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Monitor probe (answered by the receiver's stack, not its daemon).
    EchoRequest {
        /// ICMP identifier.
        id: u32,
        /// ICMP sequence number.
        seq: u32,
    },
    /// Answer to a probe (delivered to the receiver's daemon).
    EchoReply {
        /// ICMP identifier.
        id: u32,
        /// ICMP sequence number.
        seq: u32,
    },
    /// A DRS control message (delivered to the receiver's daemon).
    Control(DrsMsg),
}

const KIND_ECHO_REQUEST: u8 = 1;
const KIND_ECHO_REPLY: u8 = 2;
const KIND_ROUTE_REQUEST: u8 = 3;
const KIND_ROUTE_OFFER: u8 = 4;

/// Maximum encoded size of any datagram.
pub const MAX_DATAGRAM: usize = 18;

/// Encodes a datagram into `buf`, returning the number of bytes used.
///
/// # Panics
/// Panics if `buf` is shorter than [`MAX_DATAGRAM`].
pub fn encode(d: &Datagram, buf: &mut [u8]) -> usize {
    assert!(buf.len() >= MAX_DATAGRAM, "encode buffer too small");
    buf[1..5].copy_from_slice(&d.src.0.to_le_bytes());
    buf[5] = d.net.0;
    match d.payload {
        Payload::EchoRequest { id, seq } | Payload::EchoReply { id, seq } => {
            buf[0] = if matches!(d.payload, Payload::EchoRequest { .. }) {
                KIND_ECHO_REQUEST
            } else {
                KIND_ECHO_REPLY
            };
            buf[6..10].copy_from_slice(&id.to_le_bytes());
            buf[10..14].copy_from_slice(&seq.to_le_bytes());
            14
        }
        Payload::Control(msg) => {
            let (kind, target, req_id) = match msg {
                DrsMsg::RouteRequest { target, req_id } => (KIND_ROUTE_REQUEST, target, req_id),
                DrsMsg::RouteOffer { target, req_id } => (KIND_ROUTE_OFFER, target, req_id),
            };
            buf[0] = kind;
            buf[6..10].copy_from_slice(&target.0.to_le_bytes());
            buf[10..18].copy_from_slice(&req_id.to_le_bytes());
            18
        }
    }
}

/// Decodes one datagram; `None` for an unknown kind or a length other
/// than the kind's exact size (14 B echo, 18 B control), so neither a
/// truncated frame nor one with trailing bytes passes for a valid one.
/// A live receiver counts what this refuses and drops it.
#[must_use]
pub fn decode(buf: &[u8]) -> Option<Datagram> {
    let kind = *buf.first()?;
    let size = match kind {
        KIND_ECHO_REQUEST | KIND_ECHO_REPLY => 14,
        KIND_ROUTE_REQUEST | KIND_ROUTE_OFFER => 18,
        _ => return None,
    };
    if buf.len() != size {
        return None;
    }
    let u32_at = |i: usize| Some(u32::from_le_bytes(buf[i..i + 4].try_into().ok()?));
    let src = NodeId(u32_at(1)?);
    let net = NetId(buf[5]);
    let payload = match kind {
        KIND_ECHO_REQUEST => Payload::EchoRequest {
            id: u32_at(6)?,
            seq: u32_at(10)?,
        },
        KIND_ECHO_REPLY => Payload::EchoReply {
            id: u32_at(6)?,
            seq: u32_at(10)?,
        },
        _ => {
            let target = NodeId(u32_at(6)?);
            let req_id = u64::from_le_bytes(buf[10..18].try_into().ok()?);
            Payload::Control(if kind == KIND_ROUTE_REQUEST {
                DrsMsg::RouteRequest { target, req_id }
            } else {
                DrsMsg::RouteOffer { target, req_id }
            })
        }
    };
    Some(Datagram { src, net, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let frames = [
            Datagram {
                src: NodeId(3),
                net: NetId::A,
                payload: Payload::EchoRequest { id: 0x0D25, seq: 9 },
            },
            Datagram {
                src: NodeId(0),
                net: NetId::B,
                payload: Payload::EchoReply {
                    id: 0x0D25,
                    seq: 0xFF_FFFF,
                },
            },
            Datagram {
                src: NodeId(7),
                net: NetId(2),
                payload: Payload::Control(DrsMsg::RouteRequest {
                    target: NodeId(1),
                    req_id: u64::MAX,
                }),
            },
            Datagram {
                src: NodeId(1),
                net: NetId::A,
                payload: Payload::Control(DrsMsg::RouteOffer {
                    target: NodeId(7),
                    req_id: 42,
                }),
            },
        ];
        let mut buf = [0u8; MAX_DATAGRAM];
        for f in frames {
            let n = encode(&f, &mut buf);
            assert_eq!(decode(&buf[..n]), Some(f), "{f:?}");
        }
    }

    #[test]
    fn garbage_is_dropped_not_panicked() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[9; 14]), None, "unknown kind");
        assert_eq!(decode(&[1; 5]), None, "truncated echo");
        assert_eq!(decode(&[3; 14]), None, "truncated control");
    }

    /// `decode` never panics, and whatever it accepts re-encodes to
    /// exactly the bytes it was handed: the codec reads every byte, so a
    /// datagram has one encoding.
    /// Returns whether it accepted.
    fn assert_canonical(buf: &[u8]) -> bool {
        let Some(d) = decode(buf) else {
            return false;
        };
        let mut out = [0u8; MAX_DATAGRAM];
        let n = encode(&d, &mut out);
        assert_eq!(&out[..n], buf, "{d:?}");
        true
    }

    #[test]
    fn drawn_bytes_decode_canonically_or_not_at_all() {
        let mut rng = drs_obs::rng::Rng::seed_from_u64(0x0057_1DE5);
        let mut accepted = 0;
        for len in 0..=MAX_DATAGRAM + 1 {
            for _ in 0..4096 {
                let mut buf = [0u8; MAX_DATAGRAM + 1];
                buf.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                // Half the draws lead with a kind byte near the valid ones.
                if rng.gen_bool(0.5) {
                    buf[0] = rng.gen_range(0..6u8);
                }
                accepted += usize::from(assert_canonical(&buf[..len]));
            }
        }
        // Lengths 14 and 18 each accept about a sixth of their draws.
        assert!(accepted > 1_000, "{accepted} drawn datagrams accepted");
        let kinds = [
            Payload::EchoRequest { id: 0x0D25, seq: 7 },
            Payload::EchoReply { id: 0x0D25, seq: 7 },
            Payload::Control(DrsMsg::RouteRequest {
                target: NodeId(2),
                req_id: 9,
            }),
            Payload::Control(DrsMsg::RouteOffer {
                target: NodeId(2),
                req_id: 9,
            }),
        ];
        for payload in kinds {
            let d = Datagram {
                src: NodeId(5),
                net: NetId::B,
                payload,
            };
            let mut buf = [0u8; MAX_DATAGRAM];
            let n = encode(&d, &mut buf);
            for i in 0..n {
                for v in 0..=255u8 {
                    let mut mutated = buf;
                    mutated[i] = v;
                    let kept = assert_canonical(&mutated[..n]);
                    // Only a kind byte unknown or of another size refuses.
                    let same_size = matches!((v, n), (1 | 2, 14) | (3 | 4, 18));
                    assert_eq!(kept, i != 0 || same_size, "byte {i} = {v}");
                }
            }
        }
    }

    #[test]
    fn each_kind_decodes_only_at_its_exact_length() {
        for (kind, size) in [(1u8, 14), (2, 14), (3, 18), (4, 18)] {
            for len in 0..=64 {
                let mut buf = [0u8; 64];
                buf[0] = kind;
                assert_eq!(
                    decode(&buf[..len]).is_some(),
                    len == size,
                    "kind {kind}, {len} B"
                );
            }
        }
        for kind in [0u8, 5, 0xFF] {
            for len in 0..=64 {
                assert_eq!(decode(&[kind; 64][..len]), None, "kind {kind}, {len} B");
            }
        }
    }
}
