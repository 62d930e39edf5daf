//! Upcalls from the MAC to the upper layer.
//!
//! DirQ's cross-layer integration (paper Section 4.2) consumes exactly
//! these events: message deliveries, dead-neighbour detections and
//! new-neighbour detections.
//!
//! Payloads are **stored once per enqueue**: the MAC keeps each queued
//! payload in its message store, in the slot its [`Payload`] class picks,
//! and every indication for it — one per receiver on a broadcast, one per
//! unreachable destination — carries the same 4-byte [`PayloadHandle`],
//! read through [`LmacNetwork::payload`](crate::LmacNetwork::payload).
//! Copying an indication copies the handle, never the payload.

use std::fmt;
use std::marker::PhantomData;

use dirq_net::{NodeId, NodeList};

/// An upper-layer payload type, as the MAC's message store keeps it. A
/// value with a compact form is small: the store keeps that form, at most
/// 24 bytes, in a 32-byte slot. Any other value is large and takes a slot
/// sized for `Self`. The MAC never inspects a payload otherwise.
pub trait Payload: Copy {
    /// The form a small value is stored in: at most 24 bytes.
    type Compact: Copy;

    /// The value's compact form, or `None` if it is large.
    fn compact(&self) -> Option<Self::Compact>;

    /// The value `compact` is the form of, bit for bit.
    fn expand(compact: Self::Compact) -> Self;
}

/// Integers are small: their compact form is the value.
macro_rules! small_integer {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            type Compact = $t;

            fn compact(&self) -> Option<$t> {
                Some(*self)
            }

            fn expand(compact: $t) -> $t {
                compact
            }
        }
    )*};
}

small_integer!(u8, u32);

/// A payload in the MAC's message store: a 4-byte index whose top bit
/// names the payload's slab (small or large) and whose other bits its
/// slot, read through [`LmacNetwork::payload`](crate::LmacNetwork::payload).
///
/// A handle in an indication stays valid until the MAC next advances or
/// restores. Queued again before then with
/// [`LmacNetwork::enqueue_shared`](crate::LmacNetwork::enqueue_shared), it
/// names the same stored payload for the new message (flooding's
/// rebroadcast), with no copy.
pub struct PayloadHandle<P> {
    index: u32,
    payload: PhantomData<fn() -> P>,
}

impl<P> PayloadHandle<P> {
    pub(crate) fn new(index: u32) -> Self {
        PayloadHandle { index, payload: PhantomData }
    }

    /// The payload's slot in the store.
    pub(crate) fn index(self) -> u32 {
        self.index
    }
}

// Manual impls: a handle is an index whatever `P` is, so none of these
// needs a bound on `P` (the derives would add one).
impl<P> Clone for PayloadHandle<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for PayloadHandle<P> {}

impl<P> PartialEq for PayloadHandle<P> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<P> Eq for PayloadHandle<P> {}

impl<P> fmt::Debug for PayloadHandle<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PayloadHandle").field(&self.index).finish()
    }
}

/// Addressing of one data message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Destination {
    /// All alive neighbours are intended receivers (flooding uses this; a
    /// reception is counted — and delivered — at every hearer).
    Broadcast,
    /// Only the listed neighbours are intended receivers. Other hearers
    /// skip the data section after reading the control header, so they pay
    /// no data-reception cost — this matches the paper's unicast
    /// cost-accounting ("we only consider edges for unicast operations").
    /// The list is inline (no heap) up to four receivers.
    Multicast(NodeList),
}

impl Destination {
    /// Unicast = multicast to one node.
    pub fn unicast(to: NodeId) -> Destination {
        Destination::Multicast(NodeList::single(to))
    }

    /// Multicast to any collection of nodes.
    pub fn multicast(to: impl Into<NodeList>) -> Destination {
        Destination::Multicast(to.into())
    }

    /// Whether `node` is an intended receiver.
    pub fn includes(&self, node: NodeId) -> bool {
        match self {
            Destination::Broadcast => true,
            Destination::Multicast(list) => list.contains(&node),
        }
    }
}

/// One MAC-to-upper-layer event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacIndication<P> {
    /// A data message addressed to `to` arrived from one-hop neighbour
    /// `from`.
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// Transmitting (one-hop) node.
        from: NodeId,
        /// The upper-layer payload.
        payload: PayloadHandle<P>,
    },
    /// `observer`'s MAC declared one-hop neighbour `dead` unreachable
    /// (unheard for more than `MAX_MISSED_FRAMES` frames).
    NeighborDied {
        /// Node whose neighbour table changed.
        observer: NodeId,
        /// The vanished neighbour.
        dead: NodeId,
    },
    /// `observer`'s MAC heard `new` for the first time.
    NeighborNew {
        /// Node whose neighbour table changed.
        observer: NodeId,
        /// The newly heard neighbour.
        new: NodeId,
    },
    /// A queued message could not be delivered to `to` (not an alive
    /// neighbour of `from` at transmission time). The upper layer decides
    /// whether to re-route.
    Undeliverable {
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver that could not be reached.
        to: NodeId,
        /// The undelivered payload.
        payload: PayloadHandle<P>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_membership() {
        let b = Destination::Broadcast;
        assert!(b.includes(NodeId(7)));
        let m = Destination::multicast([NodeId(1), NodeId(2)]);
        assert!(m.includes(NodeId(1)));
        assert!(!m.includes(NodeId(3)));
        let u = Destination::unicast(NodeId(4));
        assert!(u.includes(NodeId(4)));
        assert!(!u.includes(NodeId(5)));
    }
}
