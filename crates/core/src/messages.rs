//! Protocol messages.
//!
//! These are the payloads carried by LMAC data sections. Sizes are small
//! (a few words) — consistent with the paper's premise that update messages
//! are cheap tuples. Every variant but the three that carry a query or a
//! rectangle has a 24-byte [`CompactMessage`] form, in which the MAC's
//! message store keeps it.

use dirq_data::{RangeQuery, SensorType};
use dirq_lmac::Payload;
use dirq_net::Rect;

/// Adaptive-threshold parameters broadcast by the root once per "hour"
/// (Section 4: the `EHr` estimate message), extended with the derived
/// per-node update budget so each node can steer its threshold
/// autonomously from purely local arithmetic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EhrMessage {
    /// Expected queries over the next hour (the paper's `EHr`).
    pub queries_per_hour: f64,
    /// Target update transmissions per node per epoch, derived at the root
    /// from the analytic budget (Section 5) and the measured query cost.
    pub per_node_budget_per_epoch: f64,
}

/// A DirQ/flooding protocol message. `Copy`: the MAC stores each queued
/// message once, and dispatch copies a delivered one out.
///
/// As a MAC [`Payload`], an Update, Retract, Ehr, Attach or Detach is
/// small and stored as its [`CompactMessage`]; a Query, FloodQuery or
/// GeoAdvert is large and stored whole.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirqMessage {
    /// Range-aggregate advertisement from a child to its parent
    /// (Section 4.1's Update Message: the `(min(THmin), max(THmax))`
    /// tuple for one sensor type).
    Update {
        /// Sensor type the aggregate covers.
        stype: SensorType,
        /// `min(THmin)` over the child's table.
        min: f64,
        /// `max(THmax)` over the child's table.
        max: f64,
    },
    /// The child no longer has any range information for `stype` (its last
    /// carrier died or the sensor was removed): drop the table entry.
    Retract {
        /// Sensor type to withdraw.
        stype: SensorType,
    },
    /// A directed query travelling down the tree (multicast to the
    /// children whose advertised ranges overlap).
    Query(RangeQuery),
    /// The hourly threshold-control message travelling down the tree.
    Ehr(EhrMessage),
    /// Tree maintenance: the sender adopts the receiver as its parent
    /// (sent after repair or birth; followed by Updates re-advertising the
    /// sender's aggregates).
    Attach,
    /// Tree maintenance: the sender stops being the receiver's child (sent
    /// to a still-alive old parent when re-parenting during repair).
    Detach,
    /// Location extension: the sender's subtree bounding box (static
    /// attribute advertisement; sent on attach and on topology changes).
    GeoAdvert(Rect),
    /// A query disseminated by the flooding baseline (every node
    /// rebroadcasts it exactly once).
    FloodQuery(RangeQuery),
}

impl DirqMessage {
    /// Write the message to `w`: one discriminant byte plus the payload.
    /// Used by the engine snapshot to capture in-flight MAC frames.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        match self {
            DirqMessage::Update { stype, min, max } => {
                w.u8(0);
                w.u8(stype.0);
                w.f64(*min);
                w.f64(*max);
            }
            DirqMessage::Retract { stype } => {
                w.u8(1);
                w.u8(stype.0);
            }
            DirqMessage::Query(q) => {
                w.u8(2);
                q.snap(w);
            }
            DirqMessage::Ehr(e) => {
                w.u8(3);
                w.f64(e.queries_per_hour);
                w.f64(e.per_node_budget_per_epoch);
            }
            DirqMessage::Attach => w.u8(4),
            DirqMessage::Detach => w.u8(5),
            DirqMessage::GeoAdvert(rect) => {
                w.u8(6);
                rect.snap(w);
            }
            DirqMessage::FloodQuery(q) => {
                w.u8(7);
                q.snap(w);
            }
        }
    }

    /// Rebuild a message captured by [`DirqMessage::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        let pos = r.position();
        Ok(match r.u8()? {
            0 => DirqMessage::Update { stype: SensorType(r.u8()?), min: r.f64()?, max: r.f64()? },
            1 => DirqMessage::Retract { stype: SensorType(r.u8()?) },
            2 => DirqMessage::Query(RangeQuery::unsnap(r)?),
            3 => DirqMessage::Ehr(EhrMessage {
                queries_per_hour: r.f64()?,
                per_node_budget_per_epoch: r.f64()?,
            }),
            4 => DirqMessage::Attach,
            5 => DirqMessage::Detach,
            6 => DirqMessage::GeoAdvert(Rect::unsnap(r)?),
            7 => DirqMessage::FloodQuery(RangeQuery::unsnap(r)?),
            _ => {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "unknown message discriminant",
                })
            }
        })
    }

    /// Coarse accounting category for the cost breakdown.
    pub fn category(&self) -> MessageCategory {
        match self {
            DirqMessage::Update { .. } | DirqMessage::Retract { .. } => MessageCategory::Update,
            DirqMessage::Query(_) | DirqMessage::FloodQuery(_) => MessageCategory::Query,
            DirqMessage::Ehr(_)
            | DirqMessage::Attach
            | DirqMessage::Detach
            | DirqMessage::GeoAdvert(_) => MessageCategory::Control,
        }
    }
}

/// The compact form of a small [`DirqMessage`]: its variant and fields,
/// in 24 bytes rather than the 80 a query with its region needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompactMessage {
    /// [`DirqMessage::Update`].
    Update {
        /// Sensor type the aggregate covers.
        stype: SensorType,
        /// `min(THmin)` over the child's table.
        min: f64,
        /// `max(THmax)` over the child's table.
        max: f64,
    },
    /// [`DirqMessage::Retract`].
    Retract {
        /// Sensor type to withdraw.
        stype: SensorType,
    },
    /// [`DirqMessage::Ehr`].
    Ehr(EhrMessage),
    /// [`DirqMessage::Attach`].
    Attach,
    /// [`DirqMessage::Detach`].
    Detach,
}

impl Payload for DirqMessage {
    type Compact = CompactMessage;

    fn compact(&self) -> Option<CompactMessage> {
        Some(match *self {
            DirqMessage::Update { stype, min, max } => CompactMessage::Update { stype, min, max },
            DirqMessage::Retract { stype } => CompactMessage::Retract { stype },
            DirqMessage::Ehr(e) => CompactMessage::Ehr(e),
            DirqMessage::Attach => CompactMessage::Attach,
            DirqMessage::Detach => CompactMessage::Detach,
            DirqMessage::Query(_) | DirqMessage::FloodQuery(_) | DirqMessage::GeoAdvert(_) => {
                return None
            }
        })
    }

    fn expand(compact: CompactMessage) -> Self {
        match compact {
            CompactMessage::Update { stype, min, max } => DirqMessage::Update { stype, min, max },
            CompactMessage::Retract { stype } => DirqMessage::Retract { stype },
            CompactMessage::Ehr(e) => DirqMessage::Ehr(e),
            CompactMessage::Attach => DirqMessage::Attach,
            CompactMessage::Detach => DirqMessage::Detach,
        }
    }
}

/// Cost-accounting buckets mirroring the paper's Section 5 decomposition:
/// `CTD = CQD + CUD` (plus the small control category the paper folds into
/// the update mechanism).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageCategory {
    /// Query dissemination (`CQD`).
    Query,
    /// Range-update maintenance (`CUD`).
    Update,
    /// EHr dissemination and tree maintenance.
    Control,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_data::QueryId;

    #[test]
    fn layout_budget() {
        // A small message's stored form, and the message itself.
        assert_eq!(std::mem::size_of::<CompactMessage>(), 24);
        assert_eq!(std::mem::size_of::<DirqMessage>(), 80);
    }

    /// `msg` as the snapshot encodes it: discriminant, type and every
    /// float's bits.
    fn image(msg: &DirqMessage) -> Vec<u8> {
        let mut w = dirq_sim::SnapWriter::new();
        msg.snap(&mut w);
        w.finish()
    }

    #[test]
    fn small_messages_round_trip_through_their_compact_form_bit_for_bit() {
        let odd = [0.0, -0.0, f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001), 1e-310];
        let mut small = vec![
            DirqMessage::Retract { stype: SensorType(3) },
            DirqMessage::Attach,
            DirqMessage::Detach,
        ];
        for (k, &a) in odd.iter().enumerate() {
            let b = odd[(k + 1) % odd.len()];
            small.push(DirqMessage::Update { stype: SensorType(k as u8), min: a, max: b });
            small.push(DirqMessage::Ehr(EhrMessage {
                queries_per_hour: a,
                per_node_budget_per_epoch: b,
            }));
        }
        for msg in small {
            let compact = msg.compact().unwrap_or_else(|| panic!("{msg:?} has no compact form"));
            assert_eq!(image(&DirqMessage::expand(compact)), image(&msg), "{msg:?}");
        }
    }

    #[test]
    fn queries_and_adverts_have_no_compact_form() {
        let rect = Rect { x_min: 1.0, y_min: 2.0, x_max: 3.0, y_max: 4.0 };
        let q = RangeQuery::value(QueryId(1), SensorType(0), 0.0, 1.0).with_region(rect);
        for msg in [DirqMessage::Query(q), DirqMessage::FloodQuery(q), DirqMessage::GeoAdvert(rect)]
        {
            assert_eq!(msg.compact(), None, "{msg:?}");
        }
    }

    #[test]
    fn categories() {
        let q = RangeQuery::value(QueryId(1), SensorType(0), 0.0, 1.0);
        assert_eq!(
            DirqMessage::Update { stype: SensorType(0), min: 0.0, max: 1.0 }.category(),
            MessageCategory::Update
        );
        assert_eq!(
            DirqMessage::Retract { stype: SensorType(1) }.category(),
            MessageCategory::Update
        );
        assert_eq!(DirqMessage::Query(q).category(), MessageCategory::Query);
        assert_eq!(DirqMessage::FloodQuery(q).category(), MessageCategory::Query);
        assert_eq!(
            DirqMessage::Ehr(EhrMessage { queries_per_hour: 1.0, per_node_budget_per_epoch: 0.1 })
                .category(),
            MessageCategory::Control
        );
        assert_eq!(DirqMessage::Attach.category(), MessageCategory::Control);
    }
}
