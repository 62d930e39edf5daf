//! The in-flight query store.
//!
//! Every injected query is scored `completion_window` epochs after
//! injection; until then it sits here accumulating tx/rx tallies and
//! per-node reception marks. The store replaces the engine's original
//! `Vec<PendingQuery>` — which paid a linear scan per tally and a
//! swap_remove sweep per epoch — with three indexes:
//!
//! * a **slab** of entries with a free list, so entries never move;
//! * a **by-id hash index**, making [`PendingSet::get_mut`] O(1) — the
//!   single accessor behind every tally site. It is sparse, so no
//!   allocation is sized by a query id (a restored image can carry any
//!   id), and only ever looked up, never iterated, so no order depends
//!   on it;
//! * an **epoch-bucketed expiry ring**: an entry injected at epoch `e`
//!   lands in bucket `(e + window) % ring_len`, so the per-epoch expiry
//!   check is one bucket probe instead of a scan over the pending set.
//!
//! Determinism contract: the original vec's `swap_remove` sweep fixed
//! the order in which simultaneously-expiring and leftover queries are
//! finalised, and that order feeds the order-sensitive metrics
//! fingerprint. The store replicates it exactly via `order` (the
//! vec-equivalent sequence, mutated by the same `swap_remove` steps);
//! the property tests below pin ring mode, linear mode and the legacy
//! vec model against each other.

use std::collections::HashMap;

use dirq_data::workload::GroundTruth;
use dirq_data::RangeQuery;

pub(crate) use dirq_data::QueryId;

/// An in-flight query being scored.
pub(crate) struct PendingQuery {
    pub(crate) query: RangeQuery,
    pub(crate) epoch: u64,
    pub(crate) truth: GroundTruth,
    pub(crate) received: Vec<bool>,
    pub(crate) tx: u64,
    pub(crate) rx: u64,
}

/// Windows past this many epochs skip the ring (its length is
/// `window + 1` buckets) and fall back to the legacy linear sweep. Every
/// preset's completion window is well below; the cap only guards exotic
/// hand-built configurations.
const MAX_RING_WINDOW: u64 = 4_096;

/// Id-indexed slab of in-flight queries with an epoch-bucketed expiry
/// ring. See the module docs for the determinism contract.
///
/// [`PendingSet::expire_due`] must be called once per epoch in
/// increasing epoch order (the engine's housekeeping does) — the ring
/// visits each due bucket exactly once.
pub(crate) struct PendingSet {
    window: u64,
    /// Entry slab; `None` slots are free.
    slots: Vec<Option<PendingQuery>>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Query id → slot of every entry in flight.
    by_id: HashMap<QueryId, u32>,
    /// Slot indices in the legacy vec's order (including its historical
    /// `swap_remove` shuffles) — the finalisation order contract.
    order: Vec<u32>,
    /// `pos_in_order[slot]` → position in `order`.
    pos_in_order: Vec<u32>,
    /// `ring[due_epoch % ring.len()]` → slots due at that epoch; `None`
    /// when `window` exceeds [`MAX_RING_WINDOW`] (linear-sweep mode).
    ring: Option<Vec<Vec<u32>>>,
}

impl PendingSet {
    pub(crate) fn new(window: u64) -> Self {
        let ring = (window < MAX_RING_WINDOW).then(|| (0..=window).map(|_| Vec::new()).collect());
        PendingSet {
            window,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            order: Vec::new(),
            pos_in_order: Vec::new(),
            ring,
        }
    }

    /// Linear-sweep mode regardless of window size — the property tests
    /// pin it bit-equal to ring mode.
    #[cfg(test)]
    fn with_linear_sweep(window: u64) -> Self {
        PendingSet { ring: None, ..PendingSet::new(window) }
    }

    /// Entries currently in flight.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Track a freshly injected query. At most one insert per epoch (the
    /// engine injects at most one query per epoch; the ring's intra-bucket
    /// order relies on it only when several entries share an epoch, where
    /// the sweep fallback keeps the legacy order anyway).
    pub(crate) fn insert(&mut self, p: PendingQuery) {
        let id = p.query.id;
        let due = p.epoch.saturating_add(self.window);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(p);
                s
            }
            None => {
                self.slots.push(Some(p));
                (self.slots.len() - 1) as u32
            }
        };
        let previous = self.by_id.insert(id, slot);
        debug_assert!(previous.is_none(), "duplicate pending query id");
        if self.pos_in_order.len() <= slot as usize {
            self.pos_in_order.resize(slot as usize + 1, 0);
        }
        self.pos_in_order[slot as usize] = self.order.len() as u32;
        self.order.push(slot);
        if let Some(ring) = &mut self.ring {
            let bucket = (due % ring.len() as u64) as usize;
            ring[bucket].push(slot);
        }
    }

    /// The single lookup accessor: the entry for `id`, if still pending.
    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut PendingQuery> {
        let slot = *self.by_id.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Remove every entry whose completion window elapsed at `epoch`,
    /// pushing them onto `out` in the legacy sweep's finalisation order.
    pub(crate) fn expire_due(&mut self, epoch: u64, out: &mut Vec<PendingQuery>) {
        if let Some(ring) = &mut self.ring {
            let bucket = (epoch % ring.len() as u64) as usize;
            match ring[bucket].len() {
                0 => return,
                1 => {
                    // The common case: one entry due this epoch. Removing
                    // it directly matches the legacy sweep (the swapped-in
                    // tail entry it would re-examine is not due).
                    let slot = ring[bucket].pop().expect("checked length") as usize;
                    if self.slots[slot].is_some() {
                        let pos = self.pos_in_order[slot] as usize;
                        out.push(self.remove_order_pos(pos));
                    }
                    return;
                }
                // Several entries share the due epoch: drain the bucket
                // and run the exact legacy scan so the finalisation order
                // (including its swap_remove re-checks) is preserved.
                _ => ring[bucket].clear(),
            }
        }
        self.sweep_linear(epoch, out);
    }

    /// Drain every remaining entry in the legacy vec order (end-of-run
    /// leftover finalisation).
    pub(crate) fn take_all_in_order(&mut self) -> Vec<PendingQuery> {
        let order = std::mem::take(&mut self.order);
        let mut out = Vec::with_capacity(order.len());
        for slot in order {
            out.push(self.slots[slot as usize].take().expect("ordered slots are occupied"));
        }
        self.by_id.clear();
        self.slots.clear();
        self.free.clear();
        self.pos_in_order.clear();
        if let Some(ring) = &mut self.ring {
            for bucket in ring {
                bucket.clear();
            }
        }
        out
    }

    /// Entries in the legacy vec order (test observability).
    pub(crate) fn iter_in_order(&self) -> impl Iterator<Item = &PendingQuery> {
        self.order
            .iter()
            .map(|&slot| self.slots[slot as usize].as_ref().expect("ordered slots are occupied"))
    }

    /// Write every in-flight entry (in the legacy vec order) to `w`. The
    /// window is construction-time config and not captured.
    pub(crate) fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.tag(b"PEND");
        w.len_of(self.order.len());
        for p in self.iter_in_order() {
            p.query.snap(w);
            w.u64(p.epoch);
            p.truth.snap(w);
            w.bools(&p.received);
            w.u64(p.tx);
            w.u64(p.rx);
        }
    }

    /// Rebuild the in-flight set captured by [`PendingSet::snap`] by
    /// re-inserting each entry in the captured order. Re-insertion
    /// recomputes each entry's due epoch from the (identical) window, and
    /// `insert` appends to `order`, so the finalisation-order contract is
    /// reproduced exactly. The set must be empty (freshly constructed),
    /// and every entry must describe the `n_nodes` deployment: sources
    /// below `n_nodes` and one involved and received flag per node. Ids
    /// must be distinct and below `id_cursor`, the restored generator's
    /// next id, as every id the generator handed out is.
    pub(crate) fn restore(
        &mut self,
        r: &mut dirq_sim::SnapReader<'_>,
        n_nodes: usize,
        id_cursor: u64,
    ) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"PEND")?;
        let pos = r.position();
        if !self.order.is_empty() {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "pending set not empty before restore",
            });
        }
        let n = r.seq_len(1)?;
        for _ in 0..n {
            let pos = r.position();
            let query = RangeQuery::unsnap(r)?;
            if query.id.0 >= id_cursor {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "in-flight query id not below the id cursor",
                });
            }
            if self.by_id.contains_key(&query.id) {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "duplicate in-flight query id",
                });
            }
            let epoch = r.u64()?;
            let pos = r.position();
            let truth = GroundTruth::unsnap(r)?;
            let received = r.bools()?;
            if truth.sources.iter().any(|s| s.index() >= n_nodes) {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "query source outside the deployment",
                });
            }
            if truth.involved.len() != n_nodes || received.len() != n_nodes {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "query node flags disagree with the deployment size",
                });
            }
            let tx = r.u64()?;
            let rx = r.u64()?;
            self.insert(PendingQuery { query, epoch, truth, received, tx, rx });
        }
        Ok(())
    }

    /// The original expiry loop, verbatim over `order`: scan ascending,
    /// `swap_remove` due entries and re-examine the swapped-in tail.
    fn sweep_linear(&mut self, epoch: u64, out: &mut Vec<PendingQuery>) {
        let mut i = 0;
        while i < self.order.len() {
            let slot = self.order[i] as usize;
            let due = {
                let p = self.slots[slot].as_ref().expect("ordered slots are occupied");
                epoch.saturating_sub(p.epoch) >= self.window
            };
            if due {
                out.push(self.remove_order_pos(i));
            } else {
                i += 1;
            }
        }
    }

    /// Remove the entry at `order[pos]` with the legacy `swap_remove`
    /// step, fixing up the swapped entry's position.
    fn remove_order_pos(&mut self, pos: usize) -> PendingQuery {
        let slot = self.order.swap_remove(pos);
        if pos < self.order.len() {
            self.pos_in_order[self.order[pos] as usize] = pos as u32;
        }
        let p = self.slots[slot as usize].take().expect("ordered slots are occupied");
        self.by_id.remove(&p.query.id);
        self.free.push(slot);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_data::SensorType;
    use proptest::prelude::*;

    fn entry(id: u64, epoch: u64) -> PendingQuery {
        PendingQuery {
            query: RangeQuery::value(QueryId(id), SensorType(0), 0.0, 1.0),
            epoch,
            truth: GroundTruth { sources: Vec::new(), involved: Vec::new(), involved_count: 0 },
            received: Vec::new(),
            tx: 0,
            rx: 0,
        }
    }

    /// The engine's original structure, verbatim: a plain vec with the
    /// `swap_remove` expiry sweep. The reference model for the order
    /// contract.
    struct LegacyVec {
        window: u64,
        v: Vec<(u64, u64)>, // (id, inject epoch)
    }

    impl LegacyVec {
        fn expire(&mut self, epoch: u64) -> Vec<u64> {
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.v.len() {
                if epoch.saturating_sub(self.v[i].1) >= self.window {
                    out.push(self.v.swap_remove(i).0);
                } else {
                    i += 1;
                }
            }
            out
        }
    }

    fn expired_ids(set: &mut PendingSet, epoch: u64) -> Vec<u64> {
        let mut buf = Vec::new();
        set.expire_due(epoch, &mut buf);
        buf.into_iter().map(|p| p.query.id.0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Ring mode, linear mode and the legacy vec expire the same ids
        /// in the same order at every epoch, and leave the same leftover
        /// order — under arbitrary injection schedules (including several
        /// inserts per epoch) and arbitrary windows.
        #[test]
        fn ring_matches_linear_matches_legacy(
            window in 0u64..130,
            epochs in 1u64..160,
            inserts_per_epoch in proptest::collection::vec(0usize..3, 1..160),
        ) {
            let mut ring = PendingSet::new(window);
            let mut linear = PendingSet::with_linear_sweep(window);
            let mut legacy = LegacyVec { window, v: Vec::new() };
            let mut next_id = 0u64;
            for epoch in 0..epochs {
                let k = inserts_per_epoch[(epoch % inserts_per_epoch.len() as u64) as usize];
                for _ in 0..k {
                    ring.insert(entry(next_id, epoch));
                    linear.insert(entry(next_id, epoch));
                    legacy.v.push((next_id, epoch));
                    next_id += 1;
                }
                let want = legacy.expire(epoch);
                prop_assert_eq!(&expired_ids(&mut ring, epoch), &want, "ring diverged at {}", epoch);
                prop_assert_eq!(&expired_ids(&mut linear, epoch), &want, "linear diverged at {}", epoch);
                prop_assert_eq!(ring.len(), legacy.v.len());
            }
            // Leftovers drain in the legacy vec's (shuffled) order.
            let want: Vec<u64> = legacy.v.iter().map(|&(id, _)| id).collect();
            let ring_left: Vec<u64> = ring.take_all_in_order().iter().map(|p| p.query.id.0).collect();
            let linear_left: Vec<u64> =
                linear.take_all_in_order().iter().map(|p| p.query.id.0).collect();
            prop_assert_eq!(&ring_left, &want, "ring leftover order diverged");
            prop_assert_eq!(&linear_left, &want, "linear leftover order diverged");
            prop_assert_eq!(ring.len(), 0);
        }

        /// The by-id accessor finds exactly the live entries.
        #[test]
        fn get_mut_tracks_liveness(window in 1u64..40, epochs in 1u64..100) {
            let mut set = PendingSet::new(window);
            let mut live: Vec<u64> = Vec::new();
            let mut buf = Vec::new();
            for epoch in 0..epochs {
                if epoch % 3 == 0 {
                    set.insert(entry(epoch, epoch));
                    live.push(epoch);
                }
                buf.clear();
                set.expire_due(epoch, &mut buf);
                for p in &buf {
                    live.retain(|&id| id != p.query.id.0);
                }
                for id in 0..epochs {
                    let found = set.get_mut(QueryId(id)).is_some();
                    prop_assert_eq!(found, live.contains(&id), "id {} at epoch {}", id, epoch);
                }
            }
        }
    }

    #[test]
    fn huge_window_falls_back_to_linear_sweep() {
        let mut set = PendingSet::new(u64::MAX);
        assert!(set.ring.is_none());
        set.insert(entry(0, 5));
        let mut buf = Vec::new();
        set.expire_due(6, &mut buf);
        assert!(buf.is_empty(), "nothing expires under an unbounded window");
        assert_eq!(set.get_mut(QueryId(0)).map(|p| p.epoch), Some(5));
    }
}
