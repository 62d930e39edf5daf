//! The in-flight query store.
//!
//! Every injected query is scored `completion_window` epochs after
//! injection; until then it sits here accumulating tx/rx tallies and
//! per-node reception marks. The store is the engine's original
//! `Vec<PendingQuery>` plus a **by-id hash index** into it, making
//! [`PendingSet::get_mut`] O(1) — the single accessor behind every tally
//! site. The index is sparse, so no allocation is sized by a query id (a
//! restored image can carry any id), and only ever looked up, never
//! iterated, so no order depends on it.
//!
//! Expiry is the original sweep, once per epoch: scan the vec ascending,
//! `swap_remove` each due entry and re-examine the entry swapped into its
//! place. The scan is short — the vec holds one completion window's
//! queries: at most 9 in `stress_20000` (a query every 20 epochs, a
//! 192-epoch window). Determinism contract: the sweep's `swap_remove`
//! steps fix the order in which simultaneously-expiring and leftover
//! queries are finalised, and that order feeds the order-sensitive
//! metrics fingerprint; the property tests below pin the store against
//! the plain-vec model.

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

/// In-flight queries in finalisation order, indexed by id. See the
/// module docs for the determinism contract.
pub(crate) struct PendingSet {
    window: u64,
    /// Entries in the legacy vec's order (including its historical
    /// `swap_remove` shuffles) — the finalisation order contract.
    entries: Vec<PendingQuery>,
    /// Query id → position in `entries` of every entry in flight.
    by_id: HashMap<QueryId, u32>,
}

impl PendingSet {
    pub(crate) fn new(window: u64) -> Self {
        PendingSet { window, entries: Vec::new(), by_id: HashMap::new() }
    }

    /// Entries currently in flight.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Track a freshly injected query.
    pub(crate) fn insert(&mut self, p: PendingQuery) {
        let previous = self.by_id.insert(p.query.id, self.entries.len() as u32);
        debug_assert!(previous.is_none(), "duplicate pending query id");
        self.entries.push(p);
    }

    /// The single lookup accessor: the entry for `id`, if still pending.
    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut PendingQuery> {
        let at = *self.by_id.get(&id)?;
        Some(&mut self.entries[at as usize])
    }

    /// Remove every entry whose completion window elapsed at `epoch`,
    /// pushing them onto `out` in finalisation order: the original
    /// expiry loop, verbatim — scan ascending, `swap_remove` due entries
    /// and re-examine the swapped-in tail.
    pub(crate) fn expire_due(&mut self, epoch: u64, out: &mut Vec<PendingQuery>) {
        let mut i = 0;
        while i < self.entries.len() {
            if epoch.saturating_sub(self.entries[i].epoch) < self.window {
                i += 1;
                continue;
            }
            let p = self.entries.swap_remove(i);
            self.by_id.remove(&p.query.id);
            if let Some(moved) = self.entries.get(i) {
                self.by_id.insert(moved.query.id, i as u32);
            }
            out.push(p);
        }
    }

    /// Drain every remaining entry in the legacy vec order (end-of-run
    /// leftover finalisation).
    pub(crate) fn take_all_in_order(&mut self) -> Vec<PendingQuery> {
        self.by_id.clear();
        std::mem::take(&mut self.entries)
    }

    /// Entries in the legacy vec order (the engine's test observability).
    pub(crate) fn iter_in_order(&self) -> impl Iterator<Item = &PendingQuery> {
        self.entries.iter()
    }

    /// Write every in-flight entry (in the legacy vec order) to `w`. The
    /// window is construction-time config and not captured.
    pub(crate) fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.tag(b"PEND");
        w.len_of(self.entries.len());
        for p in &self.entries {
            p.query.snap(w);
            w.u64(p.epoch);
            p.truth.snap(w);
            w.bools(&p.received);
            w.u64(p.tx);
            w.u64(p.rx);
        }
    }

    /// Rebuild the in-flight set captured by [`PendingSet::snap`] by
    /// re-inserting each entry in the captured order. `insert` appends,
    /// so the finalisation-order contract is reproduced exactly. The set
    /// must be empty (freshly constructed), and every entry must describe
    /// the `n_nodes` deployment: sources below `n_nodes` and one involved
    /// and received flag per node. Ids must be distinct and below
    /// `id_cursor`, the restored generator's next id, as every id the
    /// generator handed out is.
    pub(crate) fn restore(
        &mut self,
        r: &mut dirq_sim::SnapReader<'_>,
        n_nodes: usize,
        id_cursor: u64,
    ) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"PEND")?;
        let pos = r.position();
        if !self.entries.is_empty() {
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
            let tx = r.count()?;
            let rx = r.count()?;
            self.insert(PendingQuery { query, epoch, truth, received, tx, rx });
        }
        Ok(())
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

        /// The set and the legacy vec expire the same ids in the same
        /// order at every epoch, and leave the same leftover order —
        /// under arbitrary injection schedules (including several inserts
        /// per epoch) and arbitrary windows — and the by-id index finds
        /// every entry still in flight.
        #[test]
        fn expiry_matches_the_legacy_vec(
            window in 0u64..130,
            epochs in 1u64..160,
            inserts_per_epoch in proptest::collection::vec(0usize..3, 1..160),
        ) {
            let mut set = PendingSet::new(window);
            let mut legacy = LegacyVec { window, v: Vec::new() };
            let mut next_id = 0u64;
            for epoch in 0..epochs {
                let k = inserts_per_epoch[(epoch % inserts_per_epoch.len() as u64) as usize];
                for _ in 0..k {
                    set.insert(entry(next_id, epoch));
                    legacy.v.push((next_id, epoch));
                    next_id += 1;
                }
                let want = legacy.expire(epoch);
                prop_assert_eq!(&expired_ids(&mut set, epoch), &want, "diverged at {}", epoch);
                prop_assert_eq!(set.len(), legacy.v.len());
                for &(id, _) in &legacy.v {
                    prop_assert_eq!(set.get_mut(QueryId(id)).map(|p| p.query.id.0), Some(id));
                }
            }
            // Leftovers drain in the legacy vec's (shuffled) order.
            let want: Vec<u64> = legacy.v.iter().map(|&(id, _)| id).collect();
            let left: Vec<u64> = set.take_all_in_order().iter().map(|p| p.query.id.0).collect();
            prop_assert_eq!(&left, &want, "leftover order diverged");
            prop_assert_eq!(set.len(), 0);
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
                    let found = set.get_mut(QueryId(id)).map(|p| p.query.id.0);
                    let want = live.contains(&id).then_some(id);
                    prop_assert_eq!(found, want, "id {} at epoch {}", id, epoch);
                }
            }
        }
    }

    #[test]
    fn huge_window_falls_back_to_linear_sweep() {
        let mut set = PendingSet::new(u64::MAX);
        set.insert(entry(0, 5));
        let mut buf = Vec::new();
        set.expire_due(6, &mut buf);
        assert!(buf.is_empty(), "nothing expires under an unbounded window");
        assert_eq!(set.get_mut(QueryId(0)).map(|p| p.epoch), Some(5));
    }
}
