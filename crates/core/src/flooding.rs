//! The flooding baseline (Section 5.1).
//!
//! "When performing a flooding operation, a node transmits a message to its
//! neighbours using a broadcast operation … this behaviour is followed by
//! all nodes in the network no matter where the nodes may be located and is
//! carried out regardless of the number of neighbours a node has."
//!
//! Each node therefore rebroadcasts every query exactly once — even a node
//! whose only neighbour is the one it heard the query from. Total cost on N
//! nodes with L links: `N` transmissions + `2L` receptions (Eq. 3).
//!
//! A flooding node's only state is its [`SeenQueries`]: the engine keeps
//! it in the node's protocol state, as the list a DirQ node suppresses
//! duplicate queries with.

use dirq_data::QueryId;
use dirq_sim::{SnapError, SnapReader, SnapSink, SnapWriter};

/// A node's memory of the query ids it has handled, oldest first. A
/// flooding node rebroadcasts a query only while it is new; a DirQ node
/// ignores a repeated query (possible transiently after tree repairs).
#[derive(Clone, Debug, Default)]
pub struct SeenQueries {
    ids: Vec<QueryId>,
}

/// Bound on remembered query ids (queries are one-shot and arrive every 20
/// epochs; 64 is ample).
const SEEN_CAP: usize = 64;

impl SeenQueries {
    /// Record `id`. Returns `true` exactly once per remembered id; when the
    /// memory is full, the oldest id is forgotten.
    pub fn insert(&mut self, id: QueryId) -> bool {
        if self.ids.contains(&id) {
            return false;
        }
        if self.ids.len() == SEEN_CAP {
            self.ids.remove(0);
        }
        self.ids.push(id);
        true
    }

    /// The list's heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<QueryId>()
    }

    /// Write the ids to `w`: a count, then one `u64` per id.
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.len_of(self.ids.len());
        for q in &self.ids {
            w.u64(q.0);
        }
    }

    /// Overlay ids captured by [`SeenQueries::snap`]. A list longer than
    /// the cap is malformed: [`SeenQueries::insert`] evicts only at
    /// exactly the cap, so it would grow by one id per query, each scanned
    /// on every arrival.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pos = r.position();
        let n = r.seq_len(8)?;
        if n > SEEN_CAP {
            return Err(SnapError::Malformed { pos, what: "seen-query list too long" });
        }
        self.ids = (0..n).map(|_| r.u64().map(QueryId)).collect::<Result<_, _>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebroadcasts_exactly_once() {
        let mut n = SeenQueries::default();
        assert!(n.insert(QueryId(1)));
        assert!(!n.insert(QueryId(1)));
        assert!(n.insert(QueryId(2)));
        assert!(!n.insert(QueryId(2)));
        assert_eq!(n.ids.len(), 2);
    }

    #[test]
    fn memory_bounded() {
        let mut n = SeenQueries::default();
        for i in 0..200 {
            assert!(n.insert(QueryId(i)));
        }
        assert_eq!(n.ids.len(), SEEN_CAP);
        // Very old ids have been forgotten (acceptable: queries are
        // one-shot and short-lived).
        assert!(n.insert(QueryId(0)));
    }
}
