//! Fixed-capacity node bitsets for the hot simulation loops.
//!
//! The MAC's per-slot bookkeeping (who is transmitting, who can hear, who
//! collided) was previously linear scans over `Vec<NodeId>`; a [`NodeBits`]
//! gives O(1) membership and ascending-order iteration with zero
//! steady-state allocations.

use crate::ids::NodeId;

/// A set of node ids over a fixed universe `0..n`, backed by a word array.
#[derive(Clone, Debug, Default)]
pub struct NodeBits {
    words: Vec<u64>,
    n: usize,
}

impl NodeBits {
    /// Empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeBits { words: vec![0; n.div_ceil(64)], n }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Heap bytes held: the word array's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Insert `node`; returns `true` when it was not present before.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.n, "node out of universe");
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Remove `node`; returns `true` when it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.n, "node out of universe");
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Whether `node` is present.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        debug_assert!(i < self.n, "node out of universe");
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Remove every element (retains capacity).
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate elements in ascending id order.
    pub fn iter(&self) -> NodeBitsIter<'_> {
        NodeBitsIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over a [`NodeBits`].
pub struct NodeBitsIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeBitsIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::from_index(self.word_idx * 64 + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeBits::new(130);
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(64)));
        assert!(s.insert(NodeId(129)));
        assert!(!s.insert(NodeId(64)), "double insert reports already-present");
        assert!(s.contains(NodeId(129)) && !s.contains(NodeId(1)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(NodeId(64)));
        assert!(!s.remove(NodeId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = NodeBits::new(200);
        for i in [150u32, 3, 64, 63, 199, 0] {
            s.insert(NodeId(i));
        }
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 3, 63, 64, 150, 199]);
    }

    #[test]
    fn clear_retains_universe() {
        let mut s = NodeBits::new(70);
        s.insert(NodeId(69));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 70);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn empty_universe() {
        let s = NodeBits::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
