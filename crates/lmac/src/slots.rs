//! Slot-occupancy bitmaps.
//!
//! LMAC nodes advertise which slots they believe are taken in their 1-hop
//! neighbourhood; receivers union those advertisements to learn 2-hop
//! occupancy. A 128-bit bitmap caps frames at 128 slots, far beyond the
//! paper's scale (50 nodes). It is stored as two `u64` words, so a set is
//! 8-byte aligned and packs into the MAC's 32-byte neighbour entries.

/// Maximum number of slots per frame supported by [`SlotSet`].
pub const MAX_SLOTS: u16 = 128;

/// A set of slot indices, backed by a 128-bit bitmap: slot `s` is bit
/// `s % 64` of word `s / 64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSet([u64; 2]);

impl SlotSet {
    /// The empty set.
    pub const EMPTY: SlotSet = SlotSet([0; 2]);

    /// Set containing exactly `slot`.
    #[inline]
    pub fn single(slot: u16) -> SlotSet {
        let mut s = SlotSet::EMPTY;
        s.insert(slot);
        s
    }

    /// Insert `slot`.
    #[inline]
    pub fn insert(&mut self, slot: u16) {
        assert!(slot < MAX_SLOTS, "slot {slot} out of range");
        self.0[usize::from(slot >> 6)] |= 1u64 << (slot & 63);
    }

    /// Remove `slot`.
    #[inline]
    pub fn remove(&mut self, slot: u16) {
        assert!(slot < MAX_SLOTS, "slot {slot} out of range");
        self.0[usize::from(slot >> 6)] &= !(1u64 << (slot & 63));
    }

    /// Whether `slot` is present.
    #[inline]
    pub fn contains(&self, slot: u16) -> bool {
        slot < MAX_SLOTS && (self.0[usize::from(slot >> 6)] >> (slot & 63)) & 1 == 1
    }

    /// The raw bitmap, for checkpointing.
    #[inline]
    pub fn bits(&self) -> u128 {
        u128::from(self.0[0]) | u128::from(self.0[1]) << 64
    }

    /// Rebuild from a [`SlotSet::bits`] bitmap.
    #[inline]
    pub fn from_bits(bits: u128) -> SlotSet {
        SlotSet([bits as u64, (bits >> 64) as u64])
    }

    /// Union with another set.
    #[inline]
    pub fn union(&self, other: SlotSet) -> SlotSet {
        SlotSet([self.0[0] | other.0[0], self.0[1] | other.0[1]])
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: SlotSet) {
        *self = self.union(other);
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> u32 {
        self.0[0].count_ones() + self.0[1].count_ones()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 2]
    }

    /// Slots in `0..frame_len` *not* present in this set, in ascending
    /// order. This is the candidate list for LMAC's slot choice.
    pub fn free_slots(&self, frame_len: u16) -> Vec<u16> {
        assert!(frame_len <= MAX_SLOTS, "frame too long");
        (0..frame_len).filter(|&s| !self.contains(s)).collect()
    }

    /// The lowest slot in `0..frame_len` *not* present in this set — the
    /// first entry of [`SlotSet::free_slots`], found with one bit scan.
    #[inline]
    pub fn first_free(&self, frame_len: u16) -> Option<u16> {
        assert!(frame_len <= MAX_SLOTS, "frame too long");
        let slot = (!self.bits()).trailing_zeros() as u16;
        (slot < frame_len).then_some(slot)
    }

    /// Iterator over occupied slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..MAX_SLOTS).filter(move |&s| self.contains(s))
    }
}

impl FromIterator<u16> for SlotSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut s = SlotSet::EMPTY;
        for slot in iter {
            s.insert(slot);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = SlotSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(127);
        assert!(s.contains(0) && s.contains(127) && !s.contains(64));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_merges() {
        let a: SlotSet = [1u16, 3].into_iter().collect();
        let b: SlotSet = [3u16, 5].into_iter().collect();
        let u = a.union(b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn free_slots_complement() {
        let s: SlotSet = [0u16, 2].into_iter().collect();
        assert_eq!(s.free_slots(4), vec![1, 3]);
        assert_eq!(SlotSet::EMPTY.free_slots(3), vec![0, 1, 2]);
        assert_eq!(s.first_free(4), Some(1));
        assert_eq!(s.first_free(1), None);
        assert_eq!(SlotSet::from_bits(u128::MAX).first_free(MAX_SLOTS), None);
        assert_eq!(SlotSet::from_bits(u128::MAX >> 1).first_free(MAX_SLOTS), Some(127));
    }

    #[test]
    fn bits_keep_the_u128_layout_across_the_word_boundary() {
        for slot in [0u16, 63, 64, 127] {
            let s = SlotSet::single(slot);
            assert_eq!(s.bits(), 1u128 << slot);
            assert_eq!(SlotSet::from_bits(1u128 << slot), s);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![slot]);
        }
        let all = SlotSet::from_bits(u128::MAX);
        assert_eq!((all.len(), all.bits()), (128, u128::MAX));
        assert_eq!(SlotSet::from_bits(!(1u128 << 64)).first_free(MAX_SLOTS), Some(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_slot_rejected() {
        let mut s = SlotSet::EMPTY;
        s.insert(128);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s: SlotSet = [5u16].into_iter().collect();
        assert!(!s.contains(200));
    }

    proptest! {
        /// free_slots and the set partition 0..frame_len, and first_free
        /// is free_slots' first entry, over the whole u128 range.
        #[test]
        fn prop_free_slots_partition(
            slots in proptest::collection::btree_set(0u16..MAX_SLOTS, 0..MAX_SLOTS as usize),
            frame_len in 1u16..=MAX_SLOTS,
        ) {
            let s: SlotSet = slots.iter().copied().collect();
            let free = s.free_slots(frame_len);
            for slot in 0..frame_len {
                let in_set = s.contains(slot);
                let in_free = free.contains(&slot);
                prop_assert!(in_set ^ in_free, "slot {slot} must be in exactly one side");
            }
            prop_assert_eq!(s.first_free(frame_len), free.first().copied());
        }

        /// Union is commutative and idempotent.
        #[test]
        fn prop_union_laws(
            a in proptest::collection::vec(0u16..128, 0..20),
            b in proptest::collection::vec(0u16..128, 0..20),
        ) {
            let sa: SlotSet = a.iter().copied().collect();
            let sb: SlotSet = b.iter().copied().collect();
            prop_assert_eq!(sa.union(sb), sb.union(sa));
            prop_assert_eq!(sa.union(sa), sa);
        }
    }
}
