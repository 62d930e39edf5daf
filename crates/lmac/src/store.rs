//! The MAC's message store: every node's transmit queue and every queued
//! payload, in slabs.
//!
//! A node's queue is a [`Queue`] (8 bytes in its MAC record): the first and
//! last of its entries, which are linked by `u32` indices. An entry is 12
//! bytes: one message's destination as a 4-byte code (broadcast, a unicast's
//! node id, or a multicast list's index in a list slab), a
//! [`PayloadHandle`] and the link. A payload is stored once with a
//! reference count: one per queued entry, plus one for each sent message
//! until the MAC next advances, so the indications of an advance can name
//! it and a flooding rebroadcast can queue it again without a copy.
//!
//! Payloads are kept by their [`Payload`] class in one of two slabs: a
//! small payload's compact form, with its count and link, in a 32-byte
//! slot, and a large payload whole in a slot sized for its type. A
//! handle's top bit names the slab and its other bits the slot. So an
//! Update, one tuple, takes 32 bytes and not the 88 of a slot that could
//! hold a query with its region.
//!
//! The slabs grow in chunks, each allocated at its full size once and
//! never reallocated, so a burst adds chunk after chunk and never copies
//! one large block at a doubling. A chunk holds about a sixteenth of the
//! network's node count in slots, from 64 to 1 024 ([`chunk_bits`]), so a
//! small deployment's store stays small. An insert takes a free slot
//! of the lowest chunk that has one, so live slots gather in the low
//! chunks. A chunk is kept while it is empty only if it lies below the
//! highest chunk the last frame's inserts reached: a steady frame keeps
//! the chunks it uses, and a chunk beyond them is freed as soon as it
//! empties. So epoch 0's burst (every carried cell escapes) gives its
//! chunks back while its frame drains it, and a frame that follows one
//! burst frees the rest at its end ([`MessageStore::trim`]). Each slab
//! keeps its own chunks by these rules.

use dirq_net::{NodeId, NodeList};

use crate::indication::{Destination, Payload, PayloadHandle};

/// The base-2 logarithm of the slots per chunk for a network of `nodes`:
/// about `nodes / 16`, from 64 slots to 1 024 (12 KiB of entries, 32 KiB
/// of small payload slots and, for `DirqMessage`, 88 KiB of large ones,
/// from 8 208 nodes up).
pub(crate) fn chunk_bits(nodes: usize) -> u32 {
    (nodes / 16).max(1).next_power_of_two().trailing_zeros().clamp(6, 10)
}

/// The end of a list: of a queue, or of a chunk's free list.
const NIL: u32 = u32::MAX;

/// A slot's link field. While a slot is free, its chunk's free list runs
/// through it.
trait Link {
    fn set_link(&mut self, link: u32);
    fn link(&self) -> u32;
}

/// One chunk of a [`Slab`].
struct Chunk<T> {
    /// A chunk's worth of room from its first insert on; none once the
    /// chunk is freed.
    slots: Vec<T>,
    /// The first released slot (`NIL`: none; the room past `slots.len()`
    /// is free too).
    free: u32,
    /// Slots in use.
    live: u32,
}

impl<T> Chunk<T> {
    const EMPTY: Chunk<T> = Chunk { slots: Vec::new(), free: NIL, live: 0 };
}

/// Slots addressed by `u32` index, in chunks of `1 << bits` slots, each
/// chunk with its own free list.
struct Slab<T> {
    /// Slots per chunk, as a power of two.
    bits: u32,
    chunks: Vec<Chunk<T>>,
    /// Every chunk below this one is full.
    open: usize,
    /// One past the highest chunk inserted into since the last trim.
    used: usize,
    /// Chunks below this one stay allocated when empty: the last trim's
    /// `used`.
    keep: usize,
}

impl<T: Link> Slab<T> {
    fn new(bits: u32) -> Self {
        Slab { bits, chunks: Vec::new(), open: 0, used: 0, keep: 0 }
    }

    /// Slots per chunk.
    fn chunk(&self) -> usize {
        1 << self.bits
    }

    /// The chunk and the slot within it of slab index `index`.
    fn split(&self, index: u32) -> (usize, usize) {
        ((index >> self.bits) as usize, index as usize & (self.chunk() - 1))
    }

    /// Store `value` in the lowest free slot of the lowest chunk with one.
    fn insert(&mut self, value: T) -> u32 {
        let size = self.chunk();
        while self.chunks.get(self.open).is_some_and(|c| c.free == NIL && c.slots.len() == size) {
            self.open += 1;
        }
        if self.open == self.chunks.len() {
            self.chunks.push(Chunk::EMPTY);
        }
        let c = self.open;
        self.used = self.used.max(c + 1);
        let chunk = &mut self.chunks[c];
        chunk.live += 1;
        let i = if chunk.free == NIL {
            if chunk.slots.capacity() == 0 {
                chunk.slots.reserve_exact(size);
            }
            chunk.slots.push(value);
            chunk.slots.len() - 1
        } else {
            let i = chunk.free as usize;
            chunk.free = chunk.slots[i].link();
            chunk.slots[i] = value;
            i
        };
        ((c << self.bits) | i) as u32
    }

    /// Put slot `index` on its chunk's free list, or free the chunk if
    /// that empties it and it lies at or above `keep`. Whatever the slot
    /// still holds stays there until the slot is reused or its chunk freed.
    fn remove(&mut self, index: u32) {
        let (c, i) = self.split(index);
        let chunk = &mut self.chunks[c];
        chunk.slots[i].set_link(chunk.free);
        chunk.free = i as u32;
        chunk.live -= 1;
        self.open = self.open.min(c);
        if chunk.live == 0 && c >= self.keep {
            self.free_chunks(c);
        }
    }

    fn get(&self, index: u32) -> &T {
        let (c, i) = self.split(index);
        &self.chunks[c].slots[i]
    }

    fn get_mut(&mut self, index: u32) -> &mut T {
        let (c, i) = self.split(index);
        &mut self.chunks[c].slots[i]
    }

    /// Keep, from now on, only the empty chunks below the highest one
    /// inserted into since the last trim, and free the others.
    fn trim(&mut self) {
        (self.keep, self.used) = (self.used, 0);
        self.free_chunks(self.keep);
    }

    /// Free every empty chunk from `first` on, and drop the trailing
    /// records of freed chunks.
    fn free_chunks(&mut self, first: usize) {
        for chunk in self.chunks.iter_mut().skip(first) {
            if chunk.live == 0 {
                *chunk = Chunk::EMPTY;
            }
        }
        while self.chunks.last().is_some_and(|c| c.slots.capacity() == 0) {
            self.chunks.pop();
        }
        self.open = self.open.min(self.chunks.len());
    }

    /// Heap bytes held: every allocated chunk and the chunk table.
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk<T>>()
    }

    /// Slots in use.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.chunks.iter().map(|c| c.live as usize).sum()
    }

    /// Slots allocated, in use or not.
    fn capacity(&self) -> usize {
        self.chunks.iter().map(|c| c.slots.capacity()).sum()
    }
}

/// The destination code of a broadcast.
const BROADCAST: u32 = u32::MAX;
/// The flag of a destination code that indexes the multicast list slab;
/// a code below it is a unicast's node id.
const LIST: u32 = 1 << 31;

/// The destination `code` names, with its multicast list, if it has one,
/// from `list` (called with the list's index).
fn destination(code: u32, list: impl FnOnce(u32) -> NodeList) -> Destination {
    match code {
        BROADCAST => Destination::Broadcast,
        to if to < LIST => Destination::unicast(NodeId(to)),
        index => Destination::Multicast(list(index - LIST)),
    }
}

/// One queued message, and the next entry of its node's queue.
struct Entry<P> {
    /// `BROADCAST`, a unicast's node id, or `LIST` plus the index of the
    /// message's multicast list.
    dest: u32,
    payload: PayloadHandle<P>,
    next: u32,
}

impl<P> Link for Entry<P> {
    fn set_link(&mut self, link: u32) {
        self.next = link;
    }

    fn link(&self) -> u32 {
        self.next
    }
}

/// A multicast destination list other than a single node.
struct List {
    nodes: NodeList,
    /// The free list's link while the slot is free.
    next: u32,
}

impl Link for List {
    fn set_link(&mut self, link: u32) {
        self.next = link;
    }

    fn link(&self) -> u32 {
        self.next
    }
}

/// One stored payload (a small payload's compact form or a large payload)
/// and its reference count; the slot is free once the count is 0.
struct Slot<T> {
    value: T,
    refs: u32,
    /// The free list's link while the slot is free.
    next: u32,
}

impl<T> Link for Slot<T> {
    fn set_link(&mut self, link: u32) {
        self.next = link;
    }

    fn link(&self) -> u32 {
        self.next
    }
}

/// The handle bit of the large payload slab; a handle without it indexes
/// the small one.
const LARGE: u32 = 1 << 31;

impl<T: Copy> Slab<Slot<T>> {
    /// Store `value` with one reference, and return its slot.
    fn intern(&mut self, value: T) -> u32 {
        let index = self.insert(Slot { value, refs: 1, next: NIL });
        assert!(index < LARGE, "payload slab full");
        index
    }

    /// The value in slot `index`.
    fn read(&self, index: u32) -> T {
        let slot = self.get(index);
        assert!(slot.refs > 0, "payload handle read after release");
        slot.value
    }

    /// Take one more reference to slot `index`.
    fn retain(&mut self, index: u32) {
        let slot = self.get_mut(index);
        assert!(slot.refs > 0, "payload handle queued after release");
        slot.refs += 1;
    }

    /// Drop one reference to slot `index`; the last one frees the slot.
    fn release(&mut self, index: u32) {
        let slot = self.get_mut(index);
        slot.refs -= 1;
        if slot.refs == 0 {
            self.remove(index);
        }
    }
}

/// A node's transmit queue: its first and last entry (`NIL` when empty).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Queue {
    head: u32,
    tail: u32,
}

impl Queue {
    pub(crate) const EMPTY: Queue = Queue { head: NIL, tail: NIL };

    pub(crate) fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// Every queue's entries and every payload they reference (see the module
/// docs).
pub(crate) struct MessageStore<P: Payload> {
    entries: Slab<Entry<P>>,
    small: Slab<Slot<P::Compact>>,
    large: Slab<Slot<P>>,
    lists: Slab<List>,
    /// The references of the messages sent since the last
    /// [`MessageStore::release_held`]: the handles in that advance's
    /// indications.
    held: Vec<PayloadHandle<P>>,
}

impl<P: Payload> MessageStore<P> {
    /// An empty store for a network of `nodes`.
    pub(crate) fn new(nodes: usize) -> Self {
        const { assert!(std::mem::size_of::<P::Compact>() <= 24, "a compact form fits 24 bytes") };
        let bits = chunk_bits(nodes);
        MessageStore {
            entries: Slab::new(bits),
            small: Slab::new(bits),
            large: Slab::new(bits),
            lists: Slab::new(bits),
            held: Vec::new(),
        }
    }

    /// The payload behind `handle`.
    ///
    /// # Panics
    /// Panics if every reference to it was released.
    pub(crate) fn payload(&self, handle: PayloadHandle<P>) -> P {
        match handle.index() {
            i if i < LARGE => P::expand(self.small.read(i)),
            i => self.large.read(i - LARGE),
        }
    }

    /// Append a message for `dest` to `queue`, storing `value` once in its
    /// class's slab, and return the payload's handle.
    pub(crate) fn push(
        &mut self,
        queue: &mut Queue,
        dest: Destination,
        value: P,
    ) -> PayloadHandle<P> {
        let payload = PayloadHandle::new(match value.compact() {
            Some(compact) => self.small.intern(compact),
            None => LARGE | self.large.intern(value),
        });
        self.append(queue, dest, payload);
        payload
    }

    /// Append a message for `dest` to `queue` that names a payload the
    /// store already holds, taking a reference to it.
    ///
    /// # Panics
    /// Panics if every reference to it was released.
    pub(crate) fn push_shared(
        &mut self,
        queue: &mut Queue,
        dest: Destination,
        payload: PayloadHandle<P>,
    ) {
        match payload.index() {
            i if i < LARGE => self.small.retain(i),
            i => self.large.retain(i - LARGE),
        }
        self.append(queue, dest, payload);
    }

    /// Take the first message off `queue`. Its payload reference moves to
    /// the held list, so the handle stays readable until
    /// [`MessageStore::release_held`].
    pub(crate) fn pop(&mut self, queue: &mut Queue) -> Option<(Destination, PayloadHandle<P>)> {
        let (dest, payload) = self.unlink(queue)?;
        self.held.push(payload);
        Some((dest, payload))
    }

    /// Drop every message of `queue` and its payload reference.
    pub(crate) fn clear(&mut self, queue: &mut Queue) {
        while let Some((_, payload)) = self.unlink(queue) {
            self.release(payload);
        }
    }

    /// Release the references [`MessageStore::pop`] held.
    pub(crate) fn release_held(&mut self) {
        while let Some(payload) = self.held.pop() {
            self.release(payload);
        }
    }

    /// `queue`'s messages, first to last.
    pub(crate) fn iter(&self, queue: Queue) -> impl Iterator<Item = (Destination, P)> + '_ {
        let mut at = queue.head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let entry = self.entries.get(at);
                at = entry.next;
                let dest = destination(entry.dest, |i| self.lists.get(i).nodes.clone());
                (dest, self.payload(entry.payload))
            })
        })
    }

    /// Free the chunks no insert reached since the last trim (see the
    /// module docs).
    pub(crate) fn trim(&mut self) {
        self.entries.trim();
        self.small.trim();
        self.large.trim();
        self.lists.trim();
    }

    /// Heap bytes held: the four slabs and the held handles. A multicast
    /// list of more than four ids keeps its spill outside this count.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
            + self.small.heap_bytes()
            + self.large.heap_bytes()
            + self.lists.heap_bytes()
            + self.held.capacity() * std::mem::size_of::<PayloadHandle<P>>()
    }

    /// Entries, small and large payloads, and multicast lists in use.
    #[cfg(test)]
    pub(crate) fn live(&self) -> (usize, usize, usize, usize) {
        (self.entries.live(), self.small.live(), self.large.live(), self.lists.live())
    }

    /// Entry, small payload and large payload slots allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize, usize) {
        (self.entries.capacity(), self.small.capacity(), self.large.capacity())
    }

    /// Append a message for `dest` to `queue` whose payload reference the
    /// caller took.
    fn append(&mut self, queue: &mut Queue, dest: Destination, payload: PayloadHandle<P>) {
        let dest = match dest {
            Destination::Broadcast => BROADCAST,
            Destination::Multicast(nodes) => match nodes.as_slice() {
                &[to] if to.0 < LIST => to.0,
                _ => {
                    let list = self.lists.insert(List { nodes, next: NIL });
                    assert!(list < BROADCAST - LIST, "multicast list slab full");
                    LIST | list
                }
            },
        };
        let e = self.entries.insert(Entry { dest, payload, next: NIL });
        match queue.tail {
            NIL => queue.head = e,
            tail => self.entries.get_mut(tail).next = e,
        }
        queue.tail = e;
    }

    /// Take the first entry off `queue`, with its payload reference.
    fn unlink(&mut self, queue: &mut Queue) -> Option<(Destination, PayloadHandle<P>)> {
        if queue.is_empty() {
            return None;
        }
        let e = queue.head;
        let entry = self.entries.get(e);
        let (dest, payload, next) = (entry.dest, entry.payload, entry.next);
        self.entries.remove(e);
        let dest = destination(dest, |i| {
            let nodes = std::mem::take(&mut self.lists.get_mut(i).nodes);
            self.lists.remove(i);
            nodes
        });
        queue.head = next;
        if next == NIL {
            queue.tail = NIL;
        }
        Some((dest, payload))
    }

    /// Drop one reference to `payload`; the last one frees its slot.
    fn release(&mut self, payload: PayloadHandle<P>) {
        match payload.index() {
            i if i < LARGE => self.small.release(i),
            i => self.large.release(i - LARGE),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A test payload of both classes: `Small` is stored through its
    /// compact form, the value, and `Large` whole.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Mixed {
        Small(u32),
        Large(u32, [u64; 8]),
    }

    impl Mixed {
        /// `value` in the class it picks: every third value is large.
        pub(crate) fn new(value: u32) -> Self {
            match value % 3 {
                0 => Mixed::Large(value, [u64::from(value); 8]),
                _ => Mixed::Small(value),
            }
        }

        pub(crate) fn value(self) -> u32 {
            match self {
                Mixed::Small(v) | Mixed::Large(v, _) => v,
            }
        }
    }

    impl Payload for Mixed {
        type Compact = u32;

        fn compact(&self) -> Option<u32> {
            match *self {
                Mixed::Small(v) => Some(v),
                Mixed::Large(..) => None,
            }
        }

        fn expand(compact: u32) -> Self {
            Mixed::Small(compact)
        }
    }

    #[test]
    fn layout_budget() {
        // A queued message is one 12-byte entry, a node's queue state is
        // two indices, and a small payload is a 32-byte slot.
        assert_eq!(std::mem::size_of::<Entry<Mixed>>(), 12);
        assert_eq!(std::mem::size_of::<Queue>(), 8);
        assert_eq!(std::mem::size_of::<PayloadHandle<Mixed>>(), 4);
        assert_eq!(std::mem::size_of::<Slot<[u64; 3]>>(), 32);
    }

    #[test]
    fn chunks_grow_with_the_network_up_to_1024_slots() {
        let slots = |nodes| 1usize << chunk_bits(nodes);
        assert_eq!([slots(0), slots(100), slots(250), slots(2_000)], [64, 64, 64, 128]);
        assert_eq!([slots(5_000), slots(20_000), slots(50_000)], [512, 1024, 1024]);
    }

    #[test]
    fn queues_are_fifo_and_share_payloads_of_both_classes() {
        let mut store = MessageStore::new(100);
        let (mut a, mut b) = (Queue::EMPTY, Queue::EMPTY);
        let (small, large) = (Mixed::new(7), Mixed::new(9));
        let shared = [small, large].map(|p| store.push(&mut a, Destination::Broadcast, p));
        assert!(shared[0].index() < LARGE && shared[1].index() >= LARGE, "{shared:?}");
        for v in 1..4 {
            store.push(&mut a, Destination::unicast(NodeId(v)), Mixed::new(v));
        }
        for h in shared {
            store.push_shared(&mut b, Destination::Broadcast, h);
        }
        let values =
            |store: &MessageStore<Mixed>, q| store.iter(q).map(|(_, p)| p).collect::<Vec<_>>();
        assert_eq!(values(&store, a), [7, 9, 1, 2, 3].map(Mixed::new));
        assert_eq!(values(&store, b), [small, large]);
        assert_eq!(store.live(), (7, 3, 2, 0));
        let (dest, first) = store.pop(&mut a).expect("a queued message");
        assert_eq!((dest, store.payload(first)), (Destination::Broadcast, small));
        store.clear(&mut a);
        assert!(a.is_empty());
        assert_eq!(store.live(), (2, 1, 1, 0), "b's entries and the shared payloads");
        store.release_held();
        assert_eq!(shared.map(|h| store.payload(h)), [small, large], "b still holds them");
        store.clear(&mut b);
        assert_eq!(store.live(), (0, 0, 0, 0));
    }

    #[test]
    fn destinations_round_trip_through_their_codes() {
        let dests = [
            Destination::Broadcast,
            Destination::unicast(NodeId(0)),
            Destination::unicast(NodeId(LIST - 1)),
            Destination::unicast(NodeId(LIST)),
            Destination::multicast([NodeId(3), NodeId(5)]),
            Destination::multicast([NodeId(3), NodeId(3)]),
            Destination::multicast((0..9).map(NodeId).collect::<Vec<_>>()),
            Destination::Multicast(NodeList::new()),
        ];
        let mut store = MessageStore::new(100);
        let mut q = Queue::EMPTY;
        for (v, dest) in dests.iter().enumerate() {
            store.push(&mut q, dest.clone(), v as u32);
        }
        assert_eq!(store.live(), (8, 8, 0, 5), "one list per multicast but a single node's");
        assert!(store.iter(q).map(|(d, _)| d).eq(dests.iter().cloned()));
        for dest in &dests {
            assert_eq!(&store.pop(&mut q).expect("queued").0, dest);
        }
        assert_eq!(store.live(), (0, 8, 0, 0), "the popped payloads are held");
    }

    #[test]
    fn inserts_fill_the_lowest_free_slot() {
        let mut store = MessageStore::new(100);
        let chunk = 1 << chunk_bits(100);
        let mut q = Queue::EMPTY;
        let handles: Vec<_> =
            (0..2 * chunk as u32).map(|v| store.push(&mut q, Destination::Broadcast, v)).collect();
        // Drain the first chunk's worth: the next insert reuses chunk 0.
        for _ in 0..chunk {
            store.pop(&mut q);
        }
        store.release_held();
        let h = store.push(&mut q, Destination::Broadcast, u32::MAX);
        assert!((h.index() as usize) < chunk, "{h:?} is not in the first chunk");
        assert_eq!(store.payload(handles[chunk]), chunk as u32);
    }
}
