//! Data partitions: the unit of input/output the ITask runtime manages
//! (the paper's `DataPartition` abstract class, Figure 4).
//!
//! A partition wraps an interval of tuples. Its *cursor* marks the
//! boundary between processed and unprocessed tuples so an interrupted
//! task can be resumed "without missing a beat"; its *tag* groups
//! intermediate results that must be aggregated together by an `MITask`.
//!
//! Partitions exist in two states: *deserialized* (an object graph
//! charged to a heap [`SpaceId`]) or *serialized* (a simulated on-disk
//! file; the heap charge is released). The partition manager flips
//! between the states lazily in response to memory pressure.

use std::any::Any;

use simcore::{ByteSize, PartitionId, SimTime, SpaceId, TaskId};
use simmem::Heap;
use simstore::FileId;

/// Groups intermediate results for aggregation (e.g. a hash-bucket id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(pub u64);

/// Where a partition's payload currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionState {
    /// Object form on the heap, charged to this space.
    InMemory(SpaceId),
    /// Byte form on the local disk.
    Serialized(FileId),
    /// Byte form in a heap byte array (paper §5.3: "for applications
    /// that cannot tolerate disk I/O, the partition can be serialized
    /// to large byte arrays" — the compact form costs `ser_bytes`
    /// instead of `mem_bytes`, typically a ~3x reduction).
    SerializedInMemory(SpaceId),
}

/// Runtime-visible metadata of a partition (the `tag`/`cursor` state of
/// the paper's `DataPartition`, plus what the IRS needs for its rules).
#[derive(Clone, Debug)]
pub struct PartitionMeta {
    /// Unique id.
    pub id: PartitionId,
    /// The logical task that consumes this partition.
    pub input_of: TaskId,
    /// Aggregation tag (meaningful for `MITask` inputs).
    pub tag: Tag,
    /// Tuples already processed (resume point).
    pub cursor: usize,
    /// Total tuples currently held.
    pub len: usize,
    /// Simulated heap footprint of the deserialized form.
    pub mem_bytes: ByteSize,
    /// Simulated size of the serialized form.
    pub ser_bytes: ByteSize,
    /// Object or byte form.
    pub state: PartitionState,
    /// When the partition was last serialized (anti-thrashing).
    pub last_serialized: Option<SimTime>,
    /// When the partition was last deserialized (anti-thrashing).
    pub last_deserialized: Option<SimTime>,
}

impl PartitionMeta {
    /// Tuples not yet processed.
    pub fn remaining(&self) -> usize {
        self.len - self.cursor
    }

    /// Whether every tuple has been processed.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.len
    }

    /// Whether the payload is currently in *object* form on the heap
    /// (directly processable).
    pub fn in_memory(&self) -> bool {
        matches!(self.state, PartitionState::InMemory(_))
    }

    /// The heap space holding the payload (object or byte form), if any.
    pub fn space(&self) -> Option<SpaceId> {
        match self.state {
            PartitionState::InMemory(s) | PartitionState::SerializedInMemory(s) => Some(s),
            PartitionState::Serialized(_) => None,
        }
    }
}

/// Object-safe partition interface the runtime schedules over.
///
/// Concrete payload access happens in the typed task layer via
/// [`Partition::as_any_mut`] downcasts; the runtime itself only reads and
/// updates [`PartitionMeta`].
pub trait Partition: Any {
    /// Shared metadata.
    fn meta(&self) -> &PartitionMeta;
    /// Mutable metadata (the runtime advances cursors, flips states).
    fn meta_mut(&mut self) -> &mut PartitionMeta;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Drops the processed prefix (tuples before the cursor), returning
    /// the heap bytes it releases from the partition's space. Called at
    /// interrupts — component (2) of the paper's Figure 1.
    fn release_processed(&mut self, heap: &mut Heap) -> ByteSize;
}

/// A boxed partition in the runtime's queue.
pub type PartitionBox = Box<dyn Partition>;

/// Tuples carried by [`VecPartition`]: they know their simulated managed
/// -heap footprint and serialized size.
///
/// Blanket-implemented for every [`simcore::HeapSized`] type (workload
/// records); implement it directly only for ad-hoc tuple types.
pub trait Tuple: 'static {
    /// Bytes this tuple occupies as a Java-style object graph.
    fn heap_bytes(&self) -> u64;

    /// Bytes this tuple occupies when serialized (Kryo-style compact
    /// encoding; object graphs typically shrink ~3×).
    fn ser_bytes(&self) -> u64 {
        (self.heap_bytes() / 3).max(1)
    }
}

impl<T: simcore::HeapSized + 'static> Tuple for T {
    fn heap_bytes(&self) -> u64 {
        simcore::HeapSized::heap_bytes(self)
    }

    fn ser_bytes(&self) -> u64 {
        simcore::HeapSized::ser_bytes(self)
    }
}

/// The standard partition implementation: a vector of tuples plus a
/// cursor.
pub struct VecPartition<T: Tuple> {
    meta: PartitionMeta,
    items: Vec<T>,
}

impl<T: Tuple> VecPartition<T> {
    /// Wraps `items` into a partition charged to `space` (the caller has
    /// already allocated the bytes into that space, or will).
    pub fn new(id: PartitionId, input_of: TaskId, tag: Tag, items: Vec<T>, space: SpaceId) -> Self {
        let mem: u64 = items.iter().map(Tuple::heap_bytes).sum();
        let ser: u64 = items.iter().map(Tuple::ser_bytes).sum();
        VecPartition {
            meta: PartitionMeta {
                id,
                input_of,
                tag,
                cursor: 0,
                len: items.len(),
                mem_bytes: ByteSize(mem),
                ser_bytes: ByteSize(ser),
                state: PartitionState::InMemory(space),
                last_serialized: None,
                last_deserialized: None,
            },
            items,
        }
    }

    /// Wraps `items` into a partition whose payload starts out on disk
    /// (an input block); no heap is charged until activation
    /// deserializes it.
    pub fn new_serialized(
        id: PartitionId,
        input_of: TaskId,
        tag: Tag,
        items: Vec<T>,
        file: FileId,
    ) -> Self {
        let mem: u64 = items.iter().map(Tuple::heap_bytes).sum();
        let ser: u64 = items.iter().map(Tuple::ser_bytes).sum();
        VecPartition {
            meta: PartitionMeta {
                id,
                input_of,
                tag,
                cursor: 0,
                len: items.len(),
                mem_bytes: ByteSize(mem),
                ser_bytes: ByteSize(ser),
                state: PartitionState::Serialized(file),
                last_serialized: None,
                last_deserialized: None,
            },
            items,
        }
    }

    /// All items (tests and sinks).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The items and the cursor into them, for [`crate::task::scale_loop`].
    pub(crate) fn items_and_cursor(&mut self) -> (&[T], &mut usize) {
        (&self.items, &mut self.meta.cursor)
    }
}

impl<T: Tuple> Partition for VecPartition<T> {
    fn meta(&self) -> &PartitionMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut PartitionMeta {
        &mut self.meta
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn release_processed(&mut self, heap: &mut Heap) -> ByteSize {
        let cursor = self.meta.cursor;
        if cursor == 0 || !self.meta.in_memory() {
            return ByteSize::ZERO;
        }
        // One pass over the prefix for both byte sums.
        let (mem, ser) = self.items[..cursor].iter().fold((0u64, 0u64), |(m, s), t| {
            (m + t.heap_bytes(), s + t.ser_bytes())
        });
        let (freed_mem, freed_ser) = (ByteSize(mem), ser);
        self.items.drain(..cursor);
        self.meta.cursor = 0;
        self.meta.len = self.items.len();
        self.meta.mem_bytes -= freed_mem;
        self.meta.ser_bytes -= ByteSize(freed_ser);
        if let Some(space) = self.meta.space() {
            heap.free(space, freed_mem);
        }
        freed_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use simmem::HeapConfig;

    #[derive(Clone)]
    struct Fixed(u64);

    impl Tuple for Fixed {
        fn heap_bytes(&self) -> u64 {
            self.0
        }
    }

    fn heap() -> Heap {
        Heap::new(HeapConfig::with_capacity(ByteSize::mib(4)))
    }

    fn part(heap: &mut Heap, sizes: &[u64]) -> VecPartition<Fixed> {
        let space = heap.create_space("part");
        let items: Vec<Fixed> = sizes.iter().map(|&s| Fixed(s)).collect();
        let total: u64 = sizes.iter().sum();
        heap.alloc(space, ByteSize(total), SimTime::ZERO).unwrap();
        VecPartition::new(PartitionId(0), TaskId(0), Tag(7), items, space)
    }

    #[test]
    fn meta_tracks_sizes_and_cursor() {
        let mut h = heap();
        let mut p = part(&mut h, &[100, 200, 300]);
        assert_eq!(p.meta().len, 3);
        assert_eq!(p.meta().mem_bytes, ByteSize(600));
        // Integer division per tuple: 33 + 66 + 100.
        assert_eq!(p.meta().ser_bytes, ByteSize(199));
        assert_eq!(p.meta().tag, Tag(7));
        assert!(p.meta().in_memory());
        assert_eq!(p.meta().remaining(), 3);
        assert!(!p.meta().exhausted());
        // A tuple loop's cursor at the end of the items exhausts it.
        let (items, cursor) = p.items_and_cursor();
        *cursor = items.len();
        assert!(p.meta().exhausted());
    }

    #[test]
    fn release_processed_frees_prefix_only() {
        let mut h = heap();
        let mut p = part(&mut h, &[100, 200, 300]);
        *p.items_and_cursor().1 = 2;
        let space = p.meta().space().unwrap();
        let live_before = h.space_live(space);
        let freed = p.release_processed(&mut h);
        assert_eq!(freed, ByteSize(300));
        assert_eq!(h.space_live(space), live_before - ByteSize(300));
        // The partition now holds only the unprocessed suffix.
        assert_eq!(p.meta().len, 1);
        assert_eq!(p.meta().cursor, 0);
        assert_eq!(p.meta().mem_bytes, ByteSize(300));
        assert_eq!(p.items()[0].0, 300);
        // Releasing again with cursor 0 is a no-op.
        assert_eq!(p.release_processed(&mut h), ByteSize::ZERO);
    }

    #[test]
    fn downcast_roundtrip() {
        let mut h = heap();
        let mut p = part(&mut h, &[1]);
        let dynamic: &mut dyn Partition = &mut p;
        assert!(dynamic
            .as_any_mut()
            .downcast_mut::<VecPartition<Fixed>>()
            .is_some());
        assert!(dynamic
            .as_any()
            .downcast_ref::<VecPartition<Fixed>>()
            .is_some());
    }

    #[test]
    fn default_ser_bytes_is_a_third() {
        assert_eq!(Fixed(9).ser_bytes(), 3);
        assert_eq!(Fixed(1).ser_bytes(), 1); // never zero
    }
}
