//! The partition manager (paper §5.3): lazy serialization of queued
//! partitions under pressure, deserialization on activation, and the
//! retention-priority rules.
//!
//! Serialization is the *cheapest* stage of a REDUCE: it frees memory
//! held by partitions whose tasks are not even running. Only if that is
//! not enough does the scheduler start interrupting live instances.

use simcluster::{NodeState, DEFAULT_IO_RETRIES};
use simcore::{ByteSize, CostModel, PartitionId, SimDuration, SimError, SimTime, TaskId};

use crate::graph::TaskGraph;
use crate::partition::{Partition, PartitionState};
use crate::queue::PartitionQueue;

/// Where serialized partitions go (paper §5.3 offers both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SerializeMode {
    /// Write the byte form to the local disk (default prototype).
    #[default]
    Disk,
    /// Keep the byte form as a heap byte array: no disk I/O, but only a
    /// ~3x reduction (object bloat vs compact encoding). Falls back to
    /// disk when even the byte array does not fit.
    MemoryBytes,
}

/// A partition deserialized within this window is protected from
/// re-serialization while alternatives exist (anti-thrashing).
const THRASH_WINDOW: SimDuration = SimDuration::from_millis(5);

/// Serializes one partition: the object form becomes garbage and the
/// byte form goes to `mode`'s target (paper §5.3: the node disk via a
/// background write, or a large in-memory byte array for I/O-averse
/// applications). Returns the *net* heap bytes released (they become
/// reclaimable at the next collection).
pub fn serialize_partition(
    part: &mut dyn Partition,
    node: &mut NodeState,
    mode: SerializeMode,
) -> simcore::SimResult<ByteSize> {
    let meta = part.meta();
    let space = match meta.state {
        PartitionState::InMemory(space) => space,
        PartitionState::Serialized(_) | PartitionState::SerializedInMemory(_) => {
            return Ok(ByteSize::ZERO)
        }
    };
    let ser_bytes = meta.ser_bytes;
    let id = meta.id;
    if mode == SerializeMode::MemoryBytes {
        // Compact in place: drop the object form, keep a byte array.
        let freed = node.heap.release_space(space);
        let bytes_space = node.heap.create_space(format!("{id}.serbytes"));
        if node.alloc(bytes_space, ser_bytes).is_ok() {
            let meta = part.meta_mut();
            meta.state = PartitionState::SerializedInMemory(bytes_space);
            meta.last_serialized = Some(node.now);
            return Ok(freed - ser_bytes);
        }
        // Even the byte array does not fit: fall through to disk.
        node.heap.release_space(bytes_space);
        let (file, _retries) = node.disk_write_retried(&format!("{id}.ser"), ser_bytes)?;
        let meta = part.meta_mut();
        meta.state = PartitionState::Serialized(file);
        meta.last_serialized = Some(node.now);
        return Ok(freed);
    }
    // CPU cost of encoding is charged to the node clock (the paper uses
    // background threads; encoding overlaps compute, so we charge only
    // the cheap async-write bookkeeping). Transient disk faults are
    // absorbed by bounded retry with the device backing off in between.
    let (file, _retries) = node.disk_write_retried(&format!("{id}.ser"), ser_bytes)?;
    let freed = node.heap.release_space(space);
    let meta = part.meta_mut();
    meta.state = PartitionState::Serialized(file);
    meta.last_serialized = Some(node.now);
    Ok(freed)
}

/// What a deserialization had to survive (fault-injection runs): zero
/// everywhere on a healthy substrate.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeserRecovery {
    /// Transient read/write faults absorbed by bounded retry.
    pub transient_retries: u32,
    /// Corrupt spill files rebuilt from the retained object form.
    pub corruption_rebuilds: u32,
}

/// Deserializes one partition for activation: disk read, decode CPU,
/// heap allocation. Returns the heap bytes charged, the duration the
/// activating thread must charge for the I/O and decoding, and what it
/// had to recover from.
///
/// On an allocation failure the partition is left serialized and the
/// error is returned (the caller counts a failed activation).
///
/// Reads are checksum-verified; a corrupt spill file is deleted
/// and rebuilt from the partition's retained object form (its lineage —
/// [`crate::partition::VecPartition`] keeps the tuples across
/// serialization), paying the encode CPU and a fresh write, then the
/// read is retried. Both the rebuild loop and the per-I/O transient
/// retries are bounded, so a hostile injector cannot live-lock the
/// activation: when the budget runs out the underlying error surfaces.
pub fn deserialize_partition(
    part: &mut dyn Partition,
    node: &mut NodeState,
) -> simcore::SimResult<(ByteSize, SimDuration, DeserRecovery)> {
    let meta = part.meta();
    let mem_bytes = meta.mem_bytes;
    let ser_bytes = meta.ser_bytes;
    let id = meta.id;
    let mut rec = DeserRecovery::default();
    match meta.state {
        PartitionState::InMemory(_) => Ok((ByteSize::ZERO, SimDuration::ZERO, rec)),
        PartitionState::Serialized(file) => {
            let space = node.heap.create_space(format!("{id}.deser"));
            if let Err(e) = node.alloc(space, mem_bytes) {
                node.heap.release_space(space);
                return Err(e);
            }
            let mut file = file;
            let mut cost = SimDuration::ZERO;
            loop {
                match node.disk_read_retried(file) {
                    Ok((_bytes, stall, retries)) => {
                        rec.transient_retries += retries;
                        cost += stall;
                        break;
                    }
                    Err(SimError::CorruptPartition { .. })
                        if rec.corruption_rebuilds < DEFAULT_IO_RETRIES =>
                    {
                        // The stored bytes are damaged; the object form
                        // is still held by the partition, so re-encode,
                        // write a fresh spill file and read that instead.
                        node.disk.delete(file);
                        cost += CostModel::serialize_cpu(ser_bytes);
                        let (fresh, retries) = node
                            .disk_write_retried(&format!("{id}.ser"), ser_bytes)
                            .inspect_err(|_| {
                                node.heap.release_space(space);
                            })?;
                        rec.transient_retries += retries;
                        rec.corruption_rebuilds += 1;
                        part.meta_mut().state = PartitionState::Serialized(fresh);
                        file = fresh;
                    }
                    Err(e) => {
                        node.heap.release_space(space);
                        return Err(e);
                    }
                }
            }
            cost += CostModel::deserialize_cpu(ser_bytes);
            node.disk.delete(file);
            let meta = part.meta_mut();
            meta.state = PartitionState::InMemory(space);
            meta.last_deserialized = Some(node.now + cost);
            Ok((mem_bytes, cost, rec))
        }
        PartitionState::SerializedInMemory(bytes_space) => {
            // Decode straight from the byte array: no disk stall.
            let space = node.heap.create_space(format!("{id}.deser"));
            if let Err(e) = node.alloc(space, mem_bytes) {
                node.heap.release_space(space);
                return Err(e);
            }
            node.heap.release_space(bytes_space);
            let cost = CostModel::deserialize_cpu(ser_bytes);
            let meta = part.meta_mut();
            meta.state = PartitionState::InMemory(space);
            meta.last_deserialized = Some(node.now + cost);
            Ok((mem_bytes, cost, rec))
        }
    }
}

/// Picks queued partitions to serialize, lowest retention priority
/// first, honouring the paper's rules:
///
/// * **Temporal locality** — partitions feeding tasks *near* the
///   currently running tasks stay in memory;
/// * **Finish line** — partitions feeding tasks *near* the output of the
///   task graph stay in memory;
/// * **Anti-thrashing** — recently deserialized partitions are only
///   chosen if nothing else qualifies, oldest deserialization first.
///
/// Returns partition ids in serialization order.
pub fn serialization_order(
    queue: &PartitionQueue,
    graph: &TaskGraph,
    running_tasks: &[TaskId],
    now: SimTime,
) -> Vec<PartitionId> {
    let dist_to_running = |t: TaskId| {
        running_tasks
            .iter()
            .map(|&r| graph.distance_between(t, r))
            .min()
            .unwrap_or(usize::MAX / 2)
    };
    let mut candidates: Vec<(usize, usize, u64, PartitionId, bool)> = queue
        .metas()
        .filter(|m| m.in_memory())
        .map(|m| {
            let protected = m
                .last_deserialized
                .map(|t| now.since(t) < THRASH_WINDOW)
                .unwrap_or(false);
            let deser_age = m.last_deserialized.map(|t| t.as_nanos()).unwrap_or(0);
            (
                dist_to_running(m.input_of),
                graph.distance_to_finish(m.input_of),
                deser_age,
                m.id,
                protected,
            )
        })
        .collect();
    // Farther from running tasks first, then farther from the finish
    // line, then oldest deserialization, then id for determinism.
    candidates.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(b.1.cmp(&a.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    let (unprotected, protected): (Vec<_>, Vec<_>) = candidates.into_iter().partition(|c| !c.4);
    unprotected
        .into_iter()
        .chain(protected)
        .map(|c| c.3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{Tag, Tuple, VecPartition};
    use crate::task::{ITask, TaskCx};
    use simcore::{NodeId, SimResult};

    struct B(u64);

    impl Tuple for B {
        fn heap_bytes(&self) -> u64 {
            self.0
        }
    }

    struct Nop;

    impl ITask for Nop {
        fn initialize(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn process_batch(
            &mut self,
            _: &mut TaskCx<'_, '_>,
            _: &mut dyn Partition,
        ) -> SimResult<u64> {
            Ok(0)
        }
        fn interrupt(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn cleanup(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
    }

    fn node() -> NodeState {
        NodeState::new(NodeId(0), 8, ByteSize::mib(4), ByteSize::mib(64))
    }

    fn in_memory_partition(
        node: &mut NodeState,
        id: u32,
        task: u32,
        bytes_per_tuple: u64,
        n: usize,
    ) -> Box<VecPartition<B>> {
        let space = node.heap.create_space(format!("p{id}"));
        node.alloc(space, ByteSize(bytes_per_tuple * n as u64))
            .unwrap();
        let items = (0..n).map(|_| B(bytes_per_tuple)).collect();
        Box::new(VecPartition::new(
            PartitionId(id),
            TaskId(task),
            Tag(0),
            items,
            space,
        ))
    }

    #[test]
    fn serialize_then_deserialize_roundtrip() {
        let mut n = node();
        let mut p = in_memory_partition(&mut n, 0, 0, 1000, 10);
        let heap_before = n.heap.live();
        let freed = serialize_partition(p.as_mut(), &mut n, SerializeMode::Disk).unwrap();
        assert_eq!(freed, ByteSize(10_000));
        assert_eq!(n.heap.live(), heap_before - ByteSize(10_000));
        assert!(!p.meta().in_memory());
        assert!(p.meta().last_serialized.is_some());
        assert_eq!(n.disk.file_count(), 1);
        // Serializing again is a no-op.
        assert_eq!(
            serialize_partition(p.as_mut(), &mut n, SerializeMode::Disk).unwrap(),
            ByteSize::ZERO
        );

        let (charged, cost, _) = deserialize_partition(p.as_mut(), &mut n).unwrap();
        assert_eq!(charged, ByteSize(10_000));
        assert!(cost > SimDuration::ZERO);
        assert!(p.meta().in_memory());
        assert!(p.meta().last_deserialized.is_some());
        assert_eq!(n.heap.live(), heap_before);
        // The spill file was consumed.
        assert_eq!(n.disk.file_count(), 0);
        // Deserializing again is a no-op.
        let (again, _, _) = deserialize_partition(p.as_mut(), &mut n).unwrap();
        assert_eq!(again, ByteSize::ZERO);
    }

    #[test]
    fn deserialize_failure_leaves_partition_serialized() {
        let mut n = NodeState::new(NodeId(0), 8, ByteSize::kib(64), ByteSize::mib(64));
        let mut p = in_memory_partition(&mut n, 0, 0, 1000, 10);
        serialize_partition(p.as_mut(), &mut n, SerializeMode::Disk).unwrap();
        // Fill the heap so rematerialization cannot fit.
        let hog = n.heap.create_space("hog");
        while n.alloc(hog, ByteSize::kib(4)).is_ok() {}
        let err = deserialize_partition(p.as_mut(), &mut n).unwrap_err();
        assert!(err.is_oom());
        assert!(!p.meta().in_memory());
    }

    #[test]
    fn serialization_order_applies_rules() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || Box::new(Nop));
        let b = g.add_task("b", || Box::new(Nop));
        let c = g.add_task("c", || Box::new(Nop));
        g.connect(a, b);
        g.connect(b, c);

        let mut n = node();
        let mut q = PartitionQueue::new();
        // Partition for a (far from finish, far from running c).
        q.push(in_memory_partition(&mut n, 0, a.as_u32(), 10, 1));
        // Partition for c (at the finish line, running).
        q.push(in_memory_partition(&mut n, 1, c.as_u32(), 10, 1));
        // Partition for b.
        q.push(in_memory_partition(&mut n, 2, b.as_u32(), 10, 1));

        let order = serialization_order(&q, &g, &[c], SimTime::ZERO);
        // a's partition is serialized first, c's last.
        assert_eq!(order, vec![PartitionId(0), PartitionId(2), PartitionId(1)]);
    }

    #[test]
    fn recently_deserialized_partitions_go_last() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || Box::new(Nop));
        let mut n = node();
        let mut q = PartitionQueue::new();
        let mut hot = in_memory_partition(&mut n, 0, a.as_u32(), 10, 1);
        hot.meta_mut().last_deserialized = Some(SimTime::ZERO);
        q.push(hot);
        q.push(in_memory_partition(&mut n, 1, a.as_u32(), 10, 1));

        let order = serialization_order(&q, &g, &[a], SimTime::ZERO + SimDuration::from_millis(1));
        // The cold partition is preferred even though ids tie-break the
        // other way.
        assert_eq!(order, vec![PartitionId(1), PartitionId(0)]);
    }

    #[test]
    fn serialized_partitions_are_not_candidates() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || Box::new(Nop));
        let mut n = node();
        let mut p = in_memory_partition(&mut n, 0, a.as_u32(), 10, 1);
        serialize_partition(p.as_mut(), &mut n, SerializeMode::Disk).unwrap();
        let mut q = PartitionQueue::new();
        q.push(p);
        let order = serialization_order(&q, &g, &[a], SimTime::ZERO);
        assert!(order.is_empty());
    }
}

#[cfg(test)]
mod memory_bytes_tests {
    use super::*;
    use crate::partition::{Tag, Tuple, VecPartition};
    use simcluster::NodeState;
    use simcore::{ByteSize, NodeId, PartitionId, TaskId};

    struct B(u64);

    impl Tuple for B {
        fn heap_bytes(&self) -> u64 {
            self.0
        }
        fn ser_bytes(&self) -> u64 {
            self.0 / 3
        }
    }

    fn node(heap_kib: u64) -> NodeState {
        NodeState::new(NodeId(0), 8, ByteSize::kib(heap_kib), ByteSize::mib(64))
    }

    fn partition(n: &mut NodeState, bytes_per: u64, count: usize) -> Box<VecPartition<B>> {
        let space = n.heap.create_space("p");
        n.alloc(space, ByteSize(bytes_per * count as u64)).unwrap();
        let items = (0..count).map(|_| B(bytes_per)).collect();
        Box::new(VecPartition::new(
            PartitionId(0),
            TaskId(0),
            Tag(0),
            items,
            space,
        ))
    }

    #[test]
    fn memory_bytes_mode_compacts_without_disk() {
        let mut n = node(4096);
        let mut p = partition(&mut n, 900, 10); // 9000B object form, 3000B bytes
        let net = serialize_partition(p.as_mut(), &mut n, SerializeMode::MemoryBytes).unwrap();
        assert_eq!(net, ByteSize(9000 - 3000), "net release = bloat - bytes");
        assert!(!p.meta().in_memory());
        assert!(matches!(
            p.meta().state,
            PartitionState::SerializedInMemory(_)
        ));
        assert_eq!(n.disk.file_count(), 0, "no disk I/O in this mode");
        // The byte array is live on the heap.
        assert_eq!(n.heap.live(), ByteSize(3000));

        // Deserialization restores the object form with no disk stall.
        let (charged, cost, _) = deserialize_partition(p.as_mut(), &mut n).unwrap();
        assert_eq!(charged, ByteSize(9000));
        assert!(cost > SimDuration::ZERO); // decode CPU only
        assert!(p.meta().in_memory());
        assert_eq!(n.heap.live(), ByteSize(9000));
        assert_eq!(n.io_stall_time, SimDuration::ZERO);
    }

    #[test]
    fn serialized_in_memory_partitions_are_not_reserialization_candidates() {
        let mut n = node(4096);
        let mut p = partition(&mut n, 900, 10);
        serialize_partition(p.as_mut(), &mut n, SerializeMode::MemoryBytes).unwrap();
        // A second serialization is a no-op.
        let again = serialize_partition(p.as_mut(), &mut n, SerializeMode::MemoryBytes).unwrap();
        assert_eq!(again, ByteSize::ZERO);
    }
}
