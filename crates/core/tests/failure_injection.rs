//! Failure injection: when the substrate itself fails (disk full during
//! serialization), the runtime must surface a clean error — never hang,
//! never corrupt accounting.

use std::collections::BTreeMap;

use itask_core::{
    offer_serialized, Irs, IrsConfig, Scale, Tag, TaskCx, TaskGraph, Tuple, TupleTask,
};
use simcluster::{NodeSim, NodeState};
use simcore::{ByteSize, DetRng, NodeId, SimError, SimResult};

#[derive(Clone, Copy)]
struct W(u32);

impl Tuple for W {
    fn heap_bytes(&self) -> u64 {
        48
    }
}

#[derive(Default)]
struct Count {
    counts: BTreeMap<u32, u64>,
}

impl TupleTask for Count {
    type In = W;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &W) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(64))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("present") += 1;
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let d = std::mem::take(&mut self.counts);
        if d.is_empty() {
            return Ok(());
        }
        let ser = ByteSize(d.len() as u64 * 12);
        cx.emit_final(Box::new(d), ser)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let d = std::mem::take(&mut self.counts);
        if d.is_empty() {
            return Ok(());
        }
        let ser = ByteSize(d.len() as u64 * 12);
        cx.emit_final(Box::new(d), ser)
    }
}

/// Offering more input than the disk can stage fails loudly and leaves
/// the node consistent.
#[test]
fn disk_full_on_offer_is_a_clean_error() {
    let mut sim = NodeSim::new(NodeState::new(
        NodeId(0),
        4,
        ByteSize::kib(512),
        ByteSize::kib(32), // tiny disk
    ));
    let mut graph = TaskGraph::new();
    let count = graph.add_task("count", || Box::new(Scale(Count::default())));
    let irs = Irs::new(graph, IrsConfig::default());
    let handle = irs.handle();

    let mut failed = 0;
    let mut offered = 0;
    for _ in 0..40 {
        let items: Vec<W> = (0..1_000).map(W).collect();
        match offer_serialized(&handle, sim.node_mut(), count, Tag(0), items) {
            Ok(_) => offered += 1,
            Err(SimError::DiskFull { node, .. }) => {
                assert_eq!(node, NodeId(0));
                failed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(offered > 0, "some offers fit");
    assert!(failed > 0, "the rest fail with DiskFull");
    // Nothing leaked onto the heap.
    assert_eq!(sim.node().heap.used(), ByteSize::ZERO);
}

/// A run whose staged inputs fit, but whose *write-behind* serialization
/// hits a full disk mid-run, must fail with the disk error (propagated
/// through the worker), not hang or panic.
#[test]
fn disk_full_mid_run_propagates() {
    let mut sim = NodeSim::new(NodeState::new(
        NodeId(0),
        4,
        ByteSize::kib(256), // pressured heap: forces write-behind
        ByteSize::kib(96),  // disk with just enough room for the input
    ));
    let mut graph = TaskGraph::new();
    // Count feeds an MITask so intermediates hit the queue + disk.
    let merge_holder = std::rc::Rc::new(std::cell::Cell::new(0u32));
    struct ToMerge {
        counts: BTreeMap<u32, u64>,
        merge: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl TupleTask for ToMerge {
        type In = W;
        fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &W) -> SimResult<()> {
            if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
                cx.alloc_out(ByteSize(64))?;
                v.insert(0);
            }
            *self.counts.get_mut(&t.0).expect("present") += 1;
            Ok(())
        }
        fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            self.flush(cx)
        }
        fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            self.flush(cx)
        }
    }
    impl ToMerge {
        fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            let d = std::mem::take(&mut self.counts);
            if d.is_empty() {
                return Ok(());
            }
            let items: Vec<W> = d.keys().map(|&k| W(k)).collect();
            cx.emit_to_task(simcore::TaskId(self.merge.get()), Tag(0), items)
        }
    }
    let h = merge_holder.clone();
    let count = graph.add_task("count", move || {
        Box::new(Scale(ToMerge {
            counts: BTreeMap::new(),
            merge: h.clone(),
        }))
    });
    let merge = graph.add_mitask("merge", || Box::new(Scale(Count::default())));
    merge_holder.set(merge.as_u32());
    graph.connect(count, merge);
    graph.connect(merge, merge);

    let mut irs = Irs::new(graph, IrsConfig::default());
    let handle = irs.handle();
    let mut rng = DetRng::new(3);
    // Offer as much as the disk will stage.
    loop {
        let items: Vec<W> = (0..1_500).map(|_| W(rng.below(4_000) as u32)).collect();
        if offer_serialized(&handle, sim.node_mut(), count, Tag(0), items).is_err() {
            break;
        }
    }
    // The run either completes (if pressure stayed manageable) or fails
    // with a *disk* error — never hangs, never panics.
    match irs.run_to_idle(&mut sim) {
        Ok(()) => {}
        Err(SimError::DiskFull { .. }) => {}
        Err(SimError::OutOfMemory { .. }) => {}
        Err(other) => panic!("unexpected failure kind: {other}"),
    }
}

/// A partition whose deserialized form cannot fit the heap surfaces a
/// clean OutOfMemory from activation, releases the transient heap space
/// and leaves the partition serialized on disk (retryable later).
#[test]
fn ome_during_deserialization_is_clean_and_retryable() {
    use itask_core::{Partition, PartitionState, VecPartition};
    use simcore::{PartitionId, TaskId};

    let mut state = NodeState::new(
        NodeId(0),
        1,
        ByteSize::kib(4), // 4KiB heap vs a ~47KiB object form
        ByteSize::mib(1),
    );
    let items: Vec<W> = (0..1_000).map(W).collect();
    let ser = ByteSize(items.iter().map(Tuple::ser_bytes).sum());
    let file = state.disk.register("p0.ser", ser).expect("fits");
    let mut part = VecPartition::new_serialized(PartitionId(0), TaskId(0), Tag(0), items, file);

    let err =
        itask_core::manager::deserialize_partition(&mut part, &mut state).expect_err("cannot fit");
    assert!(err.is_oom(), "expected OME, got {err}");
    assert_eq!(
        state.heap.used(),
        ByteSize::ZERO,
        "transient space must be released"
    );
    assert!(
        matches!(part.meta().state, PartitionState::Serialized(_)),
        "the partition must stay on disk, retryable once memory frees up"
    );
}

/// Shuffle-style intermediates (emitted to a downstream MITask) that the
/// manager must spill onto an almost-full disk: the run fails with
/// DiskFull — never a hang, never corrupted heap accounting.
#[test]
fn disk_full_during_shuffle_spill_propagates() {
    let mut sim = NodeSim::new(NodeState::new(
        NodeId(0),
        2,
        ByteSize::kib(128), // pressured: queued intermediates must spill
        ByteSize::kib(256),
    ));
    let mut graph = TaskGraph::new();
    let merge_holder = std::rc::Rc::new(std::cell::Cell::new(0u32));
    struct Exploder {
        merge: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl TupleTask for Exploder {
        type In = W;
        fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &W) -> SimResult<()> {
            // Shuffle fan-out: every record emits a batch downstream.
            let items: Vec<W> = (0..8).map(|i| W(t.0.wrapping_mul(8) + i)).collect();
            cx.emit_to_task(
                simcore::TaskId(self.merge.get()),
                Tag((t.0 % 4) as u64),
                items,
            )
        }
        fn interrupt(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn cleanup(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
    }
    let h = merge_holder.clone();
    let map = graph.add_task("explode", move || {
        Box::new(Scale(Exploder { merge: h.clone() }))
    });
    let merge = graph.add_mitask("merge", || Box::new(Scale(Count::default())));
    merge_holder.set(merge.as_u32());
    graph.connect(map, merge);

    let mut irs = Irs::new(graph, IrsConfig::default());
    let handle = irs.handle();
    let mut rng = DetRng::new(9);
    let mut offers = 0;
    while offers < 24 {
        let items: Vec<W> = (0..1_000).map(|_| W(rng.below(1 << 20) as u32)).collect();
        if offer_serialized(&handle, sim.node_mut(), map, Tag(0), items).is_err() {
            break;
        }
        offers += 1;
    }
    // Almost fill what's left of the disk so the first shuffle spill
    // cannot be staged.
    let free = sim.node().disk.free();
    if free > ByteSize(512) {
        sim.node_mut()
            .disk
            .register("hog", ByteSize(free.as_u64() - 512))
            .expect("hog fits");
    }
    match irs.run_to_idle(&mut sim) {
        Err(SimError::DiskFull { node, .. }) => assert_eq!(node, NodeId(0)),
        Err(SimError::OutOfMemory { .. }) => {} // acceptable: heap died first
        Ok(()) => panic!("run cannot complete: intermediates exceed disk + heap"),
        Err(other) => panic!("unexpected failure kind: {other}"),
    }
    // Accounting stayed sane through the failure.
    assert!(sim.node().heap.used() <= sim.node().heap.capacity());
}
