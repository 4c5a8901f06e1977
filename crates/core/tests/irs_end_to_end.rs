//! End-to-end tests of the ITask runtime on a single simulated node:
//! an interruptible word-count pipeline (count task + MITask merge, the
//! shape of the paper's Figures 6–7) must produce exact results under
//! ample memory, under severe pressure, and with inputs far larger than
//! the heap — and the run must be deterministic.

use std::collections::BTreeMap;

use itask_core::{
    offer_serialized, Irs, IrsConfig, Scale, Tag, TaskCx, TaskGraph, Tuple, TupleTask,
};
use simcluster::{NodeSim, NodeState};
use simcore::{ByteSize, DetRng, NodeId, SimResult, TaskId};

/// A word occurrence (~48 bytes as a Java string + tuple wrapper).
#[derive(Clone, Copy)]
struct WordT(u32);

impl Tuple for WordT {
    fn heap_bytes(&self) -> u64 {
        48
    }
}

/// A (word, count) pair as a hash-map entry (~64 bytes in Java).
#[derive(Clone, Copy)]
struct CountT(u32, u64);

impl Tuple for CountT {
    fn heap_bytes(&self) -> u64 {
        64
    }
}

const ENTRY_BYTES: u64 = 64;

/// Where a count task sends its (partial) results.
enum Dest {
    /// Straight out of the runtime (a Map in Figure 6).
    Final,
    /// Tagged intermediate partitions for an MITask (Figure 7).
    Task(TaskId, fn(u32) -> Tag),
}

/// Counts word tuples into an in-memory map; on interrupt the partial
/// counts are pushed out (final) or tagged and queued (intermediate).
struct CountWords {
    counts: BTreeMap<u32, u64>,
    dest: Dest,
}

impl CountWords {
    fn new(dest: Dest) -> Self {
        CountWords {
            counts: BTreeMap::new(),
            dest,
        }
    }

    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let drained = std::mem::take(&mut self.counts);
        match self.dest {
            Dest::Final => {
                let ser = ByteSize(drained.len() as u64 * 12);
                cx.emit_final(Box::new(drained), ser)?;
            }
            Dest::Task(dest, tag_of) => {
                // Group entries by destination tag (hash bucket).
                let mut buckets: BTreeMap<Tag, Vec<CountT>> = BTreeMap::new();
                for (w, c) in drained {
                    buckets.entry(tag_of(w)).or_default().push(CountT(w, c));
                }
                for (tag, items) in buckets {
                    cx.emit_to_task(dest, tag, items)?;
                }
            }
        }
        Ok(())
    }
}

impl TupleTask for CountWords {
    type In = WordT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &WordT) -> SimResult<()> {
        use std::collections::btree_map::Entry;
        match self.counts.entry(t.0) {
            Entry::Vacant(v) => {
                cx.alloc_out(ByteSize(ENTRY_BYTES))?;
                v.insert(1);
            }
            Entry::Occupied(mut o) => *o.get_mut() += 1,
        }
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// MITask: merges partial (word, count) partitions of one tag group.
struct MergeCounts {
    counts: BTreeMap<u32, u64>,
    tag: Option<Tag>,
}

impl MergeCounts {
    fn new() -> Self {
        MergeCounts {
            counts: BTreeMap::new(),
            tag: None,
        }
    }
}

impl TupleTask for MergeCounts {
    type In = CountT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &CountT) -> SimResult<()> {
        use std::collections::btree_map::Entry;
        if self.tag.is_none() {
            self.tag = Some(Tag(t.0 as u64 % 4));
        }
        match self.counts.entry(t.0) {
            Entry::Vacant(v) => {
                cx.alloc_out(ByteSize(ENTRY_BYTES))?;
                v.insert(t.1);
            }
            Entry::Occupied(mut o) => *o.get_mut() += t.1,
        }
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        // Partial merges re-enter the queue under their own tag and
        // become this task's input again (paper §4.2, MergeTask).
        if self.counts.is_empty() {
            return Ok(());
        }
        let drained = std::mem::take(&mut self.counts);
        let tag = self.tag.unwrap_or(Tag(0));
        let items: Vec<CountT> = drained.into_iter().map(|(w, c)| CountT(w, c)).collect();
        let me = cx.task();
        cx.emit_to_task(me, tag, items)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let drained = std::mem::take(&mut self.counts);
        let ser = ByteSize(drained.len() as u64 * 12);
        cx.emit_final(Box::new(drained), ser)
    }
}

/// Deterministic input: `n` words over `vocab` distinct ids.
fn words(n: usize, vocab: u64, seed: u64) -> Vec<u32> {
    let mut rng = DetRng::new(seed);
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

fn ground_truth(input: &[u32]) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for &w in input {
        *m.entry(w).or_insert(0u64) += 1;
    }
    m
}

fn node(heap_kib: u64) -> NodeSim {
    NodeSim::new(NodeState::new(
        NodeId(0),
        8,
        ByteSize::kib(heap_kib),
        ByteSize::mib(64),
    ))
}

/// Builds a single-task graph (count → final) and offers input in
/// serialized chunks of `chunk` words.
fn run_count_only(
    heap_kib: u64,
    input: &[u32],
    chunk: usize,
) -> (BTreeMap<u32, u64>, Irs, NodeSim) {
    let mut graph = TaskGraph::new();
    let count = graph.add_task("count", || Box::new(Scale(CountWords::new(Dest::Final))));
    let mut irs = Irs::new(graph, IrsConfig::default());
    let mut sim = node(heap_kib);
    let handle = irs.handle();
    for ch in input.chunks(chunk) {
        let items: Vec<WordT> = ch.iter().map(|&w| WordT(w)).collect();
        offer_serialized(&handle, sim.node_mut(), count, Tag(0), items).unwrap();
    }
    irs.run_to_idle(&mut sim).expect("ITask run must survive");
    let mut merged = BTreeMap::new();
    for out in irs.take_final_outputs() {
        let m = out
            .data
            .downcast::<BTreeMap<u32, u64>>()
            .expect("count output");
        for (w, c) in m.into_iter() {
            *merged.entry(w).or_insert(0) += c;
        }
    }
    (merged, irs, sim)
}

#[test]
fn correct_counts_under_ample_memory() {
    let input = words(20_000, 500, 1);
    let (got, irs, _sim) = run_count_only(8192, &input, 2_000);
    assert_eq!(got, ground_truth(&input));
    // With an 8MiB heap and ~1MiB of data there is no pressure.
    assert_eq!(irs.stats().interrupts, 0);
    assert_eq!(irs.stats().emergency_interrupts, 0);
}

#[test]
fn correct_counts_under_severe_pressure() {
    // ~2.3MiB of tuple data + a ~300KiB counts map vs a 640KiB heap.
    let input = words(50_000, 5_000, 2);
    let (got, irs, sim) = run_count_only(448, &input, 2_000);
    assert_eq!(got, ground_truth(&input));
    let st = irs.stats();
    assert!(
        st.interrupts + st.emergency_interrupts > 0,
        "pressure must have caused interrupts: {st:?}"
    );
    // Final results were pushed out at interrupts.
    assert!(st.reclaim.final_results > ByteSize::ZERO);
    // The heap never grew beyond its capacity.
    assert!(sim.node().heap.peak_used() <= ByteSize::kib(448));
    // Pressure was observed and handled (LUGC-driven REDUCEs, or
    // allocation failures caught as emergency self-interrupts).
    let m = irs.monitor_stats();
    assert!(m.reduce_signals > 0 || st.emergency_interrupts > 0);
}

#[test]
fn input_far_larger_than_heap_completes() {
    // ~9.2MiB of input data against a 512KiB heap (18x): serialized
    // offers + interrupts must carry it through.
    let input = words(200_000, 2_000, 3);
    let (got, irs, _sim) = run_count_only(512, &input, 4_000);
    assert_eq!(got, ground_truth(&input));
    assert!(irs.stats().deserializations > 0);
}

#[test]
fn two_stage_pipeline_with_mitask_merge() {
    let input = words(60_000, 2_000, 4);
    let mut graph = TaskGraph::new();
    let merge_id_holder: std::rc::Rc<std::cell::Cell<u32>> =
        std::rc::Rc::new(std::cell::Cell::new(0));
    fn tag_of(w: u32) -> Tag {
        Tag(w as u64 % 4)
    }
    // Declared in two steps because the count factory must know merge's id.
    let count = graph.add_task("count", {
        let holder = merge_id_holder.clone();
        move || {
            Box::new(Scale(CountWords::new(Dest::Task(
                TaskId(holder.get()),
                tag_of,
            ))))
        }
    });
    let merge = graph.add_mitask("merge", || Box::new(Scale(MergeCounts::new())));
    merge_id_holder.set(merge.as_u32());
    graph.connect(count, merge);
    graph.connect(merge, merge);

    let mut irs = Irs::new(graph, IrsConfig::default());
    let mut sim = node(1024);
    let handle = irs.handle();
    for ch in input.chunks(2_000) {
        let items: Vec<WordT> = ch.iter().map(|&w| WordT(w)).collect();
        offer_serialized(&handle, sim.node_mut(), count, Tag(0), items).unwrap();
    }
    irs.run_to_idle(&mut sim).expect("pipeline must survive");

    let mut merged: BTreeMap<u32, u64> = BTreeMap::new();
    let outs = irs.take_final_outputs();
    assert!(!outs.is_empty());
    for out in outs {
        assert_eq!(out.from, merge);
        let m = out.data.downcast::<BTreeMap<u32, u64>>().unwrap();
        for (w, c) in m.into_iter() {
            assert!(merged.insert(w, c).is_none(), "tag groups must not overlap");
        }
    }
    assert_eq!(merged, ground_truth(&input));
    // Intermediate results flowed through the queue.
    assert!(irs.stats().reclaim.intermediate_results > ByteSize::ZERO);
}

#[test]
fn runs_are_deterministic() {
    let input = words(30_000, 3_000, 5);
    let (a_counts, a_irs, a_sim) = run_count_only(640, &input, 2_000);
    let (b_counts, b_irs, b_sim) = run_count_only(640, &input, 2_000);
    assert_eq!(a_counts, b_counts);
    assert_eq!(a_sim.node().now, b_sim.node().now);
    assert_eq!(a_sim.node().gc_time, b_sim.node().gc_time);
    assert_eq!(a_irs.stats().interrupts, b_irs.stats().interrupts);
    assert_eq!(a_irs.stats().serializations, b_irs.stats().serializations);
    assert_eq!(
        a_sim.node().heap.peak_used().as_u64(),
        b_sim.node().heap.peak_used().as_u64()
    );
}

#[test]
fn serialized_offers_cost_no_heap() {
    let mut graph = TaskGraph::new();
    let count = graph.add_task("count", || Box::new(Scale(CountWords::new(Dest::Final))));
    let irs = Irs::new(graph, IrsConfig::default());
    let mut sim = node(64); // tiny heap
    let handle = irs.handle();
    // 10MiB of input offered against a 64KiB heap: must not touch it.
    for _ in 0..50 {
        let items: Vec<WordT> = (0..4_000).map(WordT).collect();
        offer_serialized(&handle, sim.node_mut(), count, Tag(0), items).unwrap();
    }
    assert_eq!(sim.node().heap.used(), ByteSize::ZERO);
    assert!(sim.node().disk.used() > ByteSize::ZERO);
}

#[test]
fn decision_trace_records_the_pressure_story() {
    use simcore::tracer::{self, TraceData};
    let input = words(50_000, 5_000, 2);
    let drive = || {
        tracer::begin_run();
        run_count_only(448, &input, 2_000);
        tracer::take_run()
    };
    // Tracing is opt-in: an unarmed run harvests nothing.
    assert!(drive().is_none());
    tracer::enable();
    let run = drive().expect("an armed run harvests its stream");
    tracer::disable();
    let count = |kind: &str| run.iter().filter(|e| e.data.kind() == kind).count();
    // Activations cover every partition at least once, the pressure
    // story is visible, and everything is attributed to the node.
    assert!(count("activate") >= 25 && count("interrupt") > 0);
    assert!(run.iter().all(|e| e.node == Some(NodeId(0))));
    // Every instance that started also ended, never the other way round.
    let mut live = 0i64;
    for e in &run {
        match e.data {
            TraceData::Activated { .. } => live += 1,
            TraceData::Retired { .. } => live -= 1,
            _ => {}
        }
        assert!(live >= 0, "retire before its activate at {}", e.at);
    }
    assert_eq!(live, 0);
    // Within each stream (driver ticks, node rounds) emission order
    // never goes back in time.
    let mut by_id: Vec<_> = run.iter().map(|e| (e.id.0, e.at)).collect();
    by_id.sort();
    assert!(by_id
        .windows(2)
        .all(|w| w[0].0 >> 32 != w[1].0 >> 32 || w[0].1 <= w[1].1));
}
