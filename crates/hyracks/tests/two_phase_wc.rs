//! End-to-end engine test: a miniature word count run as (a) a regular
//! two-phase job and (b) an ITask job — the regular version must OME on
//! a small heap where the ITask version survives with exact results
//! (the paper's headline claim).

use std::collections::BTreeMap;
use std::rc::Rc;

use hyracks::{
    distribute_blocks, run_itask, run_regular, ItaskFactories, ItaskJobSpec, JobSpec, OpCx,
    Operator, ShuffleBatch,
};
use itask_core::{ITask, Scale, TaskCx, Tuple, TupleTask};
use simcluster::{Cluster, ClusterConfig};
use simcore::TaskId;
use simcore::{ByteSize, DetRng, SimResult};

const ENTRY: u64 = 64;
const BUCKETS: u32 = 12;

thread_local! {
    static MAP_OUT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static RED_IN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static RED_OUT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static MRG_IN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static MRG_OUT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
fn bump(c: &'static std::thread::LocalKey<std::cell::Cell<u64>>, by: u64) {
    c.with(|x| x.set(x.get() + by));
}

#[derive(Clone, Copy, Debug)]
struct WordT(u32);

impl Tuple for WordT {
    fn heap_bytes(&self) -> u64 {
        48
    }
}

#[derive(Clone, Copy, Debug)]
struct CountT(u32, u64);

impl Tuple for CountT {
    fn heap_bytes(&self) -> u64 {
        ENTRY
    }
}

fn bucket_of(w: u32) -> u32 {
    w % BUCKETS
}

// ---------------- regular operators ----------------

#[derive(Default)]
struct CountOp {
    counts: BTreeMap<u32, u64>,
}

impl Operator for CountOp {
    type In = WordT;
    type Out = CountT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, CountT>, t: &WordT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_state(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("just ensured") += 1;
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, CountT>) -> SimResult<()> {
        for (w, c) in std::mem::take(&mut self.counts) {
            cx.emit(bucket_of(w), CountT(w, c))?;
        }
        Ok(())
    }
}

/// Regular reduce operator: sums CountT partials per word.
#[derive(Default)]
struct SumOp {
    counts: BTreeMap<u32, u64>,
}

impl Operator for SumOp {
    type In = CountT;
    type Out = CountT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, CountT>, t: &CountT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_state(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("just ensured") += t.1;
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, CountT>) -> SimResult<()> {
        for (w, c) in std::mem::take(&mut self.counts) {
            cx.emit(bucket_of(w), CountT(w, c))?;
        }
        Ok(())
    }
}

// ---------------- ITask versions ----------------

#[derive(Default)]
struct CountMapTask {
    counts: BTreeMap<u32, u64>,
}

impl CountMapTask {
    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let mut buckets: BTreeMap<u32, Vec<CountT>> = BTreeMap::new();
        for (w, c) in std::mem::take(&mut self.counts) {
            buckets.entry(bucket_of(w)).or_default().push(CountT(w, c));
        }
        bump(&MAP_OUT, buckets.values().flatten().map(|c| c.1).sum());
        let ser: u64 = buckets.values().flatten().map(Tuple::ser_bytes).sum();
        let batch = ShuffleBatch::from_buckets(buckets);
        cx.emit_final(Box::new(batch), ByteSize(ser))
    }
}

impl TupleTask for CountMapTask {
    type In = WordT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &WordT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("just ensured") += 1;
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// Reduce: merges CountT partials of one bucket partition, queueing the
/// result (tagged with the bucket) for the merge MITask.
#[derive(Default)]
struct CountReduceTask {
    counts: BTreeMap<u32, u64>,
    merge_task: u32,
}

impl CountReduceTask {
    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let items: Vec<CountT> = std::mem::take(&mut self.counts)
            .into_iter()
            .map(|(w, c)| CountT(w, c))
            .collect();
        bump(&RED_OUT, items.iter().map(|c| c.1).sum());
        let tag = cx.input_tag();
        cx.emit_to_task(TaskId(self.merge_task), tag, items)
    }
}

impl TupleTask for CountReduceTask {
    type In = CountT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &CountT) -> SimResult<()> {
        bump(&RED_IN, t.1);
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("just ensured") += t.1;
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// Merge MITask: aggregates one tag group; re-queues partials to itself
/// on interrupt, emits the final counts on cleanup.
#[derive(Default)]
struct CountMergeTask {
    counts: BTreeMap<u32, u64>,
}

impl TupleTask for CountMergeTask {
    type In = CountT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &CountT) -> SimResult<()> {
        bump(&MRG_IN, t.1);
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("just ensured") += t.1;
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let items: Vec<CountT> = std::mem::take(&mut self.counts)
            .into_iter()
            .map(|(w, c)| CountT(w, c))
            .collect();
        let tag = cx.input_tag();
        let me = cx.task();
        cx.emit_to_task(me, tag, items)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let out: Vec<CountT> = std::mem::take(&mut self.counts)
            .into_iter()
            .map(|(w, c)| CountT(w, c))
            .collect();
        bump(&MRG_OUT, out.iter().map(|c| c.1).sum());
        let ser: u64 = out.iter().map(Tuple::ser_bytes).sum();
        cx.emit_final(Box::new(out), ByteSize(ser))
    }
}

// ---------------- harness ----------------

fn cluster(heap_kib: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 3,
        cores: 4,
        heap_per_node: ByteSize::kib(heap_kib),
    })
}

fn input_blocks(n_words: usize, vocab: u64, seed: u64) -> (Vec<Vec<WordT>>, BTreeMap<u32, u64>) {
    let mut rng = DetRng::new(seed);
    let words: Vec<u32> = (0..n_words).map(|_| rng.below(vocab) as u32).collect();
    let mut truth = BTreeMap::new();
    for &w in &words {
        *truth.entry(w).or_insert(0u64) += 1;
    }
    let blocks = words
        .chunks(2_000)
        .map(|c| c.iter().map(|&w| WordT(w)).collect())
        .collect();
    (blocks, truth)
}

fn as_map(outs: Vec<CountT>) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for CountT(w, c) in outs {
        assert!(
            m.insert(w, c).is_none(),
            "duplicate key {w} in final output"
        );
    }
    m
}

fn itask_factories() -> ItaskFactories {
    ItaskFactories {
        map: Rc::new(|| Box::new(Scale(CountMapTask::default())) as Box<dyn ITask>),
        // The merge task is always task id 1 in the phase-2 graph.
        reduce: Rc::new(|| {
            Box::new(Scale(CountReduceTask {
                counts: BTreeMap::new(),
                merge_task: 1,
            })) as Box<dyn ITask>
        }),
        merge: Rc::new(|| Box::new(Scale(CountMergeTask::default())) as Box<dyn ITask>),
    }
}

#[test]
fn regular_job_is_correct_with_ample_heap() {
    let (blocks, truth) = input_blocks(60_000, 4_000, 1);
    let mut c = cluster(8_192);
    let inputs = distribute_blocks(3, blocks, ByteSize::kib(32));
    let spec = JobSpec::new("wc", 4);
    let (report, result) = run_regular(&mut c, inputs, &spec, CountOp::default, SumOp::default);
    assert!(report.outcome.ok());
    assert_eq!(as_map(result.unwrap()), truth);
    assert!(report.elapsed > simcore::SimDuration::ZERO);
}

#[test]
fn itask_job_is_correct_with_ample_heap() {
    let (blocks, truth) = input_blocks(60_000, 4_000, 1);
    let mut c = cluster(8_192);
    let inputs = distribute_blocks(3, blocks, ByteSize::kib(32));
    let spec = ItaskJobSpec::new("wc-itask", 4);
    let (report, result) =
        run_itask::<WordT, CountT, CountT>(&mut c, inputs, &spec, &itask_factories());
    assert!(report.outcome.ok(), "{:?}", report.outcome);
    assert_eq!(as_map(result.unwrap()), truth);
}

#[test]
fn regular_job_omes_where_itask_survives() {
    // Each map thread's count table grows toward ~12000 * 64B = 750KiB
    // against a 512KiB node heap: the fixed-pool job must OME.
    let (blocks, truth) = input_blocks(80_000, 12_000, 2);

    let mut c_reg = cluster(512);
    let inputs = distribute_blocks(3, blocks.clone(), ByteSize::kib(32));
    let spec = JobSpec::new("wc", 4);
    let (report_reg, result_reg) =
        run_regular(&mut c_reg, inputs, &spec, CountOp::default, SumOp::default);
    assert!(result_reg.is_err(), "regular job should OME");
    assert!(report_reg.outcome.is_oom());

    let mut c_itask = cluster(512);
    let inputs = distribute_blocks(3, blocks, ByteSize::kib(32));
    let ispec = ItaskJobSpec::new("wc-itask", 4);
    let (report, result) =
        run_itask::<WordT, CountT, CountT>(&mut c_itask, inputs, &ispec, &itask_factories());
    assert!(
        report.outcome.ok(),
        "ITask job must survive: {:?}",
        report.outcome
    );
    let got = as_map(result.unwrap());
    let truth_total: u64 = truth.values().sum();
    // Stage-by-stage conservation: every occurrence that leaves a stage
    // arrives at the next, through interrupts, write-behind
    // serialization and group re-activations. (Each test runs on its
    // own thread, so the thread-local probes are test-private.)
    assert_eq!(MAP_OUT.with(|c| c.get()), truth_total, "map emissions");
    assert_eq!(RED_OUT.with(|c| c.get()), truth_total, "reduce emissions");
    assert_eq!(MRG_OUT.with(|c| c.get()), truth_total, "merge emissions");
    assert!(RED_IN.with(|c| c.get()) >= truth_total, "reduce intake");
    assert!(MRG_IN.with(|c| c.get()) >= truth_total, "merge intake");
    assert_eq!(got, truth);
    // It survived *by* interrupting/serializing, not by luck.
    assert!(
        report.counter("itask.interrupts")
            + report.counter("itask.emergency_interrupts")
            + report.counter("itask.serializations")
            > 0.0
    );
}

#[test]
fn itask_and_regular_agree() {
    let (blocks, _) = input_blocks(40_000, 2_000, 3);
    let mut c1 = cluster(8_192);
    let spec = JobSpec::new("wc", 4);
    let (_, r1) = run_regular(
        &mut c1,
        distribute_blocks(3, blocks.clone(), ByteSize::kib(32)),
        &spec,
        CountOp::default,
        SumOp::default,
    );
    let mut c2 = cluster(8_192);
    let ispec = ItaskJobSpec::new("wc-itask", 4);
    let (_, r2) = run_itask::<WordT, CountT, CountT>(
        &mut c2,
        distribute_blocks(3, blocks, ByteSize::kib(32)),
        &ispec,
        &itask_factories(),
    );
    assert_eq!(as_map(r1.unwrap()), as_map(r2.unwrap()));
}
