//! End-to-end Hadoop engine test: a word-count job in regular form
//! (per-task JVMs, retries) and ITask form (pooled IRS), reproducing the
//! Table 1 methodology at miniature scale.

use std::collections::BTreeMap;
use std::rc::Rc;

use hadoop::{run_itask_job, run_regular_job, HadoopConfig};
use hyracks::{ItaskFactories, OpCx, Operator, ShuffleBatch};
use itask_core::{ITask, Scale, TaskCx, Tuple, TupleTask};
use simcore::{ByteSize, DetRng, SimResult, TaskId};

const ENTRY: u64 = 64;

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

/// In-mapper combiner: aggregates counts in task memory (the pattern
/// whose state blows past small map heaps — the IMC problem of §2).
#[derive(Default)]
struct WcMapper {
    counts: BTreeMap<u32, u64>,
}

impl Operator for WcMapper {
    type In = WordT;
    type Out = CountT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, CountT>, t: &WordT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_state(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("present") += 1;
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, CountT>) -> SimResult<()> {
        for (w, c) in std::mem::take(&mut self.counts) {
            cx.emit(w % 16, CountT(w, c))?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct WcReducer {
    counts: BTreeMap<u32, u64>,
}

impl Operator for WcReducer {
    type In = CountT;
    type Out = CountT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, CountT>, t: &CountT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_state(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("present") += t.1;
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, CountT>) -> SimResult<()> {
        for (w, c) in std::mem::take(&mut self.counts) {
            cx.emit(0, CountT(w, c))?;
        }
        Ok(())
    }
}

// ---- ITask versions (same conventions as the Hyracks bridge).

#[derive(Default)]
struct ItaskWcMap {
    counts: BTreeMap<u32, u64>,
}

impl ItaskWcMap {
    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let mut buckets: BTreeMap<u32, Vec<CountT>> = BTreeMap::new();
        for (w, c) in std::mem::take(&mut self.counts) {
            buckets.entry(w % 16).or_default().push(CountT(w, c));
        }
        let ser: u64 = buckets.values().flatten().map(Tuple::ser_bytes).sum();
        let batch = ShuffleBatch::from_buckets(buckets);
        cx.emit_final(Box::new(batch), ByteSize(ser))
    }
}

impl TupleTask for ItaskWcMap {
    type In = WordT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &WordT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
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

#[derive(Default)]
struct ItaskWcReduce {
    counts: BTreeMap<u32, u64>,
}

impl ItaskWcReduce {
    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.counts.is_empty() {
            return Ok(());
        }
        let items: Vec<CountT> = std::mem::take(&mut self.counts)
            .into_iter()
            .map(|(w, c)| CountT(w, c))
            .collect();
        let tag = cx.input_tag();
        cx.emit_to_task(TaskId(1), tag, items)
    }
}

impl TupleTask for ItaskWcReduce {
    type In = CountT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &CountT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("present") += t.1;
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

#[derive(Default)]
struct ItaskWcMerge {
    counts: BTreeMap<u32, u64>,
}

impl TupleTask for ItaskWcMerge {
    type In = CountT;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, t: &CountT) -> SimResult<()> {
        if let std::collections::btree_map::Entry::Vacant(v) = self.counts.entry(t.0) {
            cx.alloc_out(ByteSize(ENTRY))?;
            v.insert(0);
        }
        *self.counts.get_mut(&t.0).expect("present") += t.1;
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
        let ser: u64 = out.iter().map(Tuple::ser_bytes).sum();
        cx.emit_final(Box::new(out), ByteSize(ser))
    }
}

fn factories() -> ItaskFactories {
    ItaskFactories {
        map: Rc::new(|| Box::new(Scale(ItaskWcMap::default())) as Box<dyn ITask>),
        reduce: Rc::new(|| Box::new(Scale(ItaskWcReduce::default())) as Box<dyn ITask>),
        merge: Rc::new(|| Box::new(Scale(ItaskWcMerge::default())) as Box<dyn ITask>),
    }
}

fn splits(n_words: usize, vocab: u64, seed: u64) -> (Vec<Vec<WordT>>, BTreeMap<u32, u64>) {
    let mut rng = DetRng::new(seed);
    let words: Vec<u32> = (0..n_words).map(|_| rng.below(vocab) as u32).collect();
    let mut truth = BTreeMap::new();
    for &w in &words {
        *truth.entry(w).or_insert(0u64) += 1;
    }
    let splits = words
        .chunks(2_500)
        .map(|c| c.iter().map(|&w| WordT(w)).collect())
        .collect();
    (splits, truth)
}

fn as_map(outs: Vec<CountT>) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for CountT(w, c) in outs {
        *m.entry(w).or_insert(0) += c;
    }
    m
}

#[test]
fn regular_job_completes_with_generous_heaps() {
    let (splits, truth) = splits(50_000, 3_000, 1);
    // "4GB" map/reduce heaps.
    let cfg = HadoopConfig::table1(4, 4096, 4096, 4, 4);
    let (report, result) = run_regular_job(&cfg, splits, WcMapper::default, WcReducer::default);
    assert!(report.outcome.ok());
    assert_eq!(as_map(result.unwrap()), truth);
    assert_eq!(report.counter("hadoop.map_attempts"), 20.0); // 50k words / 2.5k per split
    assert!(report.counter("hadoop.spills") > 0.0);
}

#[test]
fn small_map_heap_triggers_retries_then_job_failure() {
    // 24000 distinct words -> ~1.5MiB of combiner state per split vs a
    // "160MB" (156KiB) map heap.
    let (splits, _) = splits(60_000, 24_000, 2);
    let cfg = HadoopConfig::table1(4, 160, 4096, 4, 4);
    let (report, result) = run_regular_job(&cfg, splits, WcMapper::default, WcReducer::default);
    assert!(result.is_err());
    assert!(report.outcome.is_oom());
    // Every failing split burned its full YARN attempt budget.
    let attempts = report.counter("hadoop.map_attempts");
    assert!(attempts > 20.0, "attempts = {attempts}");
    // The crash time reflects the retry storm (the CTime effect).
    assert!(report.elapsed > simcore::SimDuration::ZERO);
}

#[test]
fn itask_version_survives_the_same_configuration() {
    let (splits, truth) = splits(60_000, 24_000, 2);
    let cfg = HadoopConfig::table1(4, 160, 4096, 4, 4);
    // Regular crashes (previous test); ITask with the same config pools
    // 4 x 160MB per node and survives.
    let (report, result) = run_itask_job::<WordT, CountT, CountT>(&cfg, splits, &factories());
    assert!(report.outcome.ok(), "{:?}", report.outcome);
    assert_eq!(as_map(result.unwrap()), truth);
}

#[test]
fn regular_and_itask_agree_on_results() {
    let (sp, _) = splits(30_000, 2_000, 3);
    let cfg = HadoopConfig::table1(4, 4096, 4096, 4, 4);
    let (_, reg) = run_regular_job(&cfg, sp.clone(), WcMapper::default, WcReducer::default);
    let (_, it) = run_itask_job::<WordT, CountT, CountT>(&cfg, sp, &factories());
    assert_eq!(as_map(reg.unwrap()), as_map(it.unwrap()));
}
