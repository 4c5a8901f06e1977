//! Hadoop attempt internals: sort-buffer spills keep framework memory
//! bounded; user state is what kills attempts; the retry ladder and the
//! pooled-ITask bridge behave per the engine contract.

use std::collections::BTreeMap;

use hadoop::{run_map_attempt_retrying, run_regular_job, HadoopConfig};
use hyracks::{OpCx, Operator};
use itask_core::Tuple;
use simcore::{ByteSize, SimResult};

#[derive(Clone, Copy, Debug)]
struct Rec(u64);

impl Tuple for Rec {
    fn heap_bytes(&self) -> u64 {
        64
    }
}

/// Pass-through mapper: everything goes to the sort buffer.
#[derive(Default)]
struct Emit;

impl Operator for Emit {
    type In = Rec;
    type Out = Rec;

    fn next(&mut self, cx: &mut OpCx<'_, '_, Rec>, t: &Rec) -> SimResult<()> {
        cx.emit((t.0 % 8) as u32, *t)
    }

    fn close(&mut self, _cx: &mut OpCx<'_, '_, Rec>) -> SimResult<()> {
        Ok(())
    }
}

/// State-hoarding mapper: retains `bytes_per_record` forever.
struct Hoard(u64);

impl Operator for Hoard {
    type In = Rec;
    type Out = Rec;

    fn next(&mut self, cx: &mut OpCx<'_, '_, Rec>, t: &Rec) -> SimResult<()> {
        cx.alloc_state(ByteSize(self.0))?;
        cx.emit(0, *t)
    }

    fn close(&mut self, _cx: &mut OpCx<'_, '_, Rec>) -> SimResult<()> {
        Ok(())
    }
}

#[derive(Default)]
struct Sum {
    by_key: BTreeMap<u64, u64>,
}

impl Operator for Sum {
    type In = Rec;
    type Out = Rec;

    fn next(&mut self, cx: &mut OpCx<'_, '_, Rec>, t: &Rec) -> SimResult<()> {
        if !self.by_key.contains_key(&t.0) {
            cx.alloc_state(ByteSize(32))?;
        }
        *self.by_key.entry(t.0).or_insert(0) += 1;
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, Rec>) -> SimResult<()> {
        for (_k, v) in std::mem::take(&mut self.by_key) {
            cx.emit(0, Rec(v))?;
        }
        Ok(())
    }
}

fn tiny_cfg() -> HadoopConfig {
    // 256KB task heaps, 100KB sort buffer.
    let mut cfg = HadoopConfig::table1(2, 256, 256, 2, 2);
    cfg.sort_buffer = ByteSize::kib(64);
    cfg
}

#[test]
fn spills_bound_framework_memory() {
    // 20x the sort buffer of emissions must pass through a 256KB heap.
    let cfg = tiny_cfg();
    let frames: Vec<Vec<Rec>> = (0..20).map(|_| (0..320).map(Rec).collect()).collect();
    let (outcome, out) = run_map_attempt_retrying(&cfg, frames, || Emit);
    assert!(outcome.result.ok(), "{:?}", outcome.result);
    assert!(
        outcome.spills >= 5,
        "expected many spills, got {}",
        outcome.spills
    );
    assert!(outcome.peak_heap <= ByteSize::kib(256));
    let emitted: usize = out.values().map(Vec::len).sum();
    assert_eq!(emitted, 20 * 320);
}

#[test]
fn user_state_kills_the_attempt_not_the_framework() {
    let cfg = tiny_cfg();
    let frames: Vec<Vec<Rec>> = vec![(0..10_000).map(Rec).collect()];
    let (outcome, out) = run_map_attempt_retrying(&cfg, frames, || Hoard(256));
    assert!(!outcome.result.ok(), "hoarding 2.5MB in 256KB must die");
    assert!(out.is_empty(), "failed attempts publish nothing");
    assert!(
        outcome.gc_time > simcore::SimDuration::ZERO,
        "it fought first"
    );
}

#[test]
fn regular_job_counts_attempts_and_completes() {
    let cfg = tiny_cfg();
    let splits: Vec<Vec<Rec>> = (0..6)
        .map(|s| (0..200).map(|i| Rec(s * 200 + i)).collect())
        .collect();
    let (report, result) = run_regular_job(&cfg, splits, || Emit, Sum::default);
    assert!(report.outcome.ok());
    assert_eq!(report.counter("hadoop.map_attempts"), 6.0);
    assert_eq!(
        report.counter("hadoop.reduce_attempts"),
        8.min(cfg.reduce_tasks) as f64
    );
    // 1200 distinct keys, each counted once.
    let total: u64 = result.unwrap().iter().map(|r| r.0).sum();
    assert_eq!(total, 1200);
}

#[test]
fn failed_tasks_exhaust_the_retry_budget() {
    let cfg = tiny_cfg();
    let splits: Vec<Vec<Rec>> = vec![
        (0..200).map(Rec).collect(),    // small enough to survive Hoard
        (0..10_000).map(Rec).collect(), // hoarded to death
    ];
    let (report, _) = run_regular_job(&cfg, splits, || Hoard(256), Sum::default);
    assert!(!report.outcome.ok());
    // One clean task + one task burning its full YARN budget.
    assert_eq!(
        report.counter("hadoop.map_attempts"),
        (1 + hadoop::MAX_ATTEMPTS) as f64
    );
}

#[test]
fn pooled_heap_is_the_slot_aggregate() {
    let cfg = HadoopConfig::table1(4, 512, 1024, 8, 3);
    assert_eq!(
        cfg.pooled_heap(),
        ByteSize::kib(8 * 512).max(ByteSize::kib(3 * 1024))
    );
}

mod chunk_properties {
    use super::Rec;
    use hadoop::{run_map_attempt_retrying, HadoopConfig};
    use proptest::prelude::*;
    use simcore::ByteSize;

    /// A mapper that forwards everything, used to observe framing.
    struct Fwd;
    impl hyracks::Operator for Fwd {
        type In = Rec;
        type Out = Rec;
        fn next(&mut self, cx: &mut hyracks::OpCx<'_, '_, Rec>, t: &Rec) -> simcore::SimResult<()> {
            cx.emit(0, *t)
        }
        fn close(&mut self, _cx: &mut hyracks::OpCx<'_, '_, Rec>) -> simcore::SimResult<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every record offered to an attempt comes out the other side
        /// exactly once, regardless of how many frames it spans.
        #[test]
        fn attempts_conserve_records(
            frames in proptest::collection::vec(1usize..400, 1..6),
        ) {
            let cfg = HadoopConfig::table1(2, 8192, 8192, 2, 2);
            let mut next = 0u64;
            let input: Vec<Vec<Rec>> = frames
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|_| {
                            let r = Rec(next);
                            next += 1;
                            r
                        })
                        .collect()
                })
                .collect();
            let total: usize = frames.iter().sum();
            let (outcome, out) = run_map_attempt_retrying(&cfg, input, || Fwd);
            prop_assert!(outcome.result.ok());
            let emitted: usize = out.values().map(Vec::len).sum();
            prop_assert_eq!(emitted, total);
            prop_assert!(outcome.peak_heap <= ByteSize::mib(8));
        }
    }
}
