//! The regular MapReduce job driver: split scheduling over task slots,
//! YARN-style retries, shuffle barrier, reduce scheduling.

use std::collections::BTreeMap;

use hyracks::{chunk_by, Operator};
use itask_core::Tuple;
use simcluster::{JobOutcome, JobReport, NodeReport};
use simcore::{ByteSize, CostModel, NodeId, SimDuration, SimError};

use crate::attempt::{
    run_map_attempt_retrying, run_reduce_attempt_retrying, AttemptOutcome, AttemptResult,
};
use crate::config::{HadoopConfig, MAX_ATTEMPTS};

/// Greedy list scheduler: place each task's attempt chain on the
/// earliest-free slot. Returns `(makespan, fail_time)` where `fail_time`
/// is when the first task exhausted its attempts (if any).
struct SlotSchedule {
    slot_free: Vec<SimDuration>,
}

impl SlotSchedule {
    fn new(slots: usize) -> Self {
        SlotSchedule {
            slot_free: vec![SimDuration::ZERO; slots.max(1)],
        }
    }

    /// Schedules one attempt not before `earliest`; returns (slot, end).
    fn place(&mut self, earliest: SimDuration, duration: SimDuration) -> (usize, SimDuration) {
        let (slot, free) = self
            .slot_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, t)| (t, i))
            .expect("at least one slot");
        let start = free.max(earliest);
        let end = start + duration;
        self.slot_free[slot] = end;
        (slot, end)
    }

    fn makespan(&self) -> SimDuration {
        self.slot_free
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// YARN container allocation + JVM spin-up charged per attempt
/// (~10 paper-seconds; another CTime amplifier under retry storms).
const CONTAINER_STARTUP: SimDuration = SimDuration::from_millis(10);

/// Accounting accumulated per node while scheduling attempts.
#[derive(Clone, Default)]
struct NodeAccount {
    gc_time: SimDuration,
    compute_time: SimDuration,
    peak_heap: ByteSize,
}

/// Schedules a stage of identical-retry tasks; each entry is one task's
/// deterministic attempt outcome. Returns the stage makespan, the fail
/// time if a task exhausted retries, per-slot accounting and attempt
/// count.
///
/// A task's chain spends the YARN budget once: its first try carries
/// the substrate relaunches before the final attempt (their time and
/// one container start-up each), and every OME repeat after it costs
/// one attempt, one start-up and the final attempt's own time.
fn schedule_stage(
    outcomes: &[AttemptOutcome],
    slots: usize,
    nodes: usize,
    accounts: &mut [NodeAccount],
) -> (SimDuration, Option<(SimDuration, SimError)>, u32) {
    let mut sched = SlotSchedule::new(slots);
    let mut attempts = 0u32;
    let mut fail: Option<(SimDuration, SimError)> = None;
    for outcome in outcomes {
        let tries = if outcome.result.ok() {
            1
        } else {
            MAX_ATTEMPTS.saturating_sub(outcome.extra_attempts).max(1)
        };
        let mut starts = 1 + outcome.extra_attempts;
        let mut span = outcome.wasted + outcome.duration;
        let mut gc = outcome.wasted_gc + outcome.gc_time;
        let mut earliest = SimDuration::ZERO;
        for _ in 0..tries {
            let (slot, end) = sched.place(earliest, span + CONTAINER_STARTUP * starts as u64);
            earliest = end;
            attempts += starts;
            let acc = &mut accounts[slot % nodes.max(1)];
            acc.gc_time += gc;
            acc.compute_time += span - gc;
            acc.peak_heap = acc.peak_heap.max(outcome.peak_heap);
            (starts, span, gc) = (1, outcome.duration, outcome.gc_time);
        }
        if let AttemptResult::Failed(e) = &outcome.result {
            let t = earliest;
            match &fail {
                Some((prev, _)) if *prev <= t => {}
                _ => fail = Some((t, e.clone())),
            }
        }
    }
    (sched.makespan(), fail, attempts)
}

fn synthesize_report(
    cfg: &HadoopConfig,
    elapsed: SimDuration,
    accounts: &[NodeAccount],
    outcome: JobOutcome,
) -> JobReport {
    let nodes = (0..cfg.nodes)
        .map(|n| NodeReport {
            node: NodeId(n as u32),
            elapsed,
            gc_time: accounts[n].gc_time,
            compute_time: accounts[n].compute_time,
            io_stall_time: SimDuration::ZERO,
            peak_heap: accounts[n].peak_heap,
            minor_gcs: 0,
            full_gcs: 0,
            useless_gcs: 0,
        })
        .collect();
    JobReport {
        outcome,
        elapsed,
        nodes,
        counters: BTreeMap::new(),
    }
}

/// Runs a regular Hadoop job: map attempts over `splits`, shuffle,
/// reduce attempts over `reduce_tasks` buckets. The report is present
/// even when the job crashed — its elapsed time is the paper's CTime —
/// and counts attempts (retries included) and spills under `hadoop.*`.
pub fn run_regular_job<M, R>(
    cfg: &HadoopConfig,
    splits: Vec<Vec<M::In>>,
    map_factory: impl Fn() -> M,
    reduce_factory: impl Fn() -> R,
) -> (JobReport, Result<Vec<R::Out>, SimError>)
where
    M: Operator + 'static,
    R: Operator<In = M::Out> + 'static,
    M::In: Clone,
    M::Out: Clone,
{
    let mut accounts = vec![NodeAccount::default(); cfg.nodes];

    // ---- Map stage: one task per split. OMEs are deterministic (the
    // stage scheduler repeats them for the full YARN budget); transient
    // substrate faults are relaunched with re-salted seeds inside the
    // retrying runner.
    let mut map_outcomes = Vec::new();
    let mut shuffle_data: BTreeMap<u32, Vec<M::Out>> = BTreeMap::new();
    for split in splits {
        // One split = one HDFS block, streamed through the mapper in
        // record-reader frames (Hadoop never materializes a whole block
        // as objects). Frames are sized in *object-form* bytes, the form
        // that occupies a task heap.
        let frames = chunk_by(split, ByteSize::kib(64), M::In::heap_bytes);
        let (outcome, out) = run_map_attempt_retrying(cfg, frames, &map_factory);
        if outcome.result.ok() {
            for (bucket, tuples) in out {
                shuffle_data
                    .entry(bucket % cfg.reduce_tasks)
                    .or_default()
                    .extend(tuples);
            }
        }
        map_outcomes.push(outcome);
    }
    let spills: u32 = map_outcomes.iter().map(|o| o.spills).sum();
    let (map_span, map_fail, map_attempts) = schedule_stage(
        &map_outcomes,
        cfg.nodes * cfg.max_mappers,
        cfg.nodes,
        &mut accounts,
    );

    // A failed map stage runs no reduce stage and records no reduce
    // attempts.
    let (elapsed, result, reduce_attempts) = 'job: {
        if let Some((t, e)) = map_fail {
            break 'job (t, Err(e), None);
        }

        // ---- Shuffle barrier.
        let shuffle_bytes: u64 = shuffle_data
            .values()
            .flat_map(|v| v.iter())
            .map(Tuple::ser_bytes)
            .sum();
        let base =
            map_span + CostModel::net_transfer(ByteSize(shuffle_bytes / cfg.nodes.max(1) as u64));

        // ---- Reduce stage: one task per bucket.
        let mut reduce_outcomes = Vec::new();
        let mut outputs: Vec<R::Out> = Vec::new();
        for (_bucket, tuples) in shuffle_data {
            // A reduce attempt must hold one frame in its task heap.
            let frames = chunk_by(tuples, cfg.split_size, M::Out::heap_bytes);
            let (outcome, out) = run_reduce_attempt_retrying(cfg, frames, &reduce_factory);
            if outcome.result.ok() {
                outputs.extend(out);
            }
            reduce_outcomes.push(outcome);
        }
        let (reduce_span, reduce_fail, reduce_attempts) = schedule_stage(
            &reduce_outcomes,
            cfg.nodes * cfg.max_reducers,
            cfg.nodes,
            &mut accounts,
        );
        match reduce_fail {
            Some((t, e)) => (base + t, Err(e), Some(reduce_attempts)),
            None => (base + reduce_span, Ok(outputs), Some(reduce_attempts)),
        }
    };

    let outcome = match &result {
        Ok(_) => JobOutcome::Completed,
        Err(e) => JobOutcome::Failed(e.clone()),
    };
    let mut report = synthesize_report(cfg, elapsed, &accounts, outcome);
    report.bump_counter("hadoop.map_attempts", map_attempts as f64);
    if let Some(n) = reduce_attempts {
        report.bump_counter("hadoop.reduce_attempts", n as f64);
    }
    report.bump_counter("hadoop.spills", spills as f64);
    (report, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_scheduler_packs_slots() {
        let mut s = SlotSchedule::new(2);
        let d = SimDuration::from_secs(10);
        let (_, e1) = s.place(SimDuration::ZERO, d);
        let (_, e2) = s.place(SimDuration::ZERO, d);
        let (_, e3) = s.place(SimDuration::ZERO, d);
        assert_eq!(e1, d);
        assert_eq!(e2, d);
        assert_eq!(e3, d * 2);
        assert_eq!(s.makespan(), d * 2);
    }

    #[test]
    fn retry_chains_are_sequential() {
        let mut s = SlotSchedule::new(4);
        let d = SimDuration::from_secs(5);
        // A single task retried 3 times cannot parallelize with itself.
        let mut earliest = SimDuration::ZERO;
        for _ in 0..3 {
            let (_, end) = s.place(earliest, d);
            earliest = end;
        }
        assert_eq!(earliest, d * 3);
    }
}
