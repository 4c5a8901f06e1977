//! Attempt-level fault semantics: OMEs are deterministic (relaunching a
//! fresh JVM on the same input reproduces them, so the retry wrappers
//! hand them straight to the stage scheduler's YARN chain), while
//! transient substrate faults are relaunch-worthy — a re-salted attempt
//! sees different injection decisions and can succeed.

use hadoop::{run_map_attempt_retrying, run_regular_job, AttemptResult, HadoopConfig};
use hyracks::{OpCx, Operator};
use itask_core::Tuple;
use simcore::{ByteSize, FaultPlan, SimDuration, SimResult};

#[derive(Clone, Copy, Debug)]
struct KvT(u32);

impl Tuple for KvT {
    fn heap_bytes(&self) -> u64 {
        48
    }
}

/// Pass-through mapper: every tuple goes to the sort buffer, so a small
/// `sort_buffer` forces real (injectable) spill writes.
#[derive(Default)]
struct SpillyMapper;

impl Operator for SpillyMapper {
    type In = KvT;
    type Out = KvT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, KvT>, t: &KvT) -> SimResult<()> {
        cx.emit(t.0 % 4, *t)
    }

    fn close(&mut self, _cx: &mut OpCx<'_, '_, KvT>) -> SimResult<()> {
        Ok(())
    }
}

/// Combiner-style mapper whose state outgrows the task heap: the
/// studied deterministic OME.
#[derive(Default)]
struct HoarderMapper;

impl Operator for HoarderMapper {
    type In = KvT;
    type Out = KvT;

    fn next(&mut self, cx: &mut OpCx<'_, '_, KvT>, t: &KvT) -> SimResult<()> {
        cx.alloc_state(ByteSize::kib(4))?;
        cx.emit(t.0 % 4, *t)
    }

    fn close(&mut self, _cx: &mut OpCx<'_, '_, KvT>) -> SimResult<()> {
        Ok(())
    }
}

/// Drops its input; the jobs below never get past the map stage.
#[derive(Default)]
struct Discard;

impl Operator for Discard {
    type In = KvT;
    type Out = KvT;

    fn next(&mut self, _cx: &mut OpCx<'_, '_, KvT>, _t: &KvT) -> SimResult<()> {
        Ok(())
    }

    fn close(&mut self, _cx: &mut OpCx<'_, '_, KvT>) -> SimResult<()> {
        Ok(())
    }
}

fn spilly_cfg() -> HadoopConfig {
    let mut cfg = HadoopConfig::table1(1, 1024, 1024, 1, 1);
    // Tiny sort buffer → frequent spill writes → many injectable ops.
    cfg.sort_buffer = ByteSize(256);
    cfg
}

fn frames(n: usize) -> Vec<Vec<KvT>> {
    vec![(0..n as u32).map(KvT).collect()]
}

#[test]
fn hard_substrate_fault_burns_the_whole_attempt_budget() {
    let mut cfg = spilly_cfg();
    // Every spill write fails transiently; a plain (unretried) attempt
    // write dies on the first verdict, and a fresh JVM resets the
    // injector, so every relaunch dies the same way.
    cfg.fault_plan = Some(FaultPlan::new(7).with_disk_transients(1000));
    let (outcome, out) = run_map_attempt_retrying(&cfg, frames(64), SpillyMapper::default);
    assert!(!outcome.result.ok(), "all relaunches must fail");
    assert_eq!(
        outcome.extra_attempts,
        hadoop::MAX_ATTEMPTS - 1,
        "the wrapper folds the whole YARN budget into one outcome"
    );
    assert!(out.is_empty(), "a dead attempt contributes no shuffle data");
    match &outcome.result {
        AttemptResult::Failed(e) => {
            assert!(
                e.is_substrate() && !e.is_oom(),
                "died of substrate, not OME: {e}"
            )
        }
        other => panic!("unexpected result {other:?}"),
    }
}

#[test]
fn transient_fault_survived_by_resalted_relaunch() {
    // At a moderate fault rate some seeds kill the first attempt while a
    // re-salted relaunch sails through. Scanning a fixed seed range is
    // deterministic; we require at least one seed to demonstrate the
    // recovered-by-relaunch outcome.
    let mut proved = false;
    for seed in 0..64u64 {
        let mut cfg = spilly_cfg();
        cfg.fault_plan = Some(FaultPlan::new(seed).with_disk_transients(300));
        let (outcome, out) = run_map_attempt_retrying(&cfg, frames(64), SpillyMapper::default);
        if outcome.result.ok() && outcome.extra_attempts > 0 {
            assert!(
                !out.is_empty(),
                "the surviving relaunch must produce output"
            );
            proved = true;
            break;
        }
    }
    assert!(
        proved,
        "no seed in range produced a survived-by-relaunch attempt"
    );
}

#[test]
fn fault_free_plan_never_relaunches() {
    let mut cfg = spilly_cfg();
    cfg.fault_plan = Some(FaultPlan::new(42)); // armed but fault-free
    let (outcome, out) = run_map_attempt_retrying(&cfg, frames(64), SpillyMapper::default);
    assert!(outcome.result.ok());
    assert_eq!(outcome.extra_attempts, 0);
    let total: usize = out.values().map(Vec::len).sum();
    assert_eq!(total, 64);
}

#[test]
fn ome_is_not_relaunched_even_under_chaos() {
    let mut cfg = HadoopConfig::table1(1, 64, 64, 1, 1); // 64 KiB heap
    cfg.sort_buffer = ByteSize(256);
    cfg.fault_plan = Some(FaultPlan::new(7).with_disk_transients(50));
    let (outcome, out) = run_map_attempt_retrying(&cfg, frames(256), HoarderMapper::default);
    assert!(!outcome.result.ok());
    match &outcome.result {
        AttemptResult::Failed(e) => assert!(e.is_oom(), "expected OME, got {e}"),
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(
        outcome.extra_attempts, 0,
        "OMEs are deterministic; the wrapper must not burn relaunches on them"
    );
    assert!(out.is_empty());
}

#[test]
fn relaunch_then_ome_spends_the_attempt_budget_once() {
    let mut cfg = HadoopConfig::table1(1, 64, 64, 1, 1); // 64 KiB heap
    cfg.sort_buffer = ByteSize(256);
    cfg.fault_plan = Some(FaultPlan::new(4).with_disk_transients(100));
    // At this seed the first attempt dies of a disk transient and its
    // relaunch OMEs.
    let (outcome, _) = run_map_attempt_retrying(&cfg, frames(256), HoarderMapper::default);
    assert_eq!(outcome.extra_attempts, 1);
    assert!(matches!(&outcome.result, AttemptResult::Failed(e) if e.is_oom()));

    let (report, result) =
        run_regular_job(&cfg, frames(256), HoarderMapper::default, Discard::default);
    assert!(result.is_err());
    // The relaunch is paid once, on the chain's first try; each OME
    // repeat after it is one attempt, one container start-up and the
    // final attempt's own duration.
    assert_eq!(
        report.counter("hadoop.map_attempts"),
        hadoop::MAX_ATTEMPTS as f64,
        "the chain must stay within the YARN budget"
    );
    let tries = (hadoop::MAX_ATTEMPTS - outcome.extra_attempts) as u64;
    let startup = SimDuration::from_millis(10);
    assert_eq!(
        report.elapsed,
        outcome.wasted + outcome.duration * tries + startup * hadoop::MAX_ATTEMPTS as u64
    );
}
