//! Chaos ablation (§6.1 format): WC and II under escalating fault
//! schedules, regular vs ITask. The regular engine has no recovery
//! plane — a node crash or an unlucky transient kills the job — while
//! the IRS retries transient I/O, rebuilds corrupted spills from
//! lineage and requeues a dead node's partitions, so ITask must survive
//! every schedule with results identical to its fault-free run (checked
//! here against the recovery counters) at a bounded overhead.
//!
//! Usage: `faults [--jobs N] [--wc-only|--ii-only]`. Output is
//! deterministic: all virtual time, seeded workloads, seeded fault
//! schedules.

use apps::hyracks_apps::{ii, wc, HyracksParams};
use apps::RunSummary;
use itask_bench::sweep::{self, Harness};
use itask_bench::{cols, print_table};
use simcore::{ByteSize, FaultPlan, NodeId, SimDuration, SimTime};
use workloads::webmap::WebmapSize;

const SIZE: WebmapSize = WebmapSize::G3;

fn params() -> HyracksParams {
    HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..Default::default()
    }
}

/// The escalating schedules. `mid_run` is half the program's fault-free
/// elapsed time — where the node crash lands.
fn schedules(mid_run: SimDuration) -> Vec<(&'static str, FaultPlan)> {
    let crash_at = SimTime::ZERO + mid_run;
    let slow_from = SimTime::ZERO + SimDuration::from_nanos(mid_run.as_nanos() / 2);
    let slow_until = slow_from + mid_run;
    vec![
        ("fault-free", FaultPlan::new(11)),
        (
            "transient I/O (20‰)",
            FaultPlan::new(11).with_disk_transients(20),
        ),
        (
            "+ spill corruption (10‰)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10),
        ),
        (
            "+ net slowdown (4x window)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10)
                .with_slowdown(slow_from, slow_until, 4.0),
        ),
        (
            "+ node crash (mid-run)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10)
                .with_slowdown(slow_from, slow_until, 4.0)
                .with_crash(NodeId(3), crash_at),
        ),
        (
            "full chaos (50‰, 2 crashes)",
            FaultPlan::new(11)
                .with_disk_transients(50)
                .with_corruption(25)
                .with_slowdown(slow_from, slow_until, 4.0)
                .with_crash(NodeId(3), crash_at)
                .with_crash(NodeId(7), SimTime::ZERO + mid_run + mid_run),
        ),
    ]
}

fn outcome_cell<T>(s: &RunSummary<T>, clean_secs: f64) -> String {
    match &s.result {
        Ok(_) => {
            let over = if clean_secs > 0.0 {
                (s.paper_seconds() / clean_secs - 1.0) * 100.0
            } else {
                0.0
            };
            format!("survives {:+.1}%", over)
        }
        Err(e) => format!("DIES ({})", short_err(e)),
    }
}

fn short_err(e: &simcore::SimError) -> String {
    let s = e.to_string();
    match s.split_once(':') {
        Some((head, _)) => head.to_string(),
        None => s,
    }
}

fn recovery_cell<T>(s: &RunSummary<T>) -> String {
    let r = &s.report;
    format!(
        "{:.0} retries / {:.0} rebuilds / {:.0} requeued",
        r.counter("itask.transient_io_retries"),
        r.counter("itask.corruption_recoveries"),
        r.counter("itask.crash_requeued_partitions"),
    )
}

fn ablate<T: Ord + std::fmt::Debug + Send>(
    h: &mut Harness,
    key: &str,
    name: &str,
    run_regular: impl Fn(&HyracksParams) -> RunSummary<T> + Sync,
    run_itask: impl Fn(&HyracksParams) -> RunSummary<T> + Sync,
) {
    // Phase 1: the fault-free runs. The schedules depend on their
    // elapsed times (the crash lands mid-run), so this is a barrier.
    let (run_regular, run_itask) = (&run_regular, &run_itask);
    let mut clean = h
        .run(vec![
            sweep::spec(format!("faults {key} clean reg"), move || {
                run_regular(&params())
            }),
            sweep::spec(format!("faults {key} clean itask"), move || {
                run_itask(&params())
            }),
        ])
        .into_iter();
    let clean_reg = clean.next().expect("clean regular run");
    let clean_it = clean.next().expect("clean itask run");
    let reg_secs = clean_reg.paper_seconds();
    let it_secs = clean_it.paper_seconds();
    let mut clean_out = clean_it.result.expect("fault-free ITask run must complete");
    clean_out.sort();
    // The crash must land inside *both* engines' lifetimes, so aim at
    // half of the shorter fault-free run.
    let mid = SimDuration::from_nanos(
        clean_it
            .report
            .elapsed
            .min(clean_reg.report.elapsed)
            .as_nanos()
            / 2,
    );

    // Phase 2: every (schedule, engine) run is independent.
    let mut specs: Vec<sweep::RunSpec<RunSummary<T>>> = Vec::new();
    for (label, plan) in schedules(mid) {
        let reg_plan = plan.clone();
        specs.push(sweep::spec(
            format!("faults {key} {label} reg"),
            move || {
                let mut p = params();
                p.fault_plan = Some(reg_plan);
                run_regular(&p)
            },
        ));
        specs.push(sweep::spec(
            format!("faults {key} {label} itask"),
            move || {
                let mut p = params();
                p.fault_plan = Some(plan);
                run_itask(&p)
            },
        ));
    }
    let mut runs = h.run(specs).into_iter();

    let mut rows = Vec::new();
    for (label, _) in schedules(mid) {
        let reg = runs.next().expect("regular schedule run");
        let it = runs.next().expect("itask schedule run");
        let identical = match &it.result {
            Ok(out) => {
                let mut out = out.iter().collect::<Vec<_>>();
                out.sort();
                let mut clean = clean_out.iter().collect::<Vec<_>>();
                clean.sort();
                if out == clean {
                    "bit-identical"
                } else {
                    "MISMATCH"
                }
            }
            Err(_) => "-",
        };
        rows.push(vec![
            label.to_string(),
            outcome_cell(&reg, reg_secs),
            outcome_cell(&it, it_secs),
            identical.to_string(),
            recovery_cell(&it),
        ]);
    }
    print_table(
        &format!("Chaos ablation: {name} ({SIZE:?}, 10 nodes, escalating schedules)"),
        &cols(&[
            "schedule",
            "regular",
            "ITask",
            "results",
            "IRS recovery (io/corrupt/crash)",
        ]),
        &rows,
    );
}

fn main() {
    let mut h = sweep::harness("faults");
    let wc_only = h.flag("--wc-only");
    let ii_only = h.flag("--ii-only");
    h.end_flags();
    if !ii_only {
        ablate(
            &mut h,
            "wc",
            "WC",
            |p| wc::run_regular(SIZE, p),
            |p| wc::run_itask(SIZE, p),
        );
    }
    if !wc_only {
        ablate(
            &mut h,
            "ii",
            "II",
            |p| ii::run_regular(SIZE, p),
            |p| ii::run_itask(SIZE, p),
        );
    }
    h.finish();
}
