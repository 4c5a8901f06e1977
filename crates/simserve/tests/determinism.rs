//! The service's determinism contract: a `(config, seed)` pair fully
//! determines the report — byte-identical table cells across repeated
//! runs, regardless of host state. (Cross-`--jobs` invariance of the
//! bench binary is checked in CI by diffing `--jobs 1` vs `--jobs 2`
//! output; each cell here is one single-threaded virtual-time world, so
//! the same property reduces to run-to-run stability.)

use simserve::{EngineKind, PolicyKind, Service, ServiceConfig};

fn cells(engine: EngineKind, tenants: u32, seed: u64, policy: PolicyKind) -> Vec<String> {
    let mut cfg = ServiceConfig::standard(engine, tenants, seed);
    cfg.admission.policy = policy;
    Service::new(cfg).run().summary_cells()
}

#[test]
fn repeated_runs_are_byte_identical() {
    for engine in [EngineKind::Regular, EngineKind::Itask] {
        for policy in [
            PolicyKind::Fifo,
            PolicyKind::WeightedFair,
            PolicyKind::MemoryAware,
        ] {
            let a = cells(engine, 3, 42, policy);
            let b = cells(engine, 3, 42, policy);
            assert_eq!(a, b, "{} {policy:?} run not reproducible", engine.label());
        }
    }
}

#[test]
fn different_seeds_change_the_schedule_not_the_invariants() {
    let a = cells(EngineKind::Itask, 2, 1, PolicyKind::Fifo);
    let b = cells(EngineKind::Itask, 2, 2, PolicyKind::Fifo);
    // Different seeds yield different workloads (latencies virtually
    // never collide)...
    assert_ne!(a, b);
    // ...but ITask still completes everything under either.
    for (seed, c) in [(1, &a), (2, &b)] {
        let (done, sub) = c[0].split_once('/').expect("done/submitted cell");
        assert_eq!(done, sub, "seed {seed}: itask dropped jobs: {c:?}");
        assert_eq!(c[1], "0", "seed {seed}: itask OMEd: {c:?}");
    }
}

#[test]
fn full_report_state_is_reproducible() {
    let run = || {
        let r = Service::new(ServiceConfig::standard(EngineKind::Regular, 4, 7)).run();
        let per_tenant: Vec<_> = r
            .tenants
            .iter()
            .map(|(id, t)| (*id, t.submitted, t.completed, t.failed, t.omes, t.retries))
            .collect();
        (
            per_tenant,
            r.latency.quantile(0.5),
            r.queue_wait.quantile(0.95),
            r.elapsed,
            r.total_outputs,
            r.rounds,
        )
    };
    assert_eq!(run(), run());
}
