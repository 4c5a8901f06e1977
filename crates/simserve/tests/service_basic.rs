//! End-to-end service runs on both engines: jobs complete, SLOs are
//! accounted, and the two engines agree on the answers.

use simcore::SimDuration;
use simserve::{
    BreakerConfig, BrownoutConfig, EngineKind, OverloadConfig, PolicyKind, RetryPolicy, Service,
    ServiceConfig,
};

fn run(engine: EngineKind, tenants: u32, seed: u64) -> simserve::ServiceReport {
    Service::new(ServiceConfig::standard(engine, tenants, seed)).run()
}

#[test]
fn single_tenant_completes_everything_on_both_engines() {
    let reg = run(EngineKind::Regular, 1, 11);
    let it = run(EngineKind::Itask, 1, 11);
    for (name, r) in [("regular", &reg), ("itask", &it)] {
        let submitted = r.total(|t| t.submitted);
        let completed = r.total(|t| t.completed);
        assert!(submitted > 0, "{name}: no arrivals generated");
        assert_eq!(
            completed,
            submitted,
            "{name}: {completed}/{submitted} completed (failed {}, omes {})",
            r.total(|t| t.failed),
            r.total(|t| t.omes),
        );
        assert!(r.total_outputs > 0, "{name}: no outputs");
        assert!(r.elapsed > SimDuration::ZERO);
    }
    // Same seed, same arrival schedule, same datasets: the two engines
    // must compute the same answers.
    assert_eq!(reg.total_outputs, it.total_outputs);
}

#[test]
fn slo_sketches_record_every_completion() {
    let r = run(EngineKind::Itask, 2, 23);
    let completed = r.total(|t| t.completed);
    assert!(completed > 0, "no completions");
    assert_eq!(
        r.latency.count(),
        completed,
        "latency samples != completions"
    );
    assert_eq!(
        r.queue_wait.count(),
        completed + r.total(|t| t.failed) + r.total(|t| t.retries),
        "queue-wait samples != admissions"
    );
    assert!(r.latency.quantile(0.5) > 0);
    assert!(r.latency.quantile(0.99) >= r.latency.quantile(0.5));
}

/// A failed job whose retry an empty token bucket denies ends once, as
/// `shed_retry`, not also as `failed`: every arrival is completed,
/// failed or shed exactly once.
#[test]
fn budget_denied_retry_is_counted_once() {
    let mut cfg = ServiceConfig::standard(EngineKind::Regular, 3, 42);
    cfg.horizon = SimDuration::from_millis(80);
    for t in &mut cfg.tenants {
        t.mean_interarrival = SimDuration::from_millis(3);
        t.deadline = Some(SimDuration::from_millis(20));
    }
    cfg.admission.policy = PolicyKind::MemoryAware;
    cfg.admission.queue_cap = Some(4);
    cfg.retry = RetryPolicy::budgeted();
    if let Some(budget) = &mut cfg.retry.budget {
        budget.capacity = 1;
    }
    cfg.overload = OverloadConfig {
        breaker: Some(BreakerConfig::default()),
        brownout: Some(BrownoutConfig::default()),
    };
    let r = Service::new(cfg).run();
    assert!(
        r.total(|t| t.shed_retry) > 0,
        "the config must deny a retry"
    );
    for (id, t) in &r.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.failed + t.shed_deadline + t.shed_queue + t.shed_retry,
            "tenant {id}: {t:?}"
        );
    }
    assert_eq!(
        r.total(|t| t.submitted),
        r.total(|t| t.completed) + r.total(|t| t.failed) + r.total_shed()
    );
}
