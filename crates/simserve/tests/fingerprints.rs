//! Literal fingerprints of whole service runs, captured on the commit
//! *before* `simserve::job` stopped carrying its own copy of the
//! two-phase pipeline. The `--quick` stdout goldens and the benchmark's
//! `sim_digest` cover the fault-free data plane; these pins also walk
//! the service's crash re-homing, its shuffle under a fabric slowdown
//! window, and the quarantine drain, for both engines. A host-side
//! change must not move any of them; a change to the model moves them
//! on purpose and re-captures.

use simcore::{FaultPlan, NodeId, SimDuration, SimTime};
use simserve::{
    BreakerConfig, BrownoutConfig, EngineKind, OverloadConfig, PolicyKind, RetryPolicy, Service,
    ServiceConfig,
};

#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Three tenants on the standard shape, nothing armed.
    Clean,
    /// One node dies mid-run, with transient disk trouble throughout
    /// (the chaos suite's plan): salvage + dead-source re-homing.
    Crash,
    /// Every transfer between 5 ms and 25 ms takes six times as long:
    /// the shuffle's wire times and the receivers' clocks move.
    NetSlow,
    /// The overload bench's controlled config at x4 load: breakers trip
    /// and the live-source quarantine drain runs.
    Overload,
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn config(engine: EngineKind, scenario: Scenario) -> ServiceConfig {
    let mut cfg = ServiceConfig::standard(engine, 3, 42);
    match scenario {
        Scenario::Clean => {}
        Scenario::Crash => {
            cfg.fault_plan = Some(
                FaultPlan::new(5)
                    .with_disk_transients(15)
                    .with_crash(NodeId(1), at_ms(15)),
            );
        }
        Scenario::NetSlow => {
            cfg.fault_plan = Some(FaultPlan::new(9).with_slowdown(at_ms(5), at_ms(25), 6.0));
        }
        Scenario::Overload => {
            cfg = ServiceConfig::standard(engine, 6, 42);
            cfg.horizon = SimDuration::from_millis(80);
            for t in &mut cfg.tenants {
                t.mean_interarrival = SimDuration::from_millis(6);
                t.deadline = Some(SimDuration::from_millis(20));
            }
            cfg.admission.policy = PolicyKind::MemoryAware;
            cfg.admission.min_free_ratio = 0.2;
            cfg.admission.queue_cap = Some(4);
            cfg.retry = RetryPolicy::budgeted();
            cfg.overload = OverloadConfig {
                breaker: Some(BreakerConfig::default()),
                brownout: Some(BrownoutConfig {
                    max_active: 3,
                    ..Default::default()
                }),
            };
        }
    }
    cfg
}

/// Everything a run reports that the figures and tables read.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    elapsed_ns: u64,
    rounds: u64,
    outputs: u64,
    completed: u64,
    failed: u64,
    omes: u64,
    retries: u64,
    p50: u64,
    p99: u64,
    quarantines: u64,
}

struct Pin {
    engine: EngineKind,
    scenario: Scenario,
    want: Fingerprint,
}

#[rustfmt::skip]
const PINS: [Pin; 8] = [
    Pin { engine: EngineKind::Regular, scenario: Scenario::Clean, want: Fingerprint { elapsed_ns: 38495565, rounds: 50, outputs: 13607, completed: 13, failed: 1, omes: 7, retries: 6, p50: 3759897, p99: 9643081, quarantines: 0 } },
    Pin { engine: EngineKind::Itask, scenario: Scenario::Clean, want: Fingerprint { elapsed_ns: 50537231, rounds: 74, outputs: 15107, completed: 14, failed: 0, omes: 0, retries: 0, p50: 10864580, p99: 29131137, quarantines: 0 } },
    Pin { engine: EngineKind::Regular, scenario: Scenario::Crash, want: Fingerprint { elapsed_ns: 74655701, rounds: 52, outputs: 4616, completed: 9, failed: 5, omes: 24, retries: 20, p50: 12445607, p99: 35014865, quarantines: 0 } },
    Pin { engine: EngineKind::Itask, scenario: Scenario::Crash, want: Fingerprint { elapsed_ns: 64807629, rounds: 86, outputs: 15107, completed: 14, failed: 0, omes: 0, retries: 0, p50: 18905016, p99: 45431629, quarantines: 0 } },
    Pin { engine: EngineKind::Regular, scenario: Scenario::NetSlow, want: Fingerprint { elapsed_ns: 38495565, rounds: 48, outputs: 13607, completed: 13, failed: 1, omes: 7, retries: 6, p50: 3465626, p99: 10651546, quarantines: 0 } },
    Pin { engine: EngineKind::Itask, scenario: Scenario::NetSlow, want: Fingerprint { elapsed_ns: 48920282, rounds: 72, outputs: 15107, completed: 14, failed: 0, omes: 0, retries: 0, p50: 11235597, p99: 29474730, quarantines: 0 } },
    Pin { engine: EngineKind::Regular, scenario: Scenario::Overload, want: Fingerprint { elapsed_ns: 102457205, rounds: 109, outputs: 36402, completed: 43, failed: 2, omes: 27, retries: 25, p50: 19146071, p99: 34822872, quarantines: 3 } },
    Pin { engine: EngineKind::Itask, scenario: Scenario::Overload, want: Fingerprint { elapsed_ns: 116986094, rounds: 194, outputs: 29876, completed: 26, failed: 0, omes: 0, retries: 0, p50: 22539098, p99: 68658401, quarantines: 6 } },
];

#[test]
fn pinned_fingerprints_hold() {
    for pin in &PINS {
        let r = Service::new(config(pin.engine, pin.scenario)).run();
        let latency = r.merged_latency();
        let got = Fingerprint {
            elapsed_ns: r.elapsed.as_nanos(),
            rounds: r.rounds,
            outputs: r.total_outputs,
            completed: r.total(|t| t.completed),
            failed: r.total(|t| t.failed),
            omes: r.total(|t| t.omes),
            retries: r.total(|t| t.retries),
            p50: latency.quantile(0.5),
            p99: latency.quantile(0.99),
            quarantines: r.quarantines,
        };
        assert_eq!(got, pin.want, "{} {:?}", pin.engine.label(), pin.scenario);
    }
}
