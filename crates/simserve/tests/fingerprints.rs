//! Literal fingerprints of whole service runs, captured on the commit
//! *before* `simserve::job` stopped carrying its own copy of the
//! two-phase pipeline. The `--quick` stdout goldens and the benchmark's
//! `sim_digest` cover the fault-free data plane; these pins also walk
//! the service's crash re-homing, its shuffle under a fabric slowdown
//! window, and the quarantine drain, for both engines. A host-side
//! change must not move any of them; a change to the model moves them
//! on purpose and re-captures.
//!
//! The scale pins cover what those do not: the sharded 10^4-tenant
//! admission plane in the shed-heavy regime of the benchmark's
//! `service_scale`, down to the order its `Shed` events fire in.

use simcore::rng::stable_hash_bytes;
use simcore::{tracer, FaultPlan, NodeId, SimDuration, SimTime};
use simserve::{
    BreakerConfig, BrownoutConfig, EngineKind, LoadShape, OverloadConfig, PolicyKind, RetryPolicy,
    ScaleSpec, Service, ServiceConfig, TenantModel, WeightRule,
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
                brownout: Some(BrownoutConfig { max_active: 3 }),
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
        let latency = &r.latency;
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

/// The benchmark of record's `service_scale` configurations at 10^4
/// tenants: 4 ms deadlines, two-deep tenant queues, budgeted retries,
/// four admission shards — nearly every arrival is shed, so these pin
/// the admission plane rather than the data plane.
fn scale_config(policy: PolicyKind, shape: LoadShape) -> ServiceConfig {
    let mut cfg = ServiceConfig::standard(EngineKind::Itask, 0, 42);
    cfg.horizon = SimDuration::from_millis(40);
    cfg.admission.policy = policy;
    cfg.admission.max_active = 2;
    cfg.admission.queue_cap = Some(2);
    cfg.retry = RetryPolicy::budgeted();
    let mut model = TenantModel::uniform(10_000, SimDuration::from_micros(2));
    model.shape = shape;
    model.deadline = Some(SimDuration::from_millis(4));
    model.weights = WeightRule {
        premium_every: 10,
        premium_weight: 8,
    };
    cfg.scale = Some(ScaleSpec {
        model,
        admission_shards: 4,
    });
    cfg
}

/// FNV-1a over a stream of words: order-sensitive, so a fold over the
/// report's tenant map or the trace's shed events pins the sequence.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Everything a scale run reports, plus the order its sheds fired in.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ScalePrint {
    tenants: u64,
    /// Every `(tenant, counters)` of `report.tenants`, in key order.
    tenant_fold: u64,
    rounds: u64,
    peak_queued: u64,
    outputs: u64,
    /// Merged latency and queue-wait sketches: count, p50, p99 each.
    latency: [u64; 3],
    queue_wait: [u64; 3],
    /// Traced `Shed` events and the `(at, tenant, reason)` fold of
    /// their sequence.
    sheds: u64,
    shed_fold: u64,
}

fn scale_print(cfg: ServiceConfig) -> ScalePrint {
    tracer::begin_run();
    let r = Service::new(cfg).run();
    let events = tracer::take_run().expect("tracer armed");
    let mut tenant_fold = Fold::new();
    for (&id, t) in &r.tenants {
        for x in [
            id as u64,
            t.submitted,
            t.completed,
            t.failed,
            t.omes,
            t.retries,
            t.shed_deadline,
            t.shed_queue,
            t.shed_retry,
        ] {
            tenant_fold.word(x);
        }
    }
    let (mut sheds, mut shed_fold) = (0, Fold::new());
    for e in &events {
        if let tracer::TraceData::Shed { tenant, reason } = &e.data {
            sheds += 1;
            shed_fold.word(e.at.as_nanos());
            shed_fold.word(*tenant as u64);
            for b in reason.bytes() {
                shed_fold.word(b as u64);
            }
        }
    }
    let sketch = |s: &simcore::QuantileSketch| [s.count(), s.quantile(0.5), s.quantile(0.99)];
    ScalePrint {
        tenants: r.tenants.len() as u64,
        tenant_fold: tenant_fold.0,
        rounds: r.rounds,
        peak_queued: r.peak_queued,
        outputs: r.total_outputs,
        latency: sketch(&r.latency),
        queue_wait: sketch(&r.queue_wait),
        sheds,
        shed_fold: shed_fold.0,
    }
}

const BURSTY: LoadShape = LoadShape::Bursty {
    period: SimDuration::from_millis(8),
    burst_len: SimDuration::from_millis(2),
    mult_pm: 4_000,
};

/// Captured on the parent of the lazy-deadline-heap change (`7750383`).
#[rustfmt::skip]
const SCALE_PINS: [(PolicyKind, LoadShape, ScalePrint); 3] = [
    (PolicyKind::WeightedFair, LoadShape::Steady, ScalePrint { tenants: 8637, tenant_fold: 15778249298285129767, rounds: 118, peak_queued: 3358, outputs: 24079, latency: [19, 26334806, 81369838], queue_wait: [19, 847346, 3977297], sheds: 20000, shed_fold: 12481629443735789357 }),
    (PolicyKind::WeightedFair, BURSTY, ScalePrint { tenants: 9685, tenant_fold: 13773401426418926432, rounds: 129, peak_queued: 5651, outputs: 24091, latency: [18, 13125055, 100534064], queue_wait: [18, 475836, 3611042], sheds: 35050, shed_fold: 17034433565349169659 }),
    (PolicyKind::MemoryAware, LoadShape::Steady, ScalePrint { tenants: 8637, tenant_fold: 4761857268579148217, rounds: 115, peak_queued: 3050, outputs: 25548, latency: [17, 26135248, 96159662], queue_wait: [17, 3989997, 3999549], sheds: 20002, shed_fold: 1533261738581046706 }),
];

/// The tracer's arming flag is process-wide: the tests that flip it
/// take turns. The pinned-report test reads reports, which tracing
/// never changes, so it runs alongside either.
static TRACER: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn scale_fingerprints_hold() {
    let _armed = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    tracer::enable();
    let got: Vec<ScalePrint> = SCALE_PINS
        .iter()
        .map(|&(policy, shape, _)| scale_print(scale_config(policy, shape)))
        .collect();
    tracer::disable();
    for (g, (policy, shape, want)) in got.iter().zip(&SCALE_PINS) {
        assert_eq!(g, want, "{} {}", policy.label(), shape.label());
    }
}

/// The crash scenario's whole trace, pinned to the byte, for both
/// engines: the order the dead node's instances are salvaged and
/// retired in, and every event the re-homing causes after it.
#[test]
fn crash_trace_jsonl_holds() {
    let _armed = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    tracer::enable();
    let got = [EngineKind::Regular, EngineKind::Itask].map(|engine| {
        tracer::begin_run();
        Service::new(config(engine, Scenario::Crash)).run();
        let events = tracer::take_run().expect("tracer armed");
        let jsonl = tracer::jsonl_run(0, engine.label(), &events);
        (events.len(), stable_hash_bytes(jsonl.as_bytes()))
    });
    tracer::disable();
    assert_eq!(
        got,
        [(1095, 3250697058475168263), (2982, 2977602688469700894)]
    );
}
