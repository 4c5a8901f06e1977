//! Multi-tenant service table: ITask vs regular under rising tenant
//! counts, plus an admission-policy ablation.
//!
//! The headline table is the service-operator version of the paper's
//! scalability claim: on shared heaps, the regular engine starts losing
//! jobs to OMEs as tenants co-locate, while the ITask engine absorbs
//! the same offered load by interrupting and spilling — at higher but
//! bounded latency. The second table fixes the tenant count and swaps
//! admission policies, showing memory-aware admission trading queue
//! wait for OME avoidance on the engine that cannot protect itself.
//!
//! Usage: `service [--jobs N] [--quick] [--scale]`. Output is
//! deterministic: every cell derives from one seeded virtual-time run,
//! assembled in spec order regardless of `--jobs`.
//!
//! `--scale` swaps both tables for the million-tenant mode: a lazily
//! synthesized population (10^5 tenants, 10^4 with `--quick`) drives
//! sharded admission (4 shards, indexed O(log n) queues, per-shard
//! memory gating, bounded-memory shard sketches). Table 1 sweeps load
//! shapes (steady / diurnal / bursty) under weighted-fair admission;
//! table 2 holds the shape steady and sweeps admission policies.

use itask_bench::sweep::{self, Harness};
use itask_bench::{cols, print_table};
use simcore::SimDuration;
use simserve::{
    EngineKind, LoadShape, PolicyKind, RetryPolicy, ScaleSpec, Service, ServiceConfig,
    ServiceReport, TenantModel, WeightRule,
};

const SEED: u64 = 42;

fn run_engine(engine: EngineKind, tenants: u32) -> ServiceReport {
    Service::new(ServiceConfig::standard(engine, tenants, SEED)).run()
}

fn run_policy(policy: PolicyKind, tenants: u32) -> ServiceReport {
    let mut cfg = ServiceConfig::standard(EngineKind::Regular, tenants, SEED);
    cfg.admission.policy = policy;
    Service::new(cfg).run()
}

/// Headline: both engines across rising tenant counts.
fn tenant_sweep(h: &mut Harness, counts: &[u32]) {
    let mut specs = Vec::new();
    for &t in counts {
        for engine in [EngineKind::Regular, EngineKind::Itask] {
            specs.push(sweep::spec(
                format!("service t{t} {}", engine.label()),
                move || run_engine(engine, t),
            ));
        }
    }
    let mut runs = h.run(specs).into_iter();

    let mut rows = Vec::new();
    for &t in counts {
        let reg = runs.next().expect("regular run");
        let it = runs.next().expect("itask run");
        let (rc, ic) = (reg.summary_cells(), it.summary_cells());
        rows.push(vec![
            t.to_string(),
            rc[0].clone(),
            rc[1].clone(),
            rc[4].clone(),
            rc[6].clone(),
            ic[0].clone(),
            ic[1].clone(),
            ic[4].clone(),
            ic[6].clone(),
        ]);
    }
    print_table(
        "Multi-tenant service: regular vs ITask (4 nodes, shared heaps, FIFO admission)",
        &cols(&[
            "tenants",
            "reg done",
            "reg OMEs",
            "reg p50",
            "reg p99",
            "itask done",
            "itask OMEs",
            "itask p50",
            "itask p99",
        ]),
        &rows,
    );
}

/// Ablation: admission policies protecting the regular engine.
fn policy_sweep(h: &mut Harness, tenants: u32) {
    let policies = [
        PolicyKind::Fifo,
        PolicyKind::WeightedFair,
        PolicyKind::MemoryAware,
    ];
    let specs = policies
        .iter()
        .map(|&p| {
            sweep::spec(
                format!("service policy {} t{tenants}", p.label()),
                move || run_policy(p, tenants),
            )
        })
        .collect();
    let mut runs = h.run(specs).into_iter();

    let mut rows = Vec::new();
    for p in policies {
        let r = runs.next().expect("policy run");
        let c = r.summary_cells();
        rows.push(vec![
            p.label().to_string(),
            c[0].clone(),
            c[1].clone(),
            c[2].clone(),
            c[3].clone(),
            c[4].clone(),
            c[7].clone(),
        ]);
    }
    print_table(
        &format!(
            "Admission-policy ablation: regular engine, {tenants} tenants (OMEs vs queue wait)"
        ),
        &cols(&[
            "policy",
            "done",
            "OMEs",
            "retries",
            "failed",
            "p50",
            "qwait p95",
        ]),
        &rows,
    );
}

/// The million-tenant service configuration: ITask engine, weighted
/// shares from a procedural rule (every 10th tenant is premium), tight
/// submit deadlines, bounded per-tenant queues, and budgeted retries —
/// an overloaded shed-heavy regime where the admission plane itself is
/// the system under test.
fn run_scale(
    policy: PolicyKind,
    shape: LoadShape,
    population: u32,
    mean_gap: SimDuration,
) -> ServiceReport {
    let mut cfg = ServiceConfig::standard(EngineKind::Itask, 0, SEED);
    cfg.admission.policy = policy;
    cfg.admission.max_active = 2; // per shard
    cfg.admission.queue_cap = Some(2);
    cfg.retry = RetryPolicy::budgeted();
    let mut model = TenantModel::uniform(population, mean_gap);
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
    Service::new(cfg).run()
}

/// Stable cells for the scale tables:
/// `[done/submitted, shed, peak queued, p50, p99, qwait p95]`.
fn scale_cells(r: &ServiceReport) -> Vec<String> {
    let c = r.summary_cells();
    vec![
        c[0].clone(),
        r.total_shed().to_string(),
        r.peak_queued.to_string(),
        c[4].clone(),
        c[6].clone(),
        c[7].clone(),
    ]
}

const SCALE_COLS: [&str; 7] = [
    "", // row label, set per table
    "done",
    "shed",
    "peak q",
    "p50",
    "p99",
    "qwait p95",
];

/// Scale table 1: load shapes under weighted-fair admission.
fn scale_shape_sweep(
    h: &mut Harness,
    population: u32,
    mean_gap: SimDuration,
    shapes: &[LoadShape],
) {
    let specs = shapes
        .iter()
        .map(|&s| {
            sweep::spec(format!("scale shape {}", s.label()), move || {
                run_scale(PolicyKind::WeightedFair, s, population, mean_gap)
            })
        })
        .collect();
    let rows: Vec<Vec<String>> = h
        .run(specs)
        .into_iter()
        .zip(shapes)
        .map(|(r, s)| {
            let mut row = vec![s.label().to_string()];
            row.extend(scale_cells(&r));
            row
        })
        .collect();
    let mut headers = SCALE_COLS;
    headers[0] = "shape";
    print_table(
        &format!("Scale service: load shapes at {population} tenants (wfair, 4 admission shards)"),
        &cols(&headers),
        &rows,
    );
}

/// Scale table 2: admission policies at steady load.
fn scale_policy_sweep(h: &mut Harness, population: u32, mean_gap: SimDuration) {
    let policies = [
        PolicyKind::Fifo,
        PolicyKind::WeightedFair,
        PolicyKind::MemoryAware,
    ];
    let specs = policies
        .iter()
        .map(|&p| {
            sweep::spec(format!("scale policy {}", p.label()), move || {
                run_scale(p, LoadShape::Steady, population, mean_gap)
            })
        })
        .collect();
    let rows: Vec<Vec<String>> = h
        .run(specs)
        .into_iter()
        .zip(policies)
        .map(|(r, p)| {
            let mut row = vec![p.label().to_string()];
            row.extend(scale_cells(&r));
            row
        })
        .collect();
    let mut headers = SCALE_COLS;
    headers[0] = "policy";
    print_table(
        &format!("Scale service: admission policies at {population} tenants (steady load)"),
        &cols(&headers),
        &rows,
    );
}

fn main() {
    let mut h = sweep::harness("service");
    let scale = h.flag("--scale");
    let quick = h.flag("--quick");
    if scale {
        // Scale mode keeps its own profile sidecars.
        h.bin.push_str("-scale");
    }
    h.end_flags();
    if scale {
        // Quick keeps the population and offered load CI-sized; full
        // mode is the 10^5-tenant, ~500k jobs/s regime of
        // bench_results/BENCH_scale.txt.
        let (population, mean_gap) = if quick {
            (10_000, SimDuration::from_micros(40))
        } else {
            (100_000, SimDuration::from_micros(2))
        };
        let shapes = [
            LoadShape::Steady,
            LoadShape::Diurnal {
                period: SimDuration::from_millis(10),
                amplitude_pm: 600,
            },
            LoadShape::Bursty {
                period: SimDuration::from_millis(8),
                burst_len: SimDuration::from_millis(2),
                mult_pm: 4_000,
            },
        ];
        scale_shape_sweep(&mut h, population, mean_gap, &shapes);
        scale_policy_sweep(&mut h, population, mean_gap);
    } else {
        let counts: &[u32] = if quick {
            &[1, 2, 3]
        } else {
            &[1, 2, 3, 4, 6, 8]
        };
        tenant_sweep(&mut h, counts);
        policy_sweep(&mut h, if quick { 3 } else { 6 });
    }
    h.finish();
}
