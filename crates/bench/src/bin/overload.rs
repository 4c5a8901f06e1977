//! Overload survival: ramping open-loop arrivals past saturation.
//!
//! The robustness counterpart to the `service` table. Arrival rate is
//! ramped by scaling every tenant's mean interarrival down (x1 = the
//! calibrated standard load, x4 = four times as many submissions into
//! the same cluster) and three configurations face each ramp:
//!
//! - `regular`  — the regular engine with no overload controls: the
//!   collapse baseline. Past saturation OMEs cascade and goodput falls.
//! - `itask`    — the ITask engine, still without controls: interrupts
//!   and spills absorb more load but queues grow without bound.
//! - `itask+ctl` — ITask plus the full overload stack: submit
//!   deadlines with deadline-aware shedding, bounded per-tenant queues,
//!   memory-aware admission, budgeted retries with seeded backoff, the
//!   per-node OME-storm circuit breaker, and cluster-wide brownout.
//!   The claim: goodput *plateaus* instead of collapsing — the service
//!   sheds the excess deterministically and keeps serving.
//!
//! Goodput is completed jobs per virtual second (integer fixed-point:
//! stable). The trailing `saturation:` lines classify each config
//! against its own uncongested x1 baseline on three axes — goodput
//! retention, failure rate, and drain overrun — and report `plateau`
//! only when all three hold at every load level.
//!
//! Usage: `overload [--jobs N] [--quick] [--scale]`. Output is
//! deterministic: every cell derives from one seeded virtual-time run,
//! assembled in spec order regardless of `--jobs`.
//!
//! `--scale` re-runs the same ramp with the offered load spread over a
//! lazily synthesized 10^5-tenant population (10^4 with `--quick`)
//! through two admission shards — same aggregate jobs/s, same
//! saturation verdicts, but the per-tenant rate is now microscopic and
//! the admission plane must stay O(log n) per decision to keep up.

use itask_bench::sweep;
use itask_bench::{cols, print_table};
use simcore::SimDuration;
use simserve::{
    EngineKind, OverloadConfig, PolicyKind, RetryPolicy, ScaleSpec, Service, ServiceConfig,
    ServiceReport, TenantModel,
};

const SEED: u64 = 42;

/// Aggregate offered load at x1 in jobs per second, split across the
/// tenants: comfortably below cluster capacity (~350 jobs/s for the
/// ITask engine on the standard 4-node shape), so the saturation knee
/// lands *inside* the sweep rather than before it.
const BASE_OFFERED_PER_SEC: u64 = 250;

/// Arrival horizon for every overload cell: longer than the service
/// standard, so goodput *rates* compare enough completions that one
/// straggler's drain tail cannot move the verdict.
const HORIZON: SimDuration = SimDuration::from_millis(80);
/// Submit deadline armed on every tenant in the controlled config.
const DEADLINE: SimDuration = SimDuration::from_millis(20);
/// Per-tenant queue bound in the controlled config.
const QUEUE_CAP: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Regular,
    Itask,
    ItaskCtl,
}

impl Config {
    const ALL: [Config; 3] = [Config::Regular, Config::Itask, Config::ItaskCtl];

    fn label(self) -> &'static str {
        match self {
            Config::Regular => "regular",
            Config::Itask => "itask",
            Config::ItaskCtl => "itask+ctl",
        }
    }
}

/// The scale ramp: identical aggregate offered load, but spread across
/// a synthesized `population` via the lazy arrival stream and gated by
/// two admission shards. `max_active` is halved because the cap is per
/// shard (2 x 2 = the classic global 4); likewise the brownout cap.
fn run_config_scale(config: Config, population: u32, load: u64) -> ServiceReport {
    let engine = match config {
        Config::Regular => EngineKind::Regular,
        _ => EngineKind::Itask,
    };
    let mut cfg = ServiceConfig::standard(engine, 0, SEED);
    cfg.horizon = HORIZON;
    cfg.admission.max_active = 2; // per shard
    let mut model = TenantModel::uniform(
        population,
        SimDuration::from_nanos(1_000_000_000 / (BASE_OFFERED_PER_SEC * load)),
    );
    if config == Config::ItaskCtl {
        model.deadline = Some(DEADLINE);
        cfg.admission.policy = PolicyKind::MemoryAware;
        cfg.admission.min_free_ratio = 0.2;
        cfg.admission.queue_cap = Some(QUEUE_CAP);
        cfg.retry = RetryPolicy::budgeted();
        cfg.overload = OverloadConfig {
            breaker: Some(simserve::BreakerConfig { trip_score: 12 }),
            brownout: Some(simserve::BrownoutConfig { max_active: 1 }), // per shard
        };
    }
    cfg.scale = Some(ScaleSpec {
        model,
        admission_shards: 2,
    });
    Service::new(cfg).run()
}

fn run_config(config: Config, tenants: u32, load: u64) -> ServiceReport {
    let engine = match config {
        Config::Regular => EngineKind::Regular,
        _ => EngineKind::Itask,
    };
    let mut cfg = ServiceConfig::standard(engine, tenants, SEED);
    cfg.horizon = HORIZON;
    let interarrival =
        SimDuration::from_nanos(tenants as u64 * 1_000_000_000 / (BASE_OFFERED_PER_SEC * load));
    for t in &mut cfg.tenants {
        t.mean_interarrival = interarrival;
    }
    if config == Config::ItaskCtl {
        for t in &mut cfg.tenants {
            t.deadline = Some(DEADLINE);
        }
        cfg.admission.policy = PolicyKind::MemoryAware;
        cfg.admission.min_free_ratio = 0.2;
        cfg.admission.queue_cap = Some(QUEUE_CAP);
        cfg.retry = RetryPolicy::budgeted();
        // The library defaults are calibrated for OME storms on the
        // regular engine; on ITask heaps full collections are routine,
        // so require a hotter window before quarantining a node.
        cfg.overload = OverloadConfig {
            breaker: Some(simserve::BreakerConfig { trip_score: 12 }),
            brownout: Some(simserve::BrownoutConfig { max_active: 3 }),
        };
    }
    Service::new(cfg).run()
}

/// Completed jobs per virtual second, in tenths (integer math: stable).
fn goodput_tenths(r: &ServiceReport) -> u64 {
    let ns = r.elapsed.as_nanos().max(1);
    r.total(|t| t.completed) * 10_000_000_000 / ns
}

fn fmt_goodput(tenths: u64) -> String {
    format!("{}.{}", tenths / 10, tenths % 10)
}

/// Nanoseconds as fixed-point milliseconds (integer math: stable).
fn fmt_ms(ns: u64) -> String {
    let tenths = ns / 100_000;
    format!("{}.{}ms", tenths / 10, tenths % 10)
}

fn main() {
    let mut h = sweep::harness("overload");
    let scale = h.flag("--scale");
    let quick = h.flag("--quick");
    if scale {
        // Scale mode keeps its own profile sidecars.
        h.bin.push_str("-scale");
    }
    h.end_flags(&[]);

    let (tenants, loads): (u32, &[u64]) = match (scale, quick) {
        (false, true) => (4, &[1, 2, 4]),
        (false, false) => (6, &[1, 2, 4, 8]),
        (true, true) => (10_000, &[1, 2, 4]),
        (true, false) => (100_000, &[1, 2, 4, 8]),
    };

    let mut specs = Vec::new();
    for &load in loads {
        for config in Config::ALL {
            let name = format!("overload x{load} {}", config.label());
            specs.push(if scale {
                sweep::spec(name, move || run_config_scale(config, tenants, load))
            } else {
                sweep::spec(name, move || run_config(config, tenants, load))
            });
        }
    }
    let mut runs = h.run(specs).into_iter();

    // reports[load_idx][config_idx], in spec order.
    let reports: Vec<Vec<ServiceReport>> = loads
        .iter()
        .map(|_| {
            Config::ALL
                .iter()
                .map(|_| runs.next().expect("run"))
                .collect()
        })
        .collect();

    // Headline: goodput and completions per config across the ramp.
    let mut rows = Vec::new();
    for (i, &load) in loads.iter().enumerate() {
        let [reg, it, ctl] = &reports[i][..] else {
            unreachable!()
        };
        let done = |r: &ServiceReport| {
            format!("{}/{}", r.total(|t| t.completed), r.total(|t| t.submitted))
        };
        rows.push(vec![
            format!("x{load}"),
            fmt_goodput(goodput_tenths(reg)),
            done(reg),
            fmt_goodput(goodput_tenths(it)),
            done(it),
            fmt_goodput(goodput_tenths(ctl)),
            done(ctl),
            ctl.total_shed().to_string(),
        ]);
    }
    print_table(
        &format!("Overload ramp: goodput (jobs/s) past saturation ({tenants} tenants, 4 nodes)"),
        &cols(&[
            "load",
            "reg good",
            "reg done",
            "itask good",
            "itask done",
            "ctl good",
            "ctl done",
            "ctl shed",
        ]),
        &rows,
    );

    // Detail: where the controlled config's excess load went.
    let mut rows = Vec::new();
    for (i, &load) in loads.iter().enumerate() {
        let ctl = &reports[i][2];
        rows.push(vec![
            format!("x{load}"),
            ctl.total(|t| t.shed_deadline).to_string(),
            ctl.total(|t| t.shed_queue).to_string(),
            ctl.total(|t| t.shed_retry).to_string(),
            ctl.total(|t| t.failed).to_string(),
            ctl.quarantines.to_string(),
            ctl.brownout_rounds.to_string(),
            fmt_ms(ctl.latency.quantile(0.99)),
        ]);
    }
    print_table(
        "Overload controls detail (itask+ctl): shed breakdown, quarantine, brownout",
        &cols(&[
            "load", "deadline", "queue", "retry", "failed", "quarant", "brownout", "p99",
        ]),
        &rows,
    );

    // Saturation verdicts. A config survives the ramp (plateau) only if
    // every load level, measured against the uncongested x1 baseline,
    // simultaneously holds all three axes of graceful degradation:
    //   goodput  — completion rate stays >= 80% of the x1 rate;
    //   failures — at most 10% of submitted jobs die;
    //   latency  — the run drains within 3x the arrival horizon
    //              (an ever-growing backlog is collapse even when the
    //              completion rate looks healthy).
    // Otherwise it collapsed, labelled with the dominant broken axis.
    for (c, config) in Config::ALL.iter().enumerate() {
        let series: Vec<&ServiceReport> = (0..loads.len()).map(|i| &reports[i][c]).collect();
        let baseline = goodput_tenths(series[0]).max(1);
        let min_good = series.iter().map(|r| goodput_tenths(r)).min().unwrap_or(0);
        let good_pct = min_good * 100 / baseline;
        let max_fail_pct = series
            .iter()
            .map(|r| r.total(|t| t.failed) * 100 / r.total(|t| t.submitted).max(1))
            .max()
            .unwrap_or(0);
        let max_drain_tenths = series
            .iter()
            .map(|r| r.elapsed.as_nanos() * 10 / HORIZON.as_nanos().max(1))
            .max()
            .unwrap_or(0);
        let verdict = if max_fail_pct > 10 {
            "collapse (failures)"
        } else if max_drain_tenths > 30 {
            "collapse (latency)"
        } else if good_pct < 80 {
            "collapse (goodput)"
        } else {
            "plateau"
        };
        println!(
            "saturation: {:<9} min={} jobs/s ({good_pct}% of x1)  max-fail={max_fail_pct}%  max-drain={}.{}x  -> {verdict}",
            config.label(),
            fmt_goodput(min_good),
            max_drain_tenths / 10,
            max_drain_tenths % 10,
        );
    }

    h.finish();
}
