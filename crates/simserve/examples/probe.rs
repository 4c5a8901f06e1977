//! Calibration probe: scan tenant counts on both engines and print
//! completion/OME/latency behavior (dev aid for sizing the standard
//! config; the real table lives in `itask-bench`'s `service` binary).

use simserve::{EngineKind, Service, ServiceConfig};

fn main() {
    for tenants in [1u32, 2, 3, 4, 6, 8] {
        for engine in [EngineKind::Regular, EngineKind::Itask] {
            let r = Service::new(ServiceConfig::standard(engine, tenants, 42)).run();
            let lat = &r.latency;
            println!(
                "tenants={tenants} {:>7}: sub={} done={} fail={} omes={} retries={} p50={}ms p99={}ms elapsed={}ms rounds={}",
                engine.label(),
                r.total(|t| t.submitted),
                r.total(|t| t.completed),
                r.total(|t| t.failed),
                r.total(|t| t.omes),
                r.total(|t| t.retries),
                lat.quantile(0.5) / 1_000_000,
                lat.quantile(0.99) / 1_000_000,
                r.elapsed.as_nanos() / 1_000_000,
                r.rounds,
            );
        }
    }
}
