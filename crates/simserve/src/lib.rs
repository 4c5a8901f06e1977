//! simserve: a deterministic multi-tenant job service on the cluster
//! simulator.
//!
//! The paper evaluates ITasks one job at a time; this crate asks the
//! service-operator question instead: *how many tenants can one cluster
//! absorb before jobs start dying?* It layers on top of the existing
//! simulator stack:
//!
//! - [`workload`] — a seeded open-loop client generator: N tenants
//!   submitting planner fold, Hyracks WC, and planner collect jobs at
//!   configurable rates and mixes, all derived from one root seed.
//! - [`admission`] — per-tenant queues behind a pluggable policy:
//!   FIFO, weighted-fair, or memory-aware (which consults the
//!   cluster's free-heap ratios and the active jobs' IRS memory
//!   signals before co-locating).
//! - [`job`] — an incremental two-phase job driver whose threads and
//!   heap spaces are attributed to per-job *allocation scopes*, so
//!   concurrent jobs share node heaps, contend genuinely, interrupt
//!   each other, and can be torn down surgically.
//! - [`service`] — the scheduling loop tying it together, with
//!   per-tenant SLO counters (OME/retry/failure/shed) and latency and
//!   queue-wait quantiles via the deterministic [`simcore::sketch`];
//!   service gauges go to the [`simcore::metrics`] plane.
//! - [`overload`] — survival controls for sustained OME storms:
//!   deadline-aware shedding, per-tenant retry token budgets with
//!   seeded exponential backoff, a per-node storm circuit breaker
//!   (quarantine → drain → half-open probe), and a cluster-wide
//!   brownout that deflates ITask jobs before the full-GC cliff. All
//!   default-off, so pre-existing configurations are untouched.
//!
//! Everything is virtual-time and seeded: the same configuration
//! produces byte-identical reports on any machine at any parallelism,
//! which `itask-bench`'s `service` binary relies on for its tables.

pub mod admission;
pub mod job;
pub mod overload;
pub mod service;
pub mod workload;

pub use admission::{AdmissionConfig, AdmissionController, ClusterView, PolicyKind, QueuedJob};
pub use job::{EngineKind, JobDriver, ServiceJob};
pub use overload::{
    classify, Breaker, BreakerConfig, BreakerState, BreakerTransition, BrownoutConfig,
    BrownoutState, FailureClass, OverloadConfig, RetryBudget, RetryPolicy, ShedReason, ShedRecord,
    TokenBucket,
};
pub use service::{ScaleSpec, Service, ServiceConfig, ServiceReport, TenantSlo};
pub use workload::{
    generate_arrivals, Arrival, ArrivalGen, JobKind, LoadShape, TenantModel, TenantSpec, WeightRule,
};
