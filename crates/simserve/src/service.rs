//! The service loop: a deterministic multi-tenant job service driving
//! admission, concurrent execution, failure handling, and per-tenant
//! SLO accounting on one shared simulated cluster.
//!
//! One iteration of the loop is one scheduling round: due arrivals are
//! enqueued, the admission policy fills free slots, every active job's
//! control plane is pumped, every live node runs one processor-sharing
//! round (stepping *all* jobs' threads together, so co-located jobs
//! contend for the same heaps), crashes fire, and failures are retried
//! or charged against their tenant. Everything is seeded and stepped in
//! a fixed order, so a `(config, seed)` pair always produces the same
//! report — byte for byte.
//!
//! There is one admission path. Tenants hash to admission shards, and
//! each shard drains its queue against a view of its node slice frozen
//! at round start. The classic configuration (explicit `tenants`, no
//! [`ScaleSpec`]) is one shard that owns every node, fed a schedule
//! generated up front.

use std::collections::BTreeMap;
use std::iter::Peekable;

use itask_core::MemSignal;
use simcluster::{run_round, Cluster, ClusterConfig};
use simcore::sketch::QuantileSketch;
use simcore::{
    metrics, tracer, tracer::EventId, ByteSize, FaultPlan, KeyMap, NodeId, SimDuration, SimError,
    SimTime,
};

use crate::admission::{AdmissionConfig, AdmissionController, ClusterView, QueuedJob};
use crate::job::{EngineKind, JobDriver, ServiceJob};
use crate::overload::{
    classify, Breaker, BreakerTransition, BrownoutState, OverloadConfig, RetryPolicy, ShedReason,
    TokenBucket,
};
use crate::workload::{
    dataset_blocks, generate_arrivals, Arrival, ArrivalGen, JobKind, TenantModel, TenantSpec,
    WeightRule,
};

/// Safety valve: a service run that exceeds this many scheduling rounds
/// has livelocked (a bug, not a workload property — idle periods jump
/// the clock instead of spinning).
const MAX_ROUNDS: u64 = 2_000_000;

/// Cores per node.
const CORES: usize = 2;

/// Managed-heap capacity per node (the contended resource): sized so one
/// job of any kind runs comfortably but co-located heavy jobs genuinely
/// pressure each other.
const HEAP_PER_NODE: ByteSize = ByteSize::kib(512);

/// Input block granularity for generated datasets.
const BLOCK_SIZE: ByteSize = ByteSize::kib(8);

/// Full configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Cluster shape.
    pub nodes: usize,
    /// Which engine executes every job.
    pub engine: EngineKind,
    /// Admission policy and limits.
    pub admission: AdmissionConfig,
    /// Root seed for arrival schedules and datasets.
    pub seed: u64,
    /// Arrival-generation horizon.
    pub horizon: SimDuration,
    /// The tenants and their traffic profiles.
    pub tenants: Vec<TenantSpec>,
    /// Retry policy: attempt ceilings per failure class, backoff, and
    /// the optional per-tenant retry token budget.
    pub retry: RetryPolicy,
    /// Optional overload controls (circuit breaker, brownout); default
    /// off, leaving pre-existing configurations untouched.
    pub overload: OverloadConfig,
    /// Optional deterministic fault plan (node crashes, disk faults).
    pub fault_plan: Option<FaultPlan>,
    /// Scale mode: a lazily generated tenant population with sharded
    /// admission, replacing `tenants` (which must then be empty).
    /// `None` (the default) admits `tenants` through one shard.
    pub scale: Option<ScaleSpec>,
}

/// Configuration of scale mode: how the 10^5–10^6-tenant admission
/// plane is populated and sharded.
#[derive(Clone, Debug)]
pub struct ScaleSpec {
    /// The lazily synthesized tenant population.
    pub model: TenantModel,
    /// Admission shards: tenants hash to a shard (`tenant % shards`),
    /// each shard owns an indexed controller gating on its own slice of
    /// nodes (`node % shards`), and shards decide in shard order, each
    /// against its own view frozen at round start. Clamped to
    /// `[1, nodes]`. The configured `max_active` (and any brownout cap)
    /// applies per shard.
    pub admission_shards: usize,
}

impl ServiceConfig {
    /// The calibrated standard configuration used by benches and tests.
    pub fn standard(engine: EngineKind, tenant_count: u32, seed: u64) -> Self {
        ServiceConfig {
            nodes: 4,
            engine,
            admission: AdmissionConfig::default(),
            seed,
            horizon: SimDuration::from_millis(40),
            tenants: (0..tenant_count)
                .map(|i| TenantSpec::uniform(i, SimDuration::from_millis(8)))
                .collect(),
            retry: RetryPolicy::flat(2),
            overload: OverloadConfig::default(),
            fault_plan: None,
            scale: None,
        }
    }
}

/// Per-tenant service-level accounting: counters only. Latencies and
/// queue waits go to the per-shard sketches merged into
/// [`ServiceReport`], so a tenant that only ever had arrivals shed costs
/// one 64-byte record and no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct TenantSlo {
    /// Jobs submitted (arrivals inside the horizon).
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that exhausted their retries.
    pub failed: u64,
    /// Out-of-memory errors charged to this tenant's jobs.
    pub omes: u64,
    /// Retry attempts consumed.
    pub retries: u64,
    /// Jobs shed because their submit deadline expired in a queue.
    pub shed_deadline: u64,
    /// Arrivals shed because the tenant's bounded queue was full.
    pub shed_queue: u64,
    /// Failures denied a retry by the tenant's empty token bucket
    /// (counted here, not in `failed`).
    pub shed_retry: u64,
}

/// The outcome of one service run.
pub struct ServiceReport {
    /// Per-tenant SLO accounting, one record per tenant that submitted
    /// (or, outside scale mode, was configured), in tenant-id order.
    pub tenants: BTreeMap<u32, TenantSlo>,
    /// Virtual wall time of the whole run.
    pub elapsed: SimDuration,
    /// Total output tuples across completed jobs (a checksum that the
    /// engines computed the same answers).
    pub total_outputs: u64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Circuit-breaker trips (nodes quarantined, counting re-trips).
    pub quarantines: u64,
    /// Rounds spent browned out.
    pub brownout_rounds: u64,
    /// High-water mark of immediately-runnable queued jobs across all
    /// admission shards.
    pub peak_queued: u64,
    /// End-to-end latency (submission → completion, nanoseconds) of
    /// every completed job, recorded per admission shard and merged in
    /// shard order: bounded memory at any tenant count.
    pub latency: QuantileSketch,
    /// Queue wait (latest enqueue → admission, nanoseconds) of every
    /// admission, sharded and merged like `latency`.
    pub queue_wait: QuantileSketch,
}

impl ServiceReport {
    /// Sums a counter over every tenant.
    pub fn total(&self, f: impl Fn(&TenantSlo) -> u64) -> u64 {
        self.tenants.values().map(f).sum()
    }

    /// Jobs shed across all tenants and reasons.
    pub fn total_shed(&self) -> u64 {
        self.total(|t| t.shed_deadline + t.shed_queue + t.shed_retry)
    }

    /// A clone of `latency`, kept only because `benchmark/` calls it.
    #[doc(hidden)]
    pub fn merged_latency(&self) -> QuantileSketch {
        self.latency.clone()
    }

    /// A clone of `queue_wait`, kept only because `benchmark/` calls it.
    #[doc(hidden)]
    pub fn merged_queue_wait(&self) -> QuantileSketch {
        self.queue_wait.clone()
    }

    /// The report reduced to stable table cells:
    /// `[done/submitted, OMEs, retries, failed, p50, p95, p99, qwait-p95]`.
    /// Everything derives from integer state, so equal runs produce
    /// byte-identical cells — the service table's determinism contract.
    pub fn summary_cells(&self) -> Vec<String> {
        let (lat, qw) = (&self.latency, &self.queue_wait);
        vec![
            format!(
                "{}/{}",
                self.total(|t| t.completed),
                self.total(|t| t.submitted)
            ),
            self.total(|t| t.omes).to_string(),
            self.total(|t| t.retries).to_string(),
            self.total(|t| t.failed).to_string(),
            fmt_ms(lat.quantile(0.5)),
            fmt_ms(lat.quantile(0.95)),
            fmt_ms(lat.quantile(0.99)),
            fmt_ms(qw.quantile(0.95)),
        ]
    }
}

/// Nanoseconds as fixed-point milliseconds (integer math: stable).
fn fmt_ms(ns: u64) -> String {
    let tenths = ns / 100_000;
    format!("{}.{}ms", tenths / 10, tenths % 10)
}

/// One admitted, executing job.
struct ActiveJob {
    driver: Box<dyn JobDriver>,
    queued: QueuedJob,
    failure: Option<SimError>,
    /// Admission shard that issued the job.
    shard: usize,
}

/// The arrival schedule in time order: generated up front for explicit
/// tenants, synthesized on demand in scale mode.
type Arrivals = Box<dyn Iterator<Item = Arrival>>;

/// The service runtime.
pub struct Service {
    cfg: ServiceConfig,
    cluster: Cluster,
    /// One admission controller per shard (`tenant % shards`).
    controllers: Vec<AdmissionController>,
    arrivals: Peekable<Arrivals>,
    /// Node slice owned by each admission shard (`node % shards`).
    shard_nodes: Vec<Vec<NodeId>>,
    active: Vec<ActiveJob>,
    /// Per-tenant SLO records, hashed: touched several times per
    /// arrival at 10^5 tenants, read by key only, and sorted into the
    /// report's `BTreeMap` once when the run ends.
    slos: KeyMap<u32, TenantSlo>,
    /// Per-shard latency and queue-wait sketches.
    shard_latency: Vec<QuantileSketch>,
    shard_queue_wait: Vec<QuantileSketch>,
    peak_queued: u64,
    next_scope: u64,
    total_outputs: u64,
    rounds: u64,
    /// Per-node circuit breakers (always sized, only stepped when the
    /// breaker config is armed).
    breakers: Vec<Breaker>,
    /// Cluster-wide brownout state.
    brownout: BrownoutState,
    /// Per-tenant retry token buckets (lazily created on first spend).
    retry_buckets: BTreeMap<u32, TokenBucket>,
    /// Per-node cumulative GC counters already charged to the breaker:
    /// `(minor, full, useless)`.
    gc_seen: Vec<(u64, u64, u64)>,
    /// Per-node OutOfMemory thread failures observed this round.
    oom_round: Vec<u64>,
    /// Per-node id of the last storm trace event (breaker causal link).
    last_storm: Vec<EventId>,
    /// Per-shard queue depth last published to the metrics plane
    /// (change-driven so idle rounds emit nothing).
    last_queue_depth: Vec<i64>,
    /// Id of the last storm event anywhere (brownout causal link).
    last_storm_any: EventId,
    quarantines: u64,
    brownout_rounds: u64,
}

impl Service {
    /// Builds the service: generates the arrival schedule, sizes the
    /// cluster, and arms the fault plan if any.
    pub fn new(cfg: ServiceConfig) -> Self {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: cfg.nodes,
            cores: CORES,
            heap_per_node: HEAP_PER_NODE,
        });
        if let Some(plan) = cfg.fault_plan.clone() {
            cluster.install_faults(plan);
        }
        let mut slos: KeyMap<u32, TenantSlo> = KeyMap::default();
        let (controllers, arrivals): (_, Arrivals) = match &cfg.scale {
            None => {
                for t in &cfg.tenants {
                    slos.insert(t.id, TenantSlo::default());
                }
                let fixed = generate_arrivals(cfg.seed, &cfg.tenants, cfg.horizon);
                (
                    vec![AdmissionController::with_weight_rule(
                        cfg.admission,
                        WeightRule::uniform(),
                    )],
                    Box::new(fixed.into_iter()),
                )
            }
            Some(spec) => {
                assert!(
                    cfg.tenants.is_empty(),
                    "scale mode replaces the explicit tenant list"
                );
                let shards = spec.admission_shards.clamp(1, cfg.nodes.max(1));
                let controllers = (0..shards)
                    .map(|_| {
                        AdmissionController::with_weight_rule(cfg.admission, spec.model.weights)
                    })
                    .collect();
                let stream = ArrivalGen::new(cfg.seed, spec.model.clone(), cfg.horizon);
                (controllers, Box::new(stream))
            }
        };
        let nodes = cfg.nodes;
        let shards = controllers.len();
        let shard_nodes = (0..shards)
            .map(|s| {
                (0..nodes)
                    .filter(|n| n % shards == s)
                    .map(|n| NodeId(n as u32))
                    .collect()
            })
            .collect();
        Service {
            cfg,
            cluster,
            controllers,
            arrivals: arrivals.peekable(),
            shard_nodes,
            active: Vec::new(),
            slos,
            shard_latency: vec![QuantileSketch::default(); shards],
            shard_queue_wait: vec![QuantileSketch::default(); shards],
            peak_queued: 0,
            next_scope: 1,
            total_outputs: 0,
            rounds: 0,
            breakers: vec![Breaker::default(); nodes],
            brownout: BrownoutState::default(),
            retry_buckets: BTreeMap::new(),
            gc_seen: vec![(0, 0, 0); nodes],
            oom_round: vec![0; nodes],
            last_storm: vec![EventId::NONE; nodes],
            last_queue_depth: vec![i64::MIN; shards],
            last_storm_any: EventId::NONE,
            quarantines: 0,
            brownout_rounds: 0,
        }
    }

    /// Runs the service to completion (all arrivals processed, all jobs
    /// completed or failed) and returns the report.
    pub fn run(mut self) -> ServiceReport {
        loop {
            let now = SimTime::ZERO + self.cluster.elapsed();
            self.enqueue_due(now);
            self.admit(now);
            self.drain_sheds();
            self.pump();
            self.step_data_plane();
            self.handle_crashes();
            self.update_overload();
            self.settle_jobs();

            let idle = self.active.is_empty() && self.queued_total() == 0;
            if idle {
                // Nothing runnable now: jump to whichever comes first,
                // the next arrival or the next backed-off retry release
                // (spinning rounds until a release would livelock).
                let next_arrival = self.arrivals.peek().map(|a| a.at);
                let next_release = self
                    .controllers
                    .iter()
                    .filter_map(|c| c.next_release())
                    .min();
                match (next_arrival, next_release) {
                    (None, None) => break,
                    (Some(a), None) => self.cluster.advance_clocks_to(a),
                    (None, Some(r)) => self.cluster.advance_clocks_to(r),
                    (Some(a), Some(r)) => self.cluster.advance_clocks_to(a.min(r)),
                }
            }
            self.rounds += 1;
            assert!(
                self.rounds < MAX_ROUNDS,
                "service livelocked after {} rounds ({} active, {} queued)",
                self.rounds,
                self.active.len(),
                self.queued_total()
            );
        }
        // A run can end still browned out: flush the open window so the
        // trace always accounts every brownout round.
        if let Some((since, rounds)) = self.brownout.window() {
            if tracer::is_enabled() {
                let now = SimTime::ZERO + self.cluster.elapsed();
                tracer::emit(
                    None,
                    None,
                    since,
                    now.since(since),
                    tracer::TraceData::Brownout {
                        rounds,
                        cause: self.last_storm_any,
                    },
                );
            }
        }
        // Shard sketches merge in shard order, so the merged quantiles
        // are deterministic.
        let merge = |sketches: &[QuantileSketch]| {
            let mut all = QuantileSketch::default();
            for s in sketches {
                all.merge(s);
            }
            all
        };
        // Sort ids, not records; the map is then bulk-built from an
        // already sorted run.
        let mut ids: Vec<u32> = self.slos.keys().copied().collect();
        ids.sort_unstable();
        let tenants: BTreeMap<u32, TenantSlo> = ids
            .into_iter()
            .map(|id| (id, self.slos.remove(&id).expect("id taken from the map")))
            .collect();
        // Every queue is empty once the loop ends, so each arrival was
        // completed, failed or shed, and counted exactly once.
        for (id, t) in &tenants {
            debug_assert_eq!(
                t.submitted,
                t.completed + t.failed + t.shed_deadline + t.shed_queue + t.shed_retry,
                "tenant {id}: arrivals not conserved"
            );
        }
        ServiceReport {
            tenants,
            elapsed: self.cluster.elapsed(),
            total_outputs: self.total_outputs,
            rounds: self.rounds,
            quarantines: self.quarantines,
            brownout_rounds: self.brownout_rounds,
            peak_queued: self.peak_queued,
            latency: merge(&self.shard_latency),
            queue_wait: merge(&self.shard_queue_wait),
        }
    }

    /// Which admission shard owns a tenant.
    fn shard_of(&self, tenant: u32) -> usize {
        tenant as usize % self.controllers.len()
    }

    /// Immediately runnable jobs queued across all shards.
    fn queued_total(&self) -> u64 {
        self.controllers.iter().map(|c| c.queued() as u64).sum()
    }

    /// Moves due arrivals into the admission queues (and due backed-off
    /// retries out of the delayed set).
    fn enqueue_due(&mut self, now: SimTime) {
        for c in &mut self.controllers {
            c.release_due(now);
        }
        while let Some(a) = self.arrivals.next_if(|a| a.at <= now) {
            self.slos.entry(a.tenant).or_default().submitted += 1;
            if tracer::is_enabled() {
                tracer::emit(
                    None,
                    None,
                    a.at,
                    SimDuration::ZERO,
                    tracer::TraceData::JobSubmitted { tenant: a.tenant },
                );
            }
            let shard = self.shard_of(a.tenant);
            self.controllers[shard].enqueue_arrival(&a, now);
        }
        let queued = self.queued_total();
        self.peak_queued = self.peak_queued.max(queued);
        // Per-shard queue depths, keyed by shard index in the node
        // label (the admission plane has no node of its own).
        if metrics::is_enabled() {
            for (s, c) in self.controllers.iter().enumerate() {
                let depth = c.queued() as i64;
                if self.last_queue_depth[s] != depth {
                    self.last_queue_depth[s] = depth;
                    metrics::gauge_set(
                        Some(NodeId(s as u32)),
                        metrics::Metric::ServeQueueDepth,
                        now,
                        depth,
                    );
                }
            }
        }
    }

    /// Accounts and traces every shed decision the controller recorded
    /// (at enqueue or at pop) since the last drain.
    fn drain_sheds(&mut self) {
        let sheds: Vec<_> = self
            .controllers
            .iter_mut()
            .flat_map(|c| c.take_shed())
            .collect();
        for s in sheds {
            let slo = self.slos.entry(s.tenant).or_default();
            match s.reason {
                ShedReason::DeadlineExpired => slo.shed_deadline += 1,
                ShedReason::QueueFull => slo.shed_queue += 1,
                ShedReason::RetryBudget => slo.shed_retry += 1,
            }
            if tracer::is_enabled() {
                tracer::emit(
                    None,
                    None,
                    s.at,
                    SimDuration::ZERO,
                    tracer::TraceData::Shed {
                        tenant: s.tenant,
                        reason: s.reason.label(),
                    },
                );
            }
            if metrics::is_enabled() {
                let m = match s.reason {
                    ShedReason::DeadlineExpired => metrics::Metric::ServeShedDeadline,
                    ShedReason::QueueFull => metrics::Metric::ServeShedQueueFull,
                    ShedReason::RetryBudget => metrics::Metric::ServeShedRetryBudget,
                };
                metrics::counter_add(None, m, s.at, 1);
            }
        }
    }

    /// Starts an admitted job on `targets` under a fresh scope and
    /// records it as active on admission shard `shard`. Returns its
    /// queue wait in nanoseconds, measured from the latest enqueue, so
    /// a retry's sample is its genuine re-queueing delay, not the
    /// failed execution that preceded it.
    fn launch(&mut self, job: QueuedJob, shard: usize, targets: &[NodeId], now: SimTime) -> u64 {
        let scope = self.next_scope;
        self.next_scope += 1;
        let mut driver = build_driver(
            job.kind,
            self.cfg.engine,
            scope,
            job.dataset_seed,
            targets,
            &mut self.cluster,
        );
        let wait = now.since(job.enqueued).as_nanos();
        if tracer::is_enabled() {
            tracer::emit(
                None,
                Some(scope),
                now,
                SimDuration::ZERO,
                tracer::TraceData::Admitted {
                    tenant: job.tenant,
                    wait_ns: wait,
                },
            );
        }
        metrics::counter_add(None, metrics::Metric::ServeAdmitted, now, 1);
        let failure = driver.start(&mut self.cluster).err();
        self.active.push(ActiveJob {
            driver,
            queued: job,
            failure,
            shard,
        });
        wait
    }

    /// Fills free slots per the admission policy: every shard's
    /// controller drains its queue in shard order, against a view of the
    /// shard frozen at round start. `max_active` and the brownout cap
    /// bound each shard, and the memory gate reads the shard's node
    /// slice. Brownout tightens the loop two ways: the active ceiling
    /// drops to the brownout cap, and the memory-aware gate sees a
    /// standing `REDUCE` signal.
    ///
    /// The frozen view is the view a re-read after every launch would
    /// give: `start` charges no heap (ITask offers its partitions
    /// serialized to disk, regular only spawns threads), and a job that
    /// has just started signals `Steady`. The one input a launch moves
    /// is the shard's active count, which the loop tracks.
    fn admit(&mut self, now: SimTime) {
        let shards = self.controllers.len();
        let brownout_cap = self
            .cfg
            .overload
            .brownout
            .filter(|_| self.brownout.active())
            .map(|b| b.max_active);
        // Per-shard frozen inputs: active jobs, REDUCE signals, and the
        // shard's own min-free-heap ratio.
        let mut base_active = vec![0usize; shards];
        let mut reduce = vec![self.brownout.active(); shards];
        for j in &self.active {
            base_active[j.shard] += 1;
            if j.driver.memory_signal() == MemSignal::Reduce {
                reduce[j.shard] = true;
            }
        }
        let free: Vec<f64> = (0..shards)
            .map(|s| self.cluster.min_free_heap_ratio_of(&self.shard_nodes[s]))
            .collect();
        for s in 0..shards {
            for admitted in 0.. {
                let active = base_active[s] + admitted;
                if brownout_cap.is_some_and(|cap| active >= cap) {
                    break;
                }
                let view = ClusterView {
                    active,
                    min_free_ratio: free[s],
                    any_reduce_signal: reduce[s],
                    now,
                };
                let Some(job) = self.controllers[s].next(view) else {
                    break;
                };
                let targets = self.schedulable_nodes(s);
                let wait = self.launch(job, s, &targets, now);
                self.shard_queue_wait[s].insert(wait);
            }
        }
    }

    /// The shard's live, unquarantined nodes — where a new job's inputs
    /// land. When crashes or quarantine have emptied the shard's slice
    /// it falls back to every live unquarantined node, then to every
    /// live node: work conservation beats strict shard affinity and a
    /// perfect quarantine.
    fn schedulable_nodes(&self, shard: usize) -> Vec<NodeId> {
        let live = self.cluster.live_nodes();
        let healthy = |n: &NodeId| !self.breakers[n.as_usize()].quarantined();
        let own: Vec<NodeId> = self.shard_nodes[shard]
            .iter()
            .copied()
            .filter(|n| live.contains(n) && healthy(n))
            .collect();
        if !own.is_empty() {
            return own;
        }
        let any: Vec<NodeId> = live.iter().copied().filter(healthy).collect();
        if any.is_empty() {
            live
        } else {
            any
        }
    }

    /// Advances every healthy active job's control plane once.
    fn pump(&mut self) {
        for job in &mut self.active {
            if job.failure.is_some() {
                continue;
            }
            match job.driver.pump(&mut self.cluster) {
                Ok(_done) => {}
                Err(e) => job.failure = Some(e),
            }
        }
    }

    /// Runs one scheduling round on every live node and maps thread
    /// failures back to their owning jobs via allocation scopes.
    fn step_data_plane(&mut self) {
        // Every node's round commits (no fail-fast): a thread failure
        // only fails its owning job, never the round. Crash polling
        // happens in [`Self::handle_crashes`] *after* the barrier.
        let mut nodes = Vec::with_capacity(self.cluster.node_count());
        for n in 0..self.cluster.node_count() {
            let node = NodeId(n as u32);
            if !self.cluster.sim(node).is_crashed() {
                nodes.push(node);
            }
        }
        if nodes.is_empty() {
            return;
        }
        let run = run_round(&mut self.cluster, &nodes, false);
        for (node, report) in run.reports {
            let n = node.as_usize();
            for (tid, err) in report.failed {
                if err.is_oom() {
                    // Charged to the node for the storm breaker, on top
                    // of the per-tenant SLO charge at settle.
                    self.oom_round[n] += 1;
                }
                let scope = self.cluster.sim(node).thread_scope(tid);
                if let Some(scope) = scope {
                    if let Some(job) = self
                        .active
                        .iter_mut()
                        .find(|j| j.driver.scope() == scope && j.failure.is_none())
                    {
                        job.failure = Some(err);
                    }
                }
            }
        }
    }

    /// Fires due crashes (the scheduler salvages the dead node's ITask
    /// workers through their interrupt path as it fires), then lets
    /// every job react (re-home or fail).
    ///
    /// Jobs are notified on the crash *transition*, never on what was
    /// salvaged: a node can die with zero live threads (e.g. a job
    /// between `enter_reduce` offering partitions and the next pump
    /// spawning workers) and its queued state must still be re-homed —
    /// otherwise the job would quiesce over the survivors alone and
    /// settle as completed with partial output.
    fn handle_crashes(&mut self) {
        for n in 0..self.cluster.node_count() {
            let node = NodeId(n as u32);
            let was_crashed = self.cluster.sim(node).is_crashed();
            // Salvage is best-effort; jobs that lost state will fail on
            // their own and retry.
            let _ = self.cluster.poll_crash(node);
            if was_crashed || !self.cluster.sim(node).is_crashed() {
                // No crash fired this round.
                continue;
            }
            for job in &mut self.active {
                if job.failure.is_some() {
                    continue;
                }
                if let Err(e) = job.driver.on_node_crash(&mut self.cluster, node) {
                    job.failure = Some(e);
                }
            }
        }
    }

    /// Advances the overload controls one round: scores each node's
    /// OME/GC storm into its circuit breaker (quarantining, draining,
    /// and probing nodes as breakers transition) and walks the
    /// cluster-wide brownout state machine (deflating active ITask jobs
    /// while pressure is sustained). No-op unless armed in the config.
    fn update_overload(&mut self) {
        let now = SimTime::ZERO + self.cluster.elapsed();
        if let Some(bcfg) = self.cfg.overload.breaker {
            // Pass 1: this round's storm score per node, plus each
            // node's effective windowed score for outlier detection.
            let mut scores = vec![0u64; self.cluster.node_count()];
            let mut effective = vec![0u64; self.cluster.node_count()];
            let mut live_scores = Vec::new();
            for n in 0..self.cluster.node_count() {
                let node = NodeId(n as u32);
                let omes = std::mem::take(&mut self.oom_round[n]);
                if self.cluster.sim(node).is_crashed() {
                    continue;
                }
                let stats = self.cluster.sim(node).node().heap.stats();
                let (minor, full, useless) =
                    (stats.minor_count, stats.full_count, stats.useless_count);
                let seen = &mut self.gc_seen[n];
                let d_full = full.saturating_sub(seen.1);
                let d_useless = useless.saturating_sub(seen.2);
                *seen = (minor, full, useless);
                if omes + d_full + d_useless > 0 {
                    if tracer::is_enabled() {
                        let id = tracer::emit(
                            Some(node),
                            None,
                            now,
                            SimDuration::ZERO,
                            tracer::TraceData::Storm {
                                omes,
                                full_gcs: d_full,
                                useless_gcs: d_useless,
                            },
                        );
                        if id.is_some() {
                            self.last_storm[n] = id;
                            self.last_storm_any = id;
                        }
                    }
                    scores[n] = Breaker::score(omes, d_full, d_useless);
                }
                effective[n] = self.breakers[n].windowed_score(now) + scores[n];
                live_scores.push(effective[n]);
            }
            // Quarantine shifts load off a sick node onto its peers,
            // which only helps while the peers are actually healthier.
            // A node is only *charged* when it is a clear outlier —
            // its windowed score at least twice the live-cluster median
            // — so a skewed storm trips its breaker while a uniform,
            // cluster-wide storm (brownout's job) charges nobody.
            live_scores.sort_unstable();
            let median = live_scores.get(live_scores.len() / 2).copied().unwrap_or(0);
            // Pass 2: charge outlier samples and step each machine.
            for n in 0..self.cluster.node_count() {
                let node = NodeId(n as u32);
                if self.cluster.sim(node).is_crashed() {
                    continue;
                }
                if scores[n] > 0 && effective[n] >= median.saturating_mul(2) {
                    self.breakers[n].record(now, scores[n]);
                }
                let Some(transition) = self.breakers[n].step(&bcfg, now) else {
                    continue;
                };
                if tracer::is_enabled() {
                    tracer::emit(
                        Some(node),
                        None,
                        now,
                        SimDuration::ZERO,
                        tracer::TraceData::Breaker {
                            state: transition.label(),
                            cause: self.last_storm[n],
                        },
                    );
                }
                if metrics::is_enabled() {
                    // closed=0, half-open=1, open=2 (higher = sicker).
                    let level = match transition {
                        BreakerTransition::Closed => 0,
                        BreakerTransition::HalfOpened => 1,
                        BreakerTransition::Opened => 2,
                    };
                    metrics::gauge_set(Some(node), metrics::Metric::ServeBreakerState, now, level);
                }
                if transition == BreakerTransition::Opened {
                    self.quarantines += 1;
                    // Drain: evacuate the node's queued partitions
                    // onto healthy peers through the same re-homing
                    // path a crash would use — but the node stays
                    // alive, so it pushes its own bytes.
                    let targets: Vec<NodeId> = self
                        .cluster
                        .live_nodes()
                        .into_iter()
                        .filter(|&m| m != node && !self.breakers[m.as_usize()].quarantined())
                        .collect();
                    if !targets.is_empty() {
                        for job in &mut self.active {
                            if job.failure.is_some() {
                                continue;
                            }
                            if let Err(e) = job.driver.drain_node(&mut self.cluster, node, &targets)
                            {
                                job.failure = Some(e);
                            }
                        }
                    }
                }
            }
        }
        if self.cfg.overload.brownout.is_some() {
            let ratio = self.cluster.min_free_heap_ratio();
            let (entered, exited) = self.brownout.observe(ratio, now);
            if entered {
                metrics::gauge_set(None, metrics::Metric::ServeBrownout, now, 1);
            }
            if self.brownout.active() {
                self.brownout_rounds += 1;
            }
            if entered {
                // Proactive deflation on the entry edge: force every
                // active ITask job's controllers into REDUCE before the
                // full-GC cliff. Once deflated, the tightened admission
                // gate keeps pressure falling — re-deflating every
                // round would only thrash the spill path.
                for job in &mut self.active {
                    if job.failure.is_none() {
                        job.driver.deflate();
                    }
                }
            }
            if let Some((since, rounds)) = exited {
                metrics::gauge_set(None, metrics::Metric::ServeBrownout, now, 0);
                if tracer::is_enabled() {
                    tracer::emit(
                        None,
                        None,
                        since,
                        now.since(since),
                        tracer::TraceData::Brownout {
                            rounds,
                            cause: self.last_storm_any,
                        },
                    );
                }
            }
        }
    }

    /// Retires completed and failed jobs: SLO accounting, teardown,
    /// retry or charge.
    fn settle_jobs(&mut self) {
        let now = SimTime::ZERO + self.cluster.elapsed();
        let mut i = 0;
        while i < self.active.len() {
            let done = self.active[i].driver.output_count().is_some();
            let failed = self.active[i].failure.is_some();
            if !done && !failed {
                i += 1;
                continue;
            }
            let mut job = self.active.swap_remove(i);
            // Weighted-fair charges what the job itself consumed — the
            // per-scope CPU time the schedulers metered — not its
            // wall-clock residency, which would also bill the tenant
            // for rounds spent co-resident with heavy neighbors.
            let mut busy = SimDuration::ZERO;
            for n in 0..self.cluster.node_count() {
                busy += self
                    .cluster
                    .sim(NodeId(n as u32))
                    .take_scope_cpu(job.driver.scope());
            }
            job.driver.teardown(&mut self.cluster);
            let shard = self.shard_of(job.queued.tenant);
            self.controllers[shard].credit_served(job.queued.tenant, busy.as_nanos());
            let slo = self.slos.entry(job.queued.tenant).or_default();
            if done {
                slo.completed += 1;
                let latency = now.since(job.queued.arrived).as_nanos();
                self.shard_latency[job.shard].insert(latency);
                if tracer::is_enabled() {
                    tracer::emit(
                        None,
                        Some(job.driver.scope()),
                        now,
                        SimDuration::ZERO,
                        tracer::TraceData::JobCompleted {
                            tenant: job.queued.tenant,
                            latency_ns: latency,
                        },
                    );
                }
                metrics::counter_add(None, metrics::Metric::ServeCompleted, now, 1);
                metrics::observe(None, metrics::Metric::ServeLatencyNs, now, latency);
                self.total_outputs += job.driver.output_count().unwrap_or(0);
            } else {
                let err = job.failure.expect("failed checked");
                let oom = err.is_oom();
                if oom {
                    slo.omes += 1;
                }
                // Classification picks the attempt ceiling (transient
                // substrate faults earn more attempts than deterministic
                // OMEs), then the tenant's token bucket gets a veto:
                // an empty bucket sheds the job fast rather than letting
                // a retry storm starve first-attempt traffic.
                let class = classify(&err);
                let policy = self.cfg.retry;
                let mut retry = job.queued.retries < policy.max_for(class);
                let mut budget_denied = false;
                if retry {
                    if let Some(budget) = policy.budget {
                        let bucket = self
                            .retry_buckets
                            .entry(job.queued.tenant)
                            .or_insert_with(|| TokenBucket::new(&budget, SimTime::ZERO));
                        if !bucket.try_take(&budget, now) {
                            retry = false;
                            budget_denied = true;
                        }
                    }
                }
                if tracer::is_enabled() {
                    tracer::emit(
                        None,
                        Some(job.driver.scope()),
                        now,
                        SimDuration::ZERO,
                        tracer::TraceData::JobFailed {
                            tenant: job.queued.tenant,
                            oom,
                            retry,
                        },
                    );
                }
                if retry {
                    slo.retries += 1;
                    let attempt = job.queued.retries + 1;
                    let delay =
                        policy.backoff(self.cfg.seed, job.queued.tenant, job.queued.seq, attempt);
                    self.controllers[shard].requeue_after(job.queued, now, delay);
                } else if budget_denied {
                    // Shed, not failed: the job ends here exactly once.
                    slo.shed_retry += 1;
                    metrics::counter_add(None, metrics::Metric::ServeShedRetryBudget, now, 1);
                    if tracer::is_enabled() {
                        tracer::emit(
                            None,
                            None,
                            now,
                            SimDuration::ZERO,
                            tracer::TraceData::Shed {
                                tenant: job.queued.tenant,
                                reason: ShedReason::RetryBudget.label(),
                            },
                        );
                    }
                } else {
                    slo.failed += 1;
                    metrics::counter_add(None, metrics::Metric::ServeFailed, now, 1);
                }
            }
        }
        // A refilled bucket is indistinguishable from a fresh one
        // (refills advance on the ZERO-anchored grid even while
        // capped), so full buckets can be dropped: the retry-bucket map
        // stays O(tenants retrying recently), not O(all tenants ever),
        // under million-tenant churn.
        if let Some(budget) = self.cfg.retry.budget {
            self.retry_buckets
                .retain(|_, b| b.balance(&budget, now) < budget.capacity);
        }
    }
}

/// Builds the typed driver for a job kind (each kind pins a different
/// `AggSpec`, so the match is where the types are erased). Inputs land
/// round-robin on `targets` (live minus quarantined nodes); an empty
/// slice falls back to every live node.
fn build_driver(
    kind: JobKind,
    engine: EngineKind,
    scope: u64,
    dataset_seed: u64,
    targets: &[NodeId],
    cluster: &mut Cluster,
) -> Box<dyn JobDriver> {
    let blocks = dataset_blocks(kind, dataset_seed, BLOCK_SIZE);
    let live = if targets.is_empty() {
        cluster.live_nodes()
    } else {
        targets.to_vec()
    };
    let mut inputs: Vec<Vec<Vec<workloads::webmap::AdjRecord>>> =
        (0..cluster.node_count()).map(|_| Vec::new()).collect();
    if !live.is_empty() {
        for (i, block) in blocks.into_iter().enumerate() {
            inputs[live[i % live.len()].as_usize()].push(block);
        }
    }
    match kind {
        JobKind::DegreeCount => Box::new(ServiceJob::new(
            JobKind::degree_count_query(),
            engine,
            scope,
            inputs,
        )),
        JobKind::WordCount => Box::new(ServiceJob::new(
            apps::hyracks_apps::wc::WcSpec,
            engine,
            scope,
            inputs,
        )),
        JobKind::LinkCollect => Box::new(ServiceJob::new(
            JobKind::link_collect_query(),
            engine,
            scope,
            inputs,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service with no arrivals of its own, so tests can inject jobs
    /// at precise points in the round.
    fn empty_service(engine: EngineKind, fault_plan: Option<FaultPlan>) -> Service {
        let mut cfg = ServiceConfig::standard(engine, 1, 1);
        cfg.tenants.clear();
        cfg.fault_plan = fault_plan;
        Service::new(cfg)
    }

    /// One job of `kind`, as a controller hands it to `launch`.
    fn queued(kind: JobKind, dataset_seed: u64) -> QueuedJob {
        let mut ctl = AdmissionController::with_weight_rule(
            AdmissionConfig::default(),
            WeightRule::uniform(),
        );
        ctl.enqueue_arrival(
            &Arrival {
                at: SimTime::ZERO,
                tenant: 0,
                seq: 0,
                kind,
                dataset_seed,
                deadline: None,
            },
            SimTime::ZERO,
        );
        ctl.next(ClusterView {
            active: 0,
            min_free_ratio: 1.0,
            any_reduce_signal: false,
            now: SimTime::ZERO,
        })
        .expect("queued job")
    }

    /// Builds a driver for one injected job and registers it active,
    /// without starting it.
    fn inject(svc: &mut Service, engine: EngineKind) {
        let job = queued(JobKind::DegreeCount, 77);
        let driver = build_driver(job.kind, engine, 1, job.dataset_seed, &[], &mut svc.cluster);
        svc.active.push(ActiveJob {
            driver,
            queued: job,
            failure: None,
            shard: 0,
        });
    }

    /// Launching a job leaves the memory gate's inputs where they were:
    /// the tightest free-heap ratio does not move, and the new job
    /// signals no `REDUCE`. That is why a shard's view frozen at round
    /// start equals one re-read after every launch. Checked on an idle
    /// cluster and on heaps the earlier jobs are already charging.
    #[test]
    fn launch_leaves_the_gate_inputs_unchanged() {
        for engine in [EngineKind::Regular, EngineKind::Itask] {
            let mut svc = empty_service(engine, None);
            let mut charged = false;
            for seed in 0..3 {
                let before = svc.cluster.min_free_heap_ratio();
                charged |= before < 1.0;
                let now = SimTime::ZERO + svc.cluster.elapsed();
                let targets = svc.schedulable_nodes(0);
                svc.launch(queued(JobKind::LinkCollect, seed), 0, &targets, now);
                let label = engine.label();
                assert_eq!(svc.cluster.min_free_heap_ratio(), before, "{label} #{seed}");
                let job = svc.active.last().expect("launched");
                assert!(job.failure.is_none(), "{label} #{seed}: {:?}", job.failure);
                assert_ne!(job.driver.memory_signal(), MemSignal::Reduce, "{label}");
                for _ in 0..3 {
                    svc.pump();
                    svc.step_data_plane();
                }
            }
            assert!(charged, "{}: no launch met a charged heap", engine.label());
        }
    }

    /// A crash must be reported to every active job even when the dead
    /// node had zero live threads (empty salvage): regular jobs have no
    /// recovery plane and die with `NodeLost`.
    #[test]
    fn crash_with_zero_live_threads_still_fails_regular_jobs() {
        let plan = FaultPlan::new(0).with_crash(NodeId(1), SimTime::ZERO);
        let mut svc = empty_service(EngineKind::Regular, Some(plan));
        inject(&mut svc, EngineKind::Regular);
        // The job has not started: no threads anywhere, so the crash
        // salvages nothing — and must be reported regardless.
        svc.handle_crashes();
        assert!(
            matches!(
                svc.active[0].failure,
                Some(SimError::NodeLost { node: NodeId(1) })
            ),
            "crash with empty salvage not reported: {:?}",
            svc.active[0].failure
        );
    }

    /// An ITask job whose state on the dead node is *only* queued
    /// partitions (offered, workers not yet spawned) must re-home them
    /// and still produce the full answer — not settle as completed with
    /// the dead node's share of the output silently missing.
    #[test]
    fn itask_queued_only_state_is_rehomed_on_crash() {
        let run = |crash: bool| {
            let plan = crash.then(|| FaultPlan::new(0).with_crash(NodeId(1), SimTime::ZERO));
            let mut svc = empty_service(EngineKind::Itask, plan);
            inject(&mut svc, EngineKind::Itask);
            svc.active[0]
                .driver
                .start(&mut svc.cluster)
                .expect("start offers partitions");
            // Fire the crash before any pump: the dead node holds only
            // queued partitions and zero live threads.
            svc.handle_crashes();
            assert!(
                svc.active[0].failure.is_none(),
                "itask job must survive: {:?}",
                svc.active[0].failure
            );
            for _ in 0..200_000 {
                if svc.active.is_empty() {
                    break;
                }
                svc.pump();
                svc.step_data_plane();
                svc.handle_crashes();
                svc.settle_jobs();
            }
            assert_eq!(svc.slos[&0].completed, 1, "job must settle as completed");
            svc.total_outputs
        };
        let with_crash = run(true);
        let without = run(false);
        assert!(without > 0);
        assert_eq!(with_crash, without, "crash run lost partitions");
    }

    /// The retry-bucket map must not accumulate one entry per tenant
    /// that ever retried: once a bucket refills to capacity it is
    /// indistinguishable from a fresh one and settle drops it.
    #[test]
    fn retry_buckets_prune_once_refilled() {
        let mut svc = empty_service(EngineKind::Itask, None);
        svc.cfg.retry = RetryPolicy::budgeted();
        let budget = svc.cfg.retry.budget.expect("budgeted policy has budget");
        for t in 0..1000u32 {
            let mut b = TokenBucket::new(&budget, SimTime::ZERO);
            assert!(b.try_take(&budget, SimTime::ZERO));
            svc.retry_buckets.insert(t, b);
        }
        svc.settle_jobs();
        assert_eq!(
            svc.retry_buckets.len(),
            1000,
            "spent buckets must be retained"
        );
        // One full refill interval per missing token later, every
        // bucket is back at capacity and must be dropped.
        svc.cluster
            .advance_clocks_to(SimTime::ZERO + SimDuration::from_secs(1));
        svc.settle_jobs();
        assert!(
            svc.retry_buckets.is_empty(),
            "refilled buckets must be pruned, {} left",
            svc.retry_buckets.len()
        );
    }

    /// Scale mode end to end on a small population: the run completes,
    /// jobs finish, and the whole report is reproducible.
    #[test]
    fn scale_mode_runs_and_is_deterministic() {
        use crate::workload::{LoadShape, TenantModel};
        let run = || {
            let mut cfg = ServiceConfig::standard(EngineKind::Itask, 0, 7);
            cfg.horizon = SimDuration::from_millis(10);
            cfg.admission.max_active = 2;
            let mut model = TenantModel::uniform(1000, SimDuration::from_micros(400));
            model.shape = LoadShape::Steady;
            cfg.scale = Some(ScaleSpec {
                model,
                admission_shards: 2,
            });
            let report = Service::new(cfg).run();
            (
                report.summary_cells(),
                report.total_shed(),
                report.peak_queued,
                report.total(|t| t.submitted),
                report.total_outputs,
            )
        };
        let a = run();
        assert!(a.3 > 0, "lazy stream produced no arrivals");
        assert!(!a.0[0].starts_with("0/"), "no jobs completed: {:?}", a.0);
        let b = run();
        assert_eq!(a, b, "scale mode must be deterministic");
    }
}
