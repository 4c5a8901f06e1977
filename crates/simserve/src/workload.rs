//! Tenants, job kinds, and the seeded open-loop client generator.
//!
//! Each tenant submits a stream of jobs from a weighted mix of three
//! kinds spanning the repo's front ends — a planner fold query (light),
//! the Hyracks WC application spec (medium), and a planner collect
//! query whose reduce-side adjacency lists are the memory hog (heavy,
//! the service-scale cousin of the paper's II/GR problems). All three
//! compile to the same two-phase [`apps::AggSpec`] shape over webmap
//! adjacency records, so one generic driver executes any of them on
//! either engine.

use planner::{CollectQuery, FoldQuery, Query};
use simcore::{ByteSize, DetRng, KeyMap, SimDuration, SimTime};
use workloads::webmap::{AdjRecord, WebmapConfig, WebmapSize};

/// The job catalog: what a client can submit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Planner fold: out-degree histogram (small input, counter state).
    DegreeCount,
    /// Hyracks WC: token counts over the adjacency text (medium).
    WordCount,
    /// Planner collect: in-link lists per target vertex (reduce-side
    /// list state — the co-location memory hog).
    LinkCollect,
}

impl JobKind {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::DegreeCount => "deg",
            JobKind::WordCount => "wc",
            JobKind::LinkCollect => "links",
        }
    }

    /// The generated dataset for one submission of this kind.
    pub fn dataset(self, seed: u64) -> WebmapConfig {
        let (vertices, edges, bytes) = match self {
            JobKind::DegreeCount => (600, 1_800, ByteSize::kib(28)),
            JobKind::WordCount => (1_500, 6_000, ByteSize::kib(90)),
            JobKind::LinkCollect => (3_000, 24_000, ByteSize::kib(360)),
        };
        WebmapConfig {
            size: WebmapSize::G3,
            vertices,
            edges,
            total_bytes: bytes,
            seed,
        }
    }

    /// The planner fold spec for [`JobKind::DegreeCount`].
    pub fn degree_count_query() -> FoldQuery<AdjRecord> {
        Query::<AdjRecord>::named("svc_deg")
            .flat_map(|r, out| out.push((r.neighbors.len() as u64, 1)))
            .count()
    }

    /// The planner collect spec for [`JobKind::LinkCollect`].
    pub fn link_collect_query() -> CollectQuery<AdjRecord> {
        Query::<AdjRecord>::named("svc_links")
            .flat_map(|r, out| {
                for &n in &r.neighbors {
                    out.push((n, r.vertex));
                }
            })
            .collect(|items| items.len() as u64)
    }
}

/// Procedural tenant weights: the weighted-fair share derived from the
/// tenant id alone, so a million-tenant population needs no per-tenant
/// weight table. Every `premium_every`-th tenant (id divisible by it)
/// gets `premium_weight`; everyone else gets weight 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightRule {
    /// Stride of premium tenants; `0` disables the premium tier.
    pub premium_every: u32,
    /// Weighted-fair share for premium tenants.
    pub premium_weight: u64,
}

impl WeightRule {
    /// Every tenant at weight 1.
    pub fn uniform() -> Self {
        WeightRule {
            premium_every: 0,
            premium_weight: 1,
        }
    }

    /// The weighted-fair share for `tenant` (always at least 1).
    pub fn weight_of(self, tenant: u32) -> u64 {
        if self.premium_every > 0 && tenant.is_multiple_of(self.premium_every) {
            self.premium_weight.max(1)
        } else {
            1
        }
    }
}

/// Every tenant's weighted job mix `(kind, weight)`: the light and
/// medium kinds twice as often as the heavy collect.
const MIX: [(JobKind, u32); 3] = [
    (JobKind::DegreeCount, 2),
    (JobKind::WordCount, 2),
    (JobKind::LinkCollect, 1),
];

/// Draws one job kind from [`MIX`].
fn draw_kind(rng: &mut DetRng) -> JobKind {
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.below(total as u64) as u32;
    for (kind, w) in MIX {
        if pick < w {
            return kind;
        }
        pick -= w;
    }
    unreachable!("a pick below the total lands in some kind")
}

/// One tenant's traffic profile. Every tenant weighs 1 in the
/// weighted-fair order and draws its jobs from one fixed 2:2:1 mix of
/// degree counts, word counts and link collects.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant id (also the weighted-fair tie-break).
    pub id: u32,
    /// Mean time between submissions (open loop: arrivals do not wait
    /// for completions).
    pub mean_interarrival: SimDuration,
    /// Relative submit deadline: a job still queued this long after its
    /// arrival is shed instead of run. `None` (the default) disables
    /// deadline shedding for the tenant.
    pub deadline: Option<SimDuration>,
}

impl TenantSpec {
    /// A tenant submitting every `mean_interarrival` on average.
    pub fn uniform(id: u32, mean_interarrival: SimDuration) -> Self {
        TenantSpec {
            id,
            mean_interarrival,
            deadline: None,
        }
    }

    /// The same tenant with a submit deadline armed.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One generated job submission.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Submission instant.
    pub at: SimTime,
    /// Submitting tenant.
    pub tenant: u32,
    /// Per-tenant sequence number.
    pub seq: u32,
    /// What was submitted.
    pub kind: JobKind,
    /// Seed for the job's dataset generator.
    pub dataset_seed: u64,
    /// Absolute submit deadline (`arrival + tenant deadline`), if the
    /// tenant armed one. Derived without consuming RNG draws, so arming
    /// deadlines never perturbs the arrival schedule itself.
    pub deadline: Option<SimTime>,
}

/// Generates every tenant's arrival stream up to `horizon`, merged into
/// one deterministic schedule (sorted by instant, tenant, sequence).
///
/// Interarrival gaps are the tenant's mean scaled by a seeded jitter in
/// `[0.5, 1.5)`; job kinds are drawn from the fixed 2:2:1 mix.
/// Everything derives from `seed` via forked [`DetRng`] streams, so the
/// same `(seed, tenants, horizon)` always yields the same schedule.
pub fn generate_arrivals(seed: u64, tenants: &[TenantSpec], horizon: SimDuration) -> Vec<Arrival> {
    let mut all = Vec::new();
    let mut root = DetRng::new(seed);
    for t in tenants {
        let mut rng = root.fork(t.id as u64 + 1);
        let mut at = SimTime::ZERO;
        let mut seq = 0u32;
        loop {
            let jitter = 500 + rng.below(1_000); // [0.5, 1.5) per mille
            let gap = SimDuration::from_nanos(
                t.mean_interarrival.as_nanos().saturating_mul(jitter) / 1_000,
            );
            at += gap;
            if at.since(SimTime::ZERO) > horizon {
                break;
            }
            let kind = draw_kind(&mut rng);
            all.push(Arrival {
                at,
                tenant: t.id,
                seq,
                kind,
                dataset_seed: simcore::rng::stable_hash64(
                    seed ^ ((t.id as u64) << 32) ^ seq as u64,
                ),
                deadline: t.deadline.map(|d| at + d),
            });
            seq += 1;
        }
    }
    all.sort_by_key(|a| (a.at, a.tenant, a.seq));
    all
}

/// Aggregate load shape for the scale generator: a per-mille rate
/// multiplier as a pure integer function of time since the run start,
/// so the same instant always sees the same rate on any host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadShape {
    /// Constant baseline rate.
    Steady,
    /// Triangle-wave diurnal cycle: the rate climbs from
    /// `1000 - amplitude_pm` per mille to `1000 + amplitude_pm` over
    /// the first half of each `period` and falls back over the second.
    Diurnal {
        /// One full day-night cycle.
        period: SimDuration,
        /// Peak-to-baseline swing in per mille (clamped to 999 so the
        /// rate never reaches zero).
        amplitude_pm: u64,
    },
    /// Square-wave bursts: `mult_pm` per mille for the first
    /// `burst_len` of each `period`, baseline 1000 otherwise.
    Bursty {
        /// Burst repetition interval.
        period: SimDuration,
        /// How long each burst lasts (clamped to the period).
        burst_len: SimDuration,
        /// Rate multiplier inside a burst, in per mille.
        mult_pm: u64,
    },
}

impl LoadShape {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            LoadShape::Steady => "steady",
            LoadShape::Diurnal { .. } => "diurnal",
            LoadShape::Bursty { .. } => "bursty",
        }
    }

    /// The rate multiplier (per mille, always ≥ 1) at `since_start`.
    pub fn multiplier_pm(self, since_start: SimDuration) -> u64 {
        match self {
            LoadShape::Steady => 1_000,
            LoadShape::Diurnal {
                period,
                amplitude_pm,
            } => {
                let p = period.as_nanos();
                let half = p / 2;
                if half == 0 {
                    return 1_000;
                }
                let phase = since_start.as_nanos() % p;
                // Triangle in [0, half]: rises to the half-period peak,
                // falls back down.
                let tri = if phase < half { phase } else { p - phase };
                let amp = amplitude_pm.min(999);
                1_000 - amp + 2 * amp * tri / half
            }
            LoadShape::Bursty {
                period,
                burst_len,
                mult_pm,
            } => {
                let p = period.as_nanos();
                if p == 0 {
                    return 1_000;
                }
                let phase = since_start.as_nanos() % p;
                if phase < burst_len.as_nanos() {
                    mult_pm.max(1)
                } else {
                    1_000
                }
            }
        }
    }
}

/// A whole tenant population described in O(1) state: the scale-mode
/// counterpart of a `Vec<TenantSpec>`. Arrivals are drawn from one
/// aggregate open-loop process and assigned to uniformly random tenant
/// ids, so describing 10^6 tenants costs a few words — per-tenant state
/// exists only for tenants that actually submit.
#[derive(Clone, Debug)]
pub struct TenantModel {
    /// Number of addressable tenants (ids `0..population`).
    pub population: u32,
    /// Mean gap between aggregate arrivals (across the population) at
    /// the baseline rate. The per-tenant mean is `population` times
    /// this.
    pub mean_gap: SimDuration,
    /// Time-varying rate modulation.
    pub shape: LoadShape,
    /// Relative submit deadline applied to every arrival, if armed.
    pub deadline: Option<SimDuration>,
    /// Procedural weighted-fair shares.
    pub weights: WeightRule,
}

impl TenantModel {
    /// A uniform population: equal weights, no deadlines, steady rate
    /// (every tenant draws from the fixed 2:2:1 job mix).
    pub fn uniform(population: u32, mean_gap: SimDuration) -> Self {
        TenantModel {
            population,
            mean_gap,
            shape: LoadShape::Steady,
            deadline: None,
            weights: WeightRule::uniform(),
        }
    }
}

/// Lazy open-loop arrival stream over a [`TenantModel`]: synthesizes
/// the next arrival on demand instead of materialising the whole
/// schedule, so horizon and population scale independently of memory.
///
/// Gaps are the model's mean scaled by seeded jitter in `[0.5, 1.5)`
/// and divided by the shape's rate multiplier; tenants are drawn
/// uniformly from the population. Everything derives from `seed` via
/// one [`DetRng`] stream, so the same `(seed, model, horizon)` always
/// yields the same arrival sequence — and because arrivals are drawn
/// from a single aggregate process they are emitted already in
/// nondecreasing time order.
///
/// The only per-tenant state is a sequence number per tenant that has
/// submitted, in a [`KeyMap`]: one multiply-hash lookup per arrival
/// instead of SipHash, read strictly by key.
pub struct ArrivalGen {
    rng: DetRng,
    model: TenantModel,
    horizon: SimDuration,
    seed: u64,
    at: SimTime,
    /// Next per-tenant sequence number, allocated on a tenant's first
    /// arrival only. Accessed strictly by key (never iterated), so the
    /// hash map's order cannot leak into the schedule.
    seqs: KeyMap<u32, u32>,
    done: bool,
}

impl ArrivalGen {
    /// Creates the stream; no per-tenant work happens here.
    pub fn new(seed: u64, model: TenantModel, horizon: SimDuration) -> Self {
        assert!(model.population > 0, "empty tenant population");
        ArrivalGen {
            rng: DetRng::new(seed),
            model,
            horizon,
            seed,
            at: SimTime::ZERO,
            seqs: KeyMap::default(),
            done: false,
        }
    }

    /// Tenants that have submitted at least once (the only per-tenant
    /// state the generator holds).
    pub fn touched_tenants(&self) -> usize {
        self.seqs.len()
    }

    /// Synthesizes the next arrival, or `None` once the horizon is
    /// reached (terminal: the stream never resumes).
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        let jitter = 500 + self.rng.below(1_000); // [0.5, 1.5) per mille
        let base = self.model.mean_gap.as_nanos().saturating_mul(jitter) / 1_000;
        let mult = self
            .model
            .shape
            .multiplier_pm(self.at.since(SimTime::ZERO))
            .max(1);
        let gap = (base.saturating_mul(1_000) / mult).max(1);
        self.at += SimDuration::from_nanos(gap);
        if self.at.since(SimTime::ZERO) > self.horizon {
            self.done = true;
            return None;
        }
        let tenant = self.rng.below(self.model.population as u64) as u32;
        let kind = draw_kind(&mut self.rng);
        let slot = self.seqs.entry(tenant).or_insert(0);
        let seq = *slot;
        *slot += 1;
        Some(Arrival {
            at: self.at,
            tenant,
            seq,
            kind,
            dataset_seed: simcore::rng::stable_hash64(
                self.seed ^ ((tenant as u64) << 32) ^ seq as u64,
            ),
            deadline: self.model.deadline.map(|d| self.at + d),
        })
    }
}

impl Iterator for ArrivalGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.next_arrival()
    }
}

/// Generator blocks for one arrival's dataset.
pub fn dataset_blocks(
    kind: JobKind,
    dataset_seed: u64,
    block_size: ByteSize,
) -> Vec<Vec<AdjRecord>> {
    let cfg = kind.dataset(dataset_seed);
    (0..cfg.num_blocks(block_size))
        .map(|b| cfg.block(b, block_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants(n: u32) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::uniform(i, SimDuration::from_millis(200)))
            .collect()
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = generate_arrivals(42, &tenants(3), SimDuration::from_secs(2));
        let b = generate_arrivals(42, &tenants(3), SimDuration::from_secs(2));
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.at, x.tenant, x.seq, x.kind),
                (y.at, y.tenant, y.seq, y.kind)
            );
            assert_eq!(x.dataset_seed, y.dataset_seed);
        }
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_arrivals(1, &tenants(2), SimDuration::from_secs(2));
        let b = generate_arrivals(2, &tenants(2), SimDuration::from_secs(2));
        let times_a: Vec<_> = a.iter().map(|x| x.at).collect();
        let times_b: Vec<_> = b.iter().map(|x| x.at).collect();
        assert_ne!(times_a, times_b);
    }

    #[test]
    fn mix_covers_every_kind_over_time() {
        let a = generate_arrivals(7, &tenants(4), SimDuration::from_secs(10));
        for kind in [
            JobKind::DegreeCount,
            JobKind::WordCount,
            JobKind::LinkCollect,
        ] {
            assert!(a.iter().any(|x| x.kind == kind), "{kind:?} never generated");
        }
    }

    #[test]
    fn deadlines_do_not_perturb_the_schedule() {
        let plain = generate_arrivals(42, &tenants(3), SimDuration::from_secs(2));
        let armed: Vec<TenantSpec> = tenants(3)
            .into_iter()
            .map(|t| t.with_deadline(SimDuration::from_millis(7)))
            .collect();
        let with = generate_arrivals(42, &armed, SimDuration::from_secs(2));
        assert_eq!(plain.len(), with.len());
        for (p, w) in plain.iter().zip(&with) {
            assert_eq!(
                (p.at, p.tenant, p.seq, p.kind),
                (w.at, w.tenant, w.seq, w.kind)
            );
            assert_eq!(p.dataset_seed, w.dataset_seed);
            assert_eq!(p.deadline, None);
            assert_eq!(w.deadline, Some(w.at + SimDuration::from_millis(7)));
        }
    }

    #[test]
    fn lazy_stream_is_deterministic_sorted_and_seq_numbered() {
        let model = TenantModel::uniform(1_000, SimDuration::from_micros(50));
        let drain = |seed: u64| {
            let mut g = ArrivalGen::new(seed, model.clone(), SimDuration::from_millis(20));
            let mut out = Vec::new();
            while let Some(a) = g.next_arrival() {
                out.push(a);
            }
            assert!(g.next_arrival().is_none(), "horizon exhaustion is terminal");
            out
        };
        let a = drain(42);
        let b = drain(42);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.at, x.tenant, x.seq, x.kind, x.dataset_seed),
                (y.at, y.tenant, y.seq, y.kind, y.dataset_seed)
            );
        }
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
        // Per-tenant seqs count up densely from 0.
        let mut next = std::collections::HashMap::new();
        for x in &a {
            let slot = next.entry(x.tenant).or_insert(0u32);
            assert_eq!(x.seq, *slot);
            *slot += 1;
        }
        let c = drain(7);
        assert_ne!(
            a.iter().map(|x| x.at).collect::<Vec<_>>(),
            c.iter().map(|x| x.at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lazy_stream_allocates_no_tenant_state_up_front() {
        // A million-tenant model is a few words until arrivals draw
        // tenants; per-tenant state appears only for touched tenants.
        let model = TenantModel::uniform(1_000_000, SimDuration::from_micros(10));
        let mut g = ArrivalGen::new(42, model, SimDuration::from_secs(3_600));
        assert_eq!(g.touched_tenants(), 0);
        for _ in 0..100 {
            g.next_arrival().expect("horizon is far away");
        }
        assert!(g.touched_tenants() <= 100);
        assert!(g.touched_tenants() > 0);
    }

    #[test]
    fn load_shapes_modulate_the_rate() {
        // Steady is flat.
        assert_eq!(
            LoadShape::Steady.multiplier_pm(SimDuration::from_millis(3)),
            1_000
        );
        // Diurnal: trough at phase 0, peak at half period, back to
        // trough at the period boundary; bounded by the amplitude.
        let d = LoadShape::Diurnal {
            period: SimDuration::from_millis(10),
            amplitude_pm: 600,
        };
        assert_eq!(d.multiplier_pm(SimDuration::ZERO), 400);
        assert_eq!(d.multiplier_pm(SimDuration::from_millis(5)), 1_600);
        assert_eq!(d.multiplier_pm(SimDuration::from_millis(10)), 400);
        for us in 0..10_000u64 {
            let m = d.multiplier_pm(SimDuration::from_micros(us));
            assert!((400..=1_600).contains(&m));
        }
        // Bursty: multiplied inside the burst window, baseline outside.
        let b = LoadShape::Bursty {
            period: SimDuration::from_millis(8),
            burst_len: SimDuration::from_millis(2),
            mult_pm: 4_000,
        };
        assert_eq!(b.multiplier_pm(SimDuration::from_millis(1)), 4_000);
        assert_eq!(b.multiplier_pm(SimDuration::from_millis(5)), 1_000);
        assert_eq!(b.multiplier_pm(SimDuration::from_millis(9)), 4_000);
        // The burst actually densifies arrivals: more land inside burst
        // windows than in equally long off-burst windows.
        let model = TenantModel {
            shape: b,
            ..TenantModel::uniform(10_000, SimDuration::from_micros(40))
        };
        let mut g = ArrivalGen::new(42, model, SimDuration::from_millis(64));
        let (mut in_burst, mut off_burst) = (0u64, 0u64);
        while let Some(a) = g.next_arrival() {
            let phase = a.at.since(SimTime::ZERO).as_nanos() % 8_000_000;
            if phase < 2_000_000 {
                in_burst += 1;
            } else {
                off_burst += 1;
            }
        }
        // Burst windows are 1/4 of the time at 4x the rate: they should
        // hold clearly more than half of all arrivals.
        assert!(in_burst > off_burst, "{in_burst} vs {off_burst}");
    }

    #[test]
    fn datasets_are_small_and_seeded() {
        let blocks = dataset_blocks(JobKind::WordCount, 99, ByteSize::kib(16));
        assert!(!blocks.is_empty());
        let again = dataset_blocks(JobKind::WordCount, 99, ByteSize::kib(16));
        assert_eq!(blocks, again);
        let other = dataset_blocks(JobKind::WordCount, 100, ByteSize::kib(16));
        assert_ne!(blocks, other);
    }
}
