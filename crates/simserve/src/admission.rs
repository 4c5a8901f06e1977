//! Admission control: per-tenant queues plus a pluggable policy that
//! decides which queued job (if any) may start next.
//!
//! The memory-aware policy is the service-layer use of the IRS monitor:
//! before co-locating another job onto shared heaps it consults the
//! cluster's worst free-heap ratio and the active jobs' memory signals,
//! holding admissions while any running job is under `REDUCE` pressure.
//! FIFO and weighted-fair ignore memory entirely and serve as the
//! baselines the service table compares against.
//!
//! Overload controls live at the queue boundary: per-tenant queues are
//! optionally bounded (`queue_cap`), jobs may carry submit deadlines
//! that are enforced both at enqueue and at pop, and backed-off retries
//! park in a delayed set until their release instant. Every job the
//! controller refuses to run is recorded as a [`ShedRecord`] for the
//! service to account and trace; nothing is dropped silently.
//!
//! Pops are O(log n) in the number of queued tenants, and an arrival
//! shed at enqueue costs one hashed lookup. The per-tenant queues and
//! served times live in hashed maps ([`simcore::KeyMap`]), and beside
//! them sits the one ordered index the policy pops by: a FIFO index over each queue's front stamp
//! (FIFO, memory-aware) or a weighted-fair index over exact
//! cross-multiplied virtual time (`FairKey`). Deadlines sit in a
//! min-heap of `(deadline, stamp, tenant)` with lazy deletion: a pop
//! leaves its entry behind, and expiry discards any entry whose stamp
//! is no longer queued. The indexed pops preserve the original linear
//! scans' semantics bit-for-bit (exact rational comparison, lowest
//! tenant id on virtual-time ties, global stamp order for FIFO); the
//! [`mod@reference`] module retains the naive O(n) implementation as the
//! oracle for the equivalence property tests.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use simcore::{KeyMap, SimDuration, SimTime};

use crate::overload::{ShedReason, ShedRecord};
use crate::workload::{Arrival, JobKind, WeightRule};

/// Which admission policy orders and gates the queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Global arrival order; admit whenever a slot is free.
    Fifo,
    /// Pick the tenant with the smallest served-virtual-time
    /// (served busy-nanos divided by weight); admit whenever a slot is
    /// free.
    WeightedFair,
    /// FIFO order, but co-locating beyond one active job additionally
    /// requires every node's free-heap ratio above a floor and no
    /// active job signalling `REDUCE`.
    MemoryAware,
}

impl PolicyKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::WeightedFair => "wfair",
            PolicyKind::MemoryAware => "memaware",
        }
    }
}

/// Admission configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// The ordering/gating policy.
    pub policy: PolicyKind,
    /// Hard cap on concurrently active jobs.
    pub max_active: usize,
    /// Memory-aware floor: co-locate only while the worst node keeps at
    /// least this fraction of its heap effectively free.
    pub min_free_ratio: f64,
    /// Bound on each tenant's queue length; arrivals beyond it are shed
    /// at enqueue. `None` (the default) keeps queues unbounded.
    pub queue_cap: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            policy: PolicyKind::Fifo,
            max_active: 4,
            min_free_ratio: 0.35,
            queue_cap: None,
        }
    }
}

/// One queued submission (an [`Arrival`] plus retry bookkeeping).
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Submitting tenant.
    pub tenant: u32,
    /// Per-tenant sequence number.
    pub seq: u32,
    /// Job kind to build on admission.
    pub kind: JobKind,
    /// Original submission instant (latency is measured from here even
    /// across retries).
    pub arrived: SimTime,
    /// Most recent enqueue instant: the arrival for fresh submissions,
    /// the requeue instant for retries. Queue wait is measured from
    /// here, so a retry's wait does not absorb its prior execution.
    pub enqueued: SimTime,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// How many times this job has already failed and been requeued.
    pub retries: u32,
    /// Absolute submit deadline; the controller sheds the job rather
    /// than pop it once this instant has passed.
    pub deadline: Option<SimTime>,
    /// Global enqueue stamp (FIFO order; retries are stamped afresh so
    /// they rejoin at the back).
    stamp: u64,
}

/// What the policy may inspect about the cluster before admitting.
#[derive(Clone, Copy, Debug)]
pub struct ClusterView {
    /// Number of currently active jobs.
    pub active: usize,
    /// Worst per-node effectively-free heap fraction.
    pub min_free_ratio: f64,
    /// Whether any active job's IRS currently signals `REDUCE`.
    pub any_reduce_signal: bool,
    /// The current virtual instant (deadline enforcement at pop).
    pub now: SimTime,
}

/// Weighted-fair index key: orders tenants by exact virtual time
/// (`served / weight`), ties broken by ascending tenant id.
///
/// Virtual times compare by u128 cross-multiplication —
/// `served_a * weight_b` vs `served_b * weight_a` — so the order is
/// exact: no scaling constant, no integer division to quantize distinct
/// vtimes together. This is the same total order the original linear
/// scan computed with its strict less-than over ascending tenants, so
/// `BTreeSet::first()` on these keys reproduces that scan's pick
/// bit-for-bit.
#[derive(Clone, Copy, Debug)]
struct FairKey {
    served: u64,
    weight: u64,
    tenant: u32,
}

impl Ord for FairKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = (self.served as u128) * (other.weight as u128);
        let rhs = (other.served as u128) * (self.weight as u128);
        lhs.cmp(&rhs).then(self.tenant.cmp(&other.tenant))
    }
}

impl PartialOrd for FairKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Eq must agree with Ord's notion of equality: (1, 2, t) and (2, 4, t)
// are the same virtual time, so a derived field-wise Eq would disagree
// with `cmp` returning `Equal`.
impl PartialEq for FairKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FairKey {}

/// Per-tenant queues plus the policy state.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Non-empty queues only, by tenant. Hashed: read by key, and
    /// [`AdmissionController::queued_tenants`] sorts.
    queues: KeyMap<u32, VecDeque<QueuedJob>>,
    /// Buffers of queues that emptied, handed to the next queue that
    /// opens: at 10^5 tenants nearly every arrival opens a queue and
    /// sheds it again. Never more than the peak number of queues.
    spare: Vec<VecDeque<QueuedJob>>,
    /// Immediately-runnable jobs across all queues (kept in lockstep
    /// with the queues so `queued()` is O(1)).
    queued_count: usize,
    /// FIFO and memory-aware only (empty otherwise): one `(front stamp,
    /// tenant)` entry per non-empty queue. Front tracking, not min
    /// tracking: a released retry can park an older stamp *behind* a
    /// fresher arrival, and FIFO order is defined by queue fronts
    /// exactly as the original scan saw them.
    fifo_index: BTreeSet<(u64, u32)>,
    /// Weighted-fair only (empty otherwise): one [`FairKey`] entry per
    /// non-empty queue, re-keyed whenever the tenant's served time
    /// advances.
    fair_index: BTreeSet<FairKey>,
    /// One `(deadline, stamp, tenant)` entry per deadline-carrying
    /// enqueue, smallest first, held until expiry pops it. Lazy:
    /// popping a job leaves its entry here, and expiry skips entries
    /// whose stamp is no longer queued.
    deadlines: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Backed-off retries parked until their release instant, keyed by
    /// `(release, stamp)` so ties release in stamp order.
    delayed: BTreeMap<(SimTime, u64), QueuedJob>,
    /// Shed decisions since the last [`AdmissionController::take_shed`].
    shed: Vec<ShedRecord>,
    /// Weighted-fair shares, derived from the tenant id.
    weight_rule: WeightRule,
    /// Served busy-nanos per tenant (weighted-fair virtual time).
    served: KeyMap<u32, u64>,
    next_stamp: u64,
}

impl AdmissionController {
    /// Creates a controller whose weights derive procedurally from the
    /// tenant id — no per-tenant table, so a million-tenant population
    /// costs nothing until tenants actually queue.
    pub fn with_weight_rule(cfg: AdmissionConfig, rule: WeightRule) -> Self {
        AdmissionController {
            cfg,
            queues: KeyMap::default(),
            spare: Vec::new(),
            queued_count: 0,
            fifo_index: BTreeSet::new(),
            fair_index: BTreeSet::new(),
            deadlines: BinaryHeap::new(),
            delayed: BTreeMap::new(),
            shed: Vec::new(),
            weight_rule: rule,
            served: KeyMap::default(),
            next_stamp: 0,
        }
    }

    /// The configured policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Total immediately-runnable queued jobs across tenants (excludes
    /// delayed retries still waiting on their release instant). O(1).
    pub fn queued(&self) -> usize {
        self.queued_count
    }

    /// Backed-off retries still parked.
    pub fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// The earliest parked retry's release instant, if any (the service
    /// jumps its clock here when otherwise idle).
    pub fn next_release(&self) -> Option<SimTime> {
        self.delayed.keys().next().map(|&(at, _)| at)
    }

    /// Tenants with at least one immediately-runnable queued job, in
    /// ascending id order. The per-tenant map prunes on every pop/shed
    /// path, so this is exactly the non-empty set — no tombstone
    /// queues.
    pub fn queued_tenants(&self) -> Vec<u32> {
        debug_assert!(
            self.queues.values().all(|q| !q.is_empty()),
            "empty tenant queue left unpruned"
        );
        let (used, unused) = if self.fair() {
            (self.fair_index.len(), self.fifo_index.len())
        } else {
            (self.fifo_index.len(), self.fair_index.len())
        };
        debug_assert_eq!(
            used,
            self.queues.len(),
            "the policy's index must hold exactly one entry per non-empty queue"
        );
        debug_assert_eq!(unused, 0, "the other policy's index stays empty");
        debug_assert_eq!(
            self.queued_count,
            self.queues.values().map(VecDeque::len).sum::<usize>(),
            "queued counter out of lockstep with the queues"
        );
        let mut tenants: Vec<u32> = self.queues.keys().copied().collect();
        tenants.sort_unstable();
        tenants
    }

    /// Drains the shed decisions recorded since the last call.
    pub fn take_shed(&mut self) -> Vec<ShedRecord> {
        std::mem::take(&mut self.shed)
    }

    /// Enqueues a fresh arrival at `now`, unless it must be shed on the
    /// spot: already past its deadline (the service fell far behind the
    /// arrival schedule) or over the tenant's queue bound.
    pub fn enqueue_arrival(&mut self, a: &Arrival, now: SimTime) {
        if a.deadline.is_some_and(|d| d < now) {
            self.shed.push(ShedRecord {
                tenant: a.tenant,
                seq: a.seq,
                reason: ShedReason::DeadlineExpired,
                at: now,
            });
            return;
        }
        if let Some(cap) = self.cfg.queue_cap {
            let len = self.queues.get(&a.tenant).map_or(0, VecDeque::len);
            if len >= cap {
                self.shed.push(ShedRecord {
                    tenant: a.tenant,
                    seq: a.seq,
                    reason: ShedReason::QueueFull,
                    at: now,
                });
                return;
            }
        }
        let job = QueuedJob {
            tenant: a.tenant,
            seq: a.seq,
            kind: a.kind,
            arrived: a.at,
            enqueued: a.at,
            dataset_seed: a.dataset_seed,
            retries: 0,
            deadline: a.deadline,
            stamp: self.next_stamp,
        };
        self.next_stamp += 1;
        self.push_job(job);
    }

    /// Requeues a failed job at the back of its tenant's queue with a
    /// fresh stamp, a fresh enqueue instant (`now`), and an incremented
    /// retry count.
    pub fn requeue(&mut self, mut job: QueuedJob, now: SimTime) {
        job.retries += 1;
        job.enqueued = now;
        job.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.push_job(job);
    }

    /// Parks a failed job until `now + delay` (seeded exponential
    /// backoff), with the same bookkeeping as [`requeue`]: retry count
    /// up, fresh stamp, and the queue-wait clock restarting at the
    /// *release* instant — a backed-off retry's wait measures queueing,
    /// not its own deliberate delay.
    ///
    /// [`requeue`]: AdmissionController::requeue
    pub fn requeue_after(&mut self, mut job: QueuedJob, now: SimTime, delay: SimDuration) {
        if delay.is_zero() {
            return self.requeue(job, now);
        }
        let release = now + delay;
        job.retries += 1;
        job.enqueued = release;
        job.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.delayed.insert((release, job.stamp), job);
    }

    /// Moves parked retries whose release instant has passed into their
    /// tenant queues. Call once per round before popping.
    pub fn release_due(&mut self, now: SimTime) {
        while let Some((&(release, stamp), _)) = self.delayed.first_key_value() {
            if release > now {
                break;
            }
            let job = self
                .delayed
                .remove(&(release, stamp))
                .expect("first key present");
            self.push_job(job);
        }
    }

    /// Credits a tenant with served busy time (drives weighted-fair
    /// virtual time forward on completion or failure). Under
    /// weighted-fair, re-keys the tenant's fair-index entry if it
    /// currently has queued work.
    pub fn credit_served(&mut self, tenant: u32, busy_nanos: u64) {
        let rekey = self.fair() && self.queues.contains_key(&tenant);
        if rekey {
            let old = self.fair_key(tenant);
            self.fair_index.remove(&old);
        }
        *self.served.entry(tenant).or_insert(0) += busy_nanos;
        if rekey {
            let new = self.fair_key(tenant);
            self.fair_index.insert(new);
        }
    }

    /// Sheds every queued job whose deadline has passed (enforcement at
    /// pop: a job that waited out its deadline in the queue must not
    /// burn cluster time), pruning tenant queues that empty out.
    ///
    /// Heap-driven: pops deadline entries only as far as the ones that
    /// are actually due, so a quiet round costs one `peek()` regardless
    /// of how many tenants are queued. An entry whose stamp is no
    /// longer in its tenant's queue belongs to a job admitted since,
    /// and is dropped; stamps are never reused — a requeue stamps
    /// afresh and pushes a fresh entry — so a job is shed at most once.
    /// Each due entry pays a scan of the owning tenant's queue (bounded
    /// by `queue_cap` when one is set), never of the tenant population.
    /// Stamps are unique, so the live entries leave the heap in strictly
    /// ascending `(deadline, stamp)` order and sheds are recorded in
    /// that order (not the reference scan's tenant-major order; shed
    /// *sets* are the same).
    fn expire(&mut self, now: SimTime) {
        while let Some(&Reverse((deadline, stamp, tenant))) = self.deadlines.peek() {
            if deadline >= now {
                break;
            }
            self.deadlines.pop();
            let Some(q) = self.queues.get_mut(&tenant) else {
                continue;
            };
            let Some(pos) = q.iter().position(|j| j.stamp == stamp) else {
                continue;
            };
            let front = q.front().map(|j| j.stamp);
            let job = q.remove(pos).expect("position is in range");
            let next_front = q.front().map(|j| j.stamp);
            if next_front.is_none() {
                self.close_queue(tenant);
            }
            self.queued_count -= 1;
            self.reindex(tenant, front, next_front);
            self.shed.push(ShedRecord {
                tenant,
                seq: job.seq,
                reason: ShedReason::DeadlineExpired,
                at: now,
            });
        }
    }

    /// Pops the next admissible job under the policy, or `None` if the
    /// queues are empty, every slot is taken, or the memory gate holds.
    /// Deadline-expired jobs are shed first, so an admission never
    /// hands back dead work.
    ///
    /// All policies are work-conserving: when nothing is active, the
    /// head job is always admitted regardless of memory state.
    pub fn next(&mut self, view: ClusterView) -> Option<QueuedJob> {
        self.expire(view.now);
        if view.active >= self.cfg.max_active || self.queued() == 0 {
            return None;
        }
        match self.cfg.policy {
            PolicyKind::Fifo => self.pop_fifo(),
            PolicyKind::WeightedFair => self.pop_weighted_fair(),
            PolicyKind::MemoryAware => {
                if view.active > 0
                    && (view.min_free_ratio < self.cfg.min_free_ratio || view.any_reduce_signal)
                {
                    return None;
                }
                self.pop_fifo()
            }
        }
    }

    /// Head job across tenants by global stamp: the least element of
    /// the FIFO front index. O(log n).
    fn pop_fifo(&mut self) -> Option<QueuedJob> {
        let &(stamp, tenant) = self.fifo_index.first()?;
        let job = self.pop_front(tenant);
        debug_assert_eq!(
            job.as_ref().map(|j| j.stamp),
            Some(stamp),
            "fifo index front must match the queue front"
        );
        job
    }

    /// Head job of the non-empty tenant with the smallest virtual time
    /// (`served / weight`), ties broken by tenant id: the least
    /// [`FairKey`] in the fair index. O(log n).
    fn pop_weighted_fair(&mut self) -> Option<QueuedJob> {
        let tenant = self.fair_index.first()?.tenant;
        self.pop_front(tenant)
    }

    /// Pops the tenant's head job. Its deadline entry, if any, stays
    /// in the heap and is dropped when it comes due ([`Self::expire`]).
    fn pop_front(&mut self, tenant: u32) -> Option<QueuedJob> {
        let q = self.queues.get_mut(&tenant)?;
        let job = q.pop_front()?;
        let next_front = q.front().map(|j| j.stamp);
        if next_front.is_none() {
            self.close_queue(tenant);
        }
        self.queued_count -= 1;
        self.reindex(tenant, Some(job.stamp), next_front);
        Some(job)
    }

    /// Appends `job` to its tenant's queue: a deadline-carrying job
    /// gains a heap entry, and a queue going non-empty gains its entry
    /// in the policy's index.
    fn push_job(&mut self, job: QueuedJob) {
        let (stamp, tenant) = (job.stamp, job.tenant);
        if let Some(d) = job.deadline {
            self.deadlines.push(Reverse((d, stamp, tenant)));
        }
        let spare = &mut self.spare;
        let q = self
            .queues
            .entry(tenant)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let was_empty = q.is_empty();
        q.push_back(job);
        self.queued_count += 1;
        if was_empty {
            self.reindex(tenant, None, Some(stamp));
        }
    }

    /// Prunes `tenant`'s queue, which just emptied, keeping its buffer.
    fn close_queue(&mut self, tenant: u32) {
        if let Some(q) = self.queues.remove(&tenant) {
            self.spare.push(q);
        }
    }

    /// Whether the policy pops by the fair index (else by FIFO fronts).
    fn fair(&self) -> bool {
        self.cfg.policy == PolicyKind::WeightedFair
    }

    /// Keeps the policy's index in lockstep after the front stamp of
    /// `tenant`'s queue moved from `old` to `new` (`None`: empty). The
    /// FIFO index follows the front; the fair index only follows the
    /// queue in and out of existence — its key moves with `served`.
    fn reindex(&mut self, tenant: u32, old: Option<u64>, new: Option<u64>) {
        if self.fair() {
            if old.is_some() != new.is_some() {
                let key = self.fair_key(tenant);
                if new.is_some() {
                    self.fair_index.insert(key);
                } else {
                    self.fair_index.remove(&key);
                }
            }
        } else if old != new {
            if let Some(front) = old {
                self.fifo_index.remove(&(front, tenant));
            }
            if let Some(front) = new {
                self.fifo_index.insert((front, tenant));
            }
        }
    }

    /// The tenant's current fair-index key. Weights are immutable per
    /// controller, so a key built here always matches the entry
    /// inserted earlier for the same tenant unless `served` moved — and
    /// `credit_served` re-keys on every move.
    fn fair_key(&self, tenant: u32) -> FairKey {
        FairKey {
            served: self.served.get(&tenant).copied().unwrap_or(0),
            weight: self.weight_rule.weight_of(tenant),
            tenant,
        }
    }
}

pub mod reference {
    //! The original O(n)-scan admission controller, retained as the
    //! oracle for the equivalence property tests: the indexed
    //! [`AdmissionController`](super::AdmissionController) must emit
    //! the identical job sequence under any schedule of arrivals,
    //! weights, deadlines, requeues, and credits.
    //!
    //! Kept deliberately close to the pre-index code: linear scans over
    //! the queue map for both pops, `retain`-based expiry, `queued()`
    //! by summation. Do not optimise this module — its value is being
    //! obviously correct and independently derived from the indexes.

    use std::collections::{BTreeMap, VecDeque};

    use simcore::{SimDuration, SimTime};

    use super::{AdmissionConfig, ClusterView, PolicyKind, QueuedJob};
    use crate::overload::{ShedReason, ShedRecord};
    use crate::workload::{Arrival, WeightRule};

    /// Per-tenant queues plus policy state, all scans linear.
    pub struct NaiveController {
        cfg: AdmissionConfig,
        queues: BTreeMap<u32, VecDeque<QueuedJob>>,
        delayed: BTreeMap<(SimTime, u64), QueuedJob>,
        shed: Vec<ShedRecord>,
        weight_rule: WeightRule,
        served: BTreeMap<u32, u64>,
        next_stamp: u64,
    }

    impl NaiveController {
        /// Mirror of [`super::AdmissionController::with_weight_rule`].
        pub fn with_weight_rule(cfg: AdmissionConfig, rule: WeightRule) -> Self {
            NaiveController {
                cfg,
                queues: BTreeMap::new(),
                delayed: BTreeMap::new(),
                shed: Vec::new(),
                weight_rule: rule,
                served: BTreeMap::new(),
                next_stamp: 0,
            }
        }

        /// Mirror of [`super::AdmissionController::queued`] (O(n)).
        pub fn queued(&self) -> usize {
            self.queues.values().map(VecDeque::len).sum()
        }

        /// Mirror of [`super::AdmissionController::pending_delayed`].
        pub fn pending_delayed(&self) -> usize {
            self.delayed.len()
        }

        /// Mirror of [`super::AdmissionController::next_release`].
        pub fn next_release(&self) -> Option<SimTime> {
            self.delayed.keys().next().map(|&(at, _)| at)
        }

        /// Mirror of [`super::AdmissionController::queued_tenants`].
        pub fn queued_tenants(&self) -> Vec<u32> {
            self.queues.keys().copied().collect()
        }

        /// Mirror of [`super::AdmissionController::take_shed`].
        pub fn take_shed(&mut self) -> Vec<ShedRecord> {
            std::mem::take(&mut self.shed)
        }

        /// Mirror of [`super::AdmissionController::enqueue_arrival`].
        pub fn enqueue_arrival(&mut self, a: &Arrival, now: SimTime) {
            if a.deadline.is_some_and(|d| d < now) {
                self.shed.push(ShedRecord {
                    tenant: a.tenant,
                    seq: a.seq,
                    reason: ShedReason::DeadlineExpired,
                    at: now,
                });
                return;
            }
            if let Some(cap) = self.cfg.queue_cap {
                let len = self.queues.get(&a.tenant).map_or(0, VecDeque::len);
                if len >= cap {
                    self.shed.push(ShedRecord {
                        tenant: a.tenant,
                        seq: a.seq,
                        reason: ShedReason::QueueFull,
                        at: now,
                    });
                    return;
                }
            }
            let job = QueuedJob {
                tenant: a.tenant,
                seq: a.seq,
                kind: a.kind,
                arrived: a.at,
                enqueued: a.at,
                dataset_seed: a.dataset_seed,
                retries: 0,
                deadline: a.deadline,
                stamp: self.next_stamp,
            };
            self.next_stamp += 1;
            self.queues.entry(a.tenant).or_default().push_back(job);
        }

        /// Mirror of [`super::AdmissionController::requeue`].
        pub fn requeue(&mut self, mut job: QueuedJob, now: SimTime) {
            job.retries += 1;
            job.enqueued = now;
            job.stamp = self.next_stamp;
            self.next_stamp += 1;
            self.queues.entry(job.tenant).or_default().push_back(job);
        }

        /// Mirror of [`super::AdmissionController::requeue_after`].
        pub fn requeue_after(&mut self, mut job: QueuedJob, now: SimTime, delay: SimDuration) {
            if delay.is_zero() {
                return self.requeue(job, now);
            }
            let release = now + delay;
            job.retries += 1;
            job.enqueued = release;
            job.stamp = self.next_stamp;
            self.next_stamp += 1;
            self.delayed.insert((release, job.stamp), job);
        }

        /// Mirror of [`super::AdmissionController::release_due`].
        pub fn release_due(&mut self, now: SimTime) {
            while let Some((&(release, stamp), _)) = self.delayed.first_key_value() {
                if release > now {
                    break;
                }
                let job = self
                    .delayed
                    .remove(&(release, stamp))
                    .expect("first key present");
                self.queues.entry(job.tenant).or_default().push_back(job);
            }
        }

        /// Mirror of [`super::AdmissionController::credit_served`].
        pub fn credit_served(&mut self, tenant: u32, busy_nanos: u64) {
            *self.served.entry(tenant).or_insert(0) += busy_nanos;
        }

        fn expire(&mut self, now: SimTime) {
            let shed = &mut self.shed;
            self.queues.retain(|_, q| {
                q.retain(|j| {
                    let expired = j.deadline.is_some_and(|d| d < now);
                    if expired {
                        shed.push(ShedRecord {
                            tenant: j.tenant,
                            seq: j.seq,
                            reason: ShedReason::DeadlineExpired,
                            at: now,
                        });
                    }
                    !expired
                });
                !q.is_empty()
            });
        }

        /// Mirror of [`super::AdmissionController::next`].
        pub fn next(&mut self, view: ClusterView) -> Option<QueuedJob> {
            self.expire(view.now);
            if view.active >= self.cfg.max_active || self.queued() == 0 {
                return None;
            }
            match self.cfg.policy {
                PolicyKind::Fifo => self.pop_fifo(),
                PolicyKind::WeightedFair => self.pop_weighted_fair(),
                PolicyKind::MemoryAware => {
                    if view.active > 0
                        && (view.min_free_ratio < self.cfg.min_free_ratio || view.any_reduce_signal)
                    {
                        return None;
                    }
                    self.pop_fifo()
                }
            }
        }

        fn pop_fifo(&mut self) -> Option<QueuedJob> {
            let tenant = self
                .queues
                .iter()
                .filter_map(|(t, q)| q.front().map(|j| (j.stamp, *t)))
                .min()
                .map(|(_, t)| t)?;
            self.pop_front(tenant)
        }

        fn pop_weighted_fair(&mut self) -> Option<QueuedJob> {
            let mut best: Option<(u128, u128, u32)> = None; // (served, weight, tenant)
            for (&t, q) in &self.queues {
                if q.is_empty() {
                    continue;
                }
                let w = self.weight_rule.weight_of(t) as u128;
                let served = self.served.get(&t).copied().unwrap_or(0) as u128;
                // Ascending tenant order + strict inequality keeps the
                // lowest tenant id on vtime ties.
                if best.map(|(bs, bw, _)| served * bw < bs * w).unwrap_or(true) {
                    best = Some((served, w, t));
                }
            }
            let tenant = best.map(|(_, _, t)| t)?;
            self.pop_front(tenant)
        }

        fn pop_front(&mut self, tenant: u32) -> Option<QueuedJob> {
            let q = self.queues.get_mut(&tenant)?;
            let job = q.pop_front();
            if q.is_empty() {
                self.queues.remove(&tenant);
            }
            job
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn arrival(tenant: u32, seq: u32, at_ms: u64) -> Arrival {
        Arrival {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            tenant,
            seq,
            kind: JobKind::DegreeCount,
            dataset_seed: (tenant as u64) << 32 | seq as u64,
            deadline: None,
        }
    }

    fn deadlined(tenant: u32, seq: u32, at_ms: u64, deadline_ms: u64) -> Arrival {
        Arrival {
            deadline: Some(SimTime::ZERO + SimDuration::from_millis(deadline_ms)),
            ..arrival(tenant, seq, at_ms)
        }
    }

    /// A controller with every tenant at weight 1.
    fn uniform(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController::with_weight_rule(cfg, WeightRule::uniform())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn calm(active: usize) -> ClusterView {
        ClusterView {
            active,
            min_free_ratio: 0.9,
            any_reduce_signal: false,
            now: SimTime::ZERO,
        }
    }

    fn calm_at(active: usize, now_ms: u64) -> ClusterView {
        ClusterView {
            now: t(now_ms),
            ..calm(active)
        }
    }

    fn enq(c: &mut AdmissionController, a: &Arrival) {
        c.enqueue_arrival(a, a.at);
    }

    #[test]
    fn fifo_serves_global_arrival_order_and_respects_cap() {
        let cfg = AdmissionConfig {
            policy: PolicyKind::Fifo,
            max_active: 2,
            ..AdmissionConfig::default()
        };
        let mut c = uniform(cfg);
        enq(&mut c, &arrival(1, 0, 10));
        enq(&mut c, &arrival(0, 0, 20));
        enq(&mut c, &arrival(1, 1, 30));
        let a = c.next(calm(0)).unwrap();
        let b = c.next(calm(1)).unwrap();
        assert_eq!((a.tenant, a.seq), (1, 0));
        assert_eq!((b.tenant, b.seq), (0, 0));
        // Cap reached: the third job waits even though it is queued.
        assert!(c.next(calm(2)).is_none());
        assert_eq!(c.queued(), 1);
        let d = c.next(calm(1)).unwrap();
        assert_eq!((d.tenant, d.seq), (1, 1));
    }

    #[test]
    fn weighted_fair_prefers_underserved_heavy_tenants() {
        let cfg = AdmissionConfig {
            policy: PolicyKind::WeightedFair,
            max_active: 8,
            ..AdmissionConfig::default()
        };
        // Tenant 2 is premium (weight 3), tenant 1 is not (weight 1).
        let rule = WeightRule {
            premium_every: 2,
            premium_weight: 3,
        };
        let mut c = AdmissionController::with_weight_rule(cfg, rule);
        for seq in 0..3 {
            enq(&mut c, &arrival(1, seq, seq as u64));
            enq(&mut c, &arrival(2, seq, seq as u64));
        }
        // Equal served time: tie on vtime 0 broken by tenant id.
        let first = c.next(calm(0)).unwrap();
        assert_eq!(first.tenant, 1);
        // Tenant 1 has now been served heavily; weight-3 tenant 2 has a
        // 3x smaller vtime per unit served, so it gets the next slots.
        c.credit_served(1, 9_000);
        c.credit_served(2, 9_000);
        let second = c.next(calm(1)).unwrap();
        assert_eq!(second.tenant, 2);
        c.credit_served(2, 12_000);
        // vtime(1) = 9000/1 > vtime(2) = 21000/3 = 7000: tenant 2 again.
        let third = c.next(calm(2)).unwrap();
        assert_eq!(third.tenant, 2);
    }

    #[test]
    fn memory_aware_gates_colocation_but_stays_work_conserving() {
        let cfg = AdmissionConfig {
            policy: PolicyKind::MemoryAware,
            max_active: 4,
            min_free_ratio: 0.5,
            queue_cap: None,
        };
        let mut c = uniform(cfg);
        enq(&mut c, &arrival(0, 0, 1));
        enq(&mut c, &arrival(0, 1, 2));
        enq(&mut c, &arrival(0, 2, 3));
        let tight = ClusterView {
            active: 1,
            min_free_ratio: 0.2,
            any_reduce_signal: false,
            now: SimTime::ZERO,
        };
        let pressured = ClusterView {
            active: 1,
            min_free_ratio: 0.9,
            any_reduce_signal: true,
            now: SimTime::ZERO,
        };
        // Work conservation: empty cluster admits even under a low view.
        let first = c
            .next(ClusterView {
                active: 0,
                min_free_ratio: 0.0,
                any_reduce_signal: true,
                now: SimTime::ZERO,
            })
            .unwrap();
        assert_eq!(first.seq, 0);
        // Co-location blocked by the free-heap floor and by REDUCE.
        assert!(c.next(tight).is_none());
        assert!(c.next(pressured).is_none());
        // Healthy cluster co-locates.
        let second = c.next(calm(1)).unwrap();
        assert_eq!(second.seq, 1);
    }

    #[test]
    fn requeue_rejoins_at_the_back_with_retry_count() {
        let mut c = uniform(AdmissionConfig::default());
        enq(&mut c, &arrival(0, 0, 1));
        enq(&mut c, &arrival(0, 1, 2));
        let failed = c.next(calm(0)).unwrap();
        assert_eq!(failed.seq, 0);
        let arrived = failed.arrived;
        let requeued_at = SimTime::ZERO + SimDuration::from_millis(9);
        c.requeue(failed, requeued_at);
        let next = c.next(calm(0)).unwrap();
        assert_eq!(next.seq, 1, "requeued job goes to the back");
        let retried = c.next(calm(0)).unwrap();
        assert_eq!(retried.seq, 0);
        assert_eq!(retried.retries, 1);
        assert_eq!(retried.arrived, arrived, "latency clock not reset");
        assert_eq!(
            retried.enqueued, requeued_at,
            "queue-wait clock restarts at the requeue"
        );
    }

    #[test]
    fn weighted_fair_ordering_is_exact_for_tiny_vtime_gaps() {
        let cfg = AdmissionConfig {
            policy: PolicyKind::WeightedFair,
            max_active: 8,
            ..AdmissionConfig::default()
        };
        // Both tenants' scaled vtimes quantize to the same value under
        // `served * 1e6 / w`, where the tie would go to tenant 0;
        // cross-multiplication must still see that tenant 1 (weight 1,
        // served 1) is less served than tenant 0 (weight 3M, served
        // 3M + 1).
        let rule = WeightRule {
            premium_every: 2,
            premium_weight: 3_000_000,
        };
        let mut c = AdmissionController::with_weight_rule(cfg, rule);
        enq(&mut c, &arrival(0, 0, 1));
        enq(&mut c, &arrival(1, 0, 2));
        c.credit_served(0, 3_000_001);
        c.credit_served(1, 1);
        let first = c.next(calm(0)).unwrap();
        assert_eq!(first.tenant, 1, "sub-resolution vtime gap lost");
    }

    #[test]
    fn queue_cap_sheds_at_enqueue_per_tenant() {
        let cfg = AdmissionConfig {
            queue_cap: Some(2),
            ..AdmissionConfig::default()
        };
        let mut c = uniform(cfg);
        enq(&mut c, &arrival(0, 0, 1));
        enq(&mut c, &arrival(0, 1, 2));
        enq(&mut c, &arrival(0, 2, 3)); // over tenant 0's cap
        enq(&mut c, &arrival(1, 0, 4)); // tenant 1 has its own budget
        assert_eq!(c.queued(), 3);
        let shed = c.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!((shed[0].tenant, shed[0].seq), (0, 2));
        assert_eq!(shed[0].reason, ShedReason::QueueFull);
        assert_eq!(shed[0].reason.label(), "queue_full");
        assert!(c.take_shed().is_empty(), "take_shed drains");
    }

    #[test]
    fn deadlines_shed_at_enqueue_and_at_pop() {
        let mut c = uniform(AdmissionConfig::default());
        // Arrives already past its deadline: shed on the spot.
        c.enqueue_arrival(&deadlined(0, 0, 10, 5), t(10));
        // Alive at enqueue, expires while queued: shed at pop.
        c.enqueue_arrival(&deadlined(0, 1, 10, 20), t(10));
        // No deadline: survives any wait.
        enq(&mut c, &arrival(0, 2, 11));
        assert_eq!(c.queued(), 2);
        let popped = c.next(calm_at(0, 30)).unwrap();
        assert_eq!(popped.seq, 2, "expired job skipped at pop");
        let shed = c.take_shed();
        assert_eq!(shed.len(), 2);
        assert!(shed.iter().all(|s| s.reason == ShedReason::DeadlineExpired));
        assert_eq!(shed[0].at, t(10));
        assert_eq!(shed[1].at, t(30));
    }

    #[test]
    fn deadline_exactly_now_still_runs() {
        let mut c = uniform(AdmissionConfig::default());
        c.enqueue_arrival(&deadlined(0, 0, 5, 30), t(5));
        let popped = c.next(calm_at(0, 30));
        assert!(popped.is_some(), "deadline == now is not yet expired");
        assert!(c.take_shed().is_empty());
    }

    #[test]
    fn requeue_after_parks_until_release() {
        let mut c = uniform(AdmissionConfig::default());
        enq(&mut c, &arrival(0, 0, 1));
        let failed = c.next(calm(0)).unwrap();
        c.requeue_after(failed, t(10), SimDuration::from_millis(5));
        assert_eq!(c.queued(), 0);
        assert_eq!(c.pending_delayed(), 1);
        assert_eq!(c.next_release(), Some(t(15)));
        // Not due yet: releasing early moves nothing.
        c.release_due(t(14));
        assert!(c.next(calm_at(0, 14)).is_none());
        c.release_due(t(15));
        assert_eq!(c.pending_delayed(), 0);
        assert_eq!(c.next_release(), None);
        let job = c.next(calm_at(0, 15)).unwrap();
        assert_eq!(job.retries, 1);
        assert_eq!(job.enqueued, t(15), "wait clock restarts at release");
    }

    #[test]
    fn requeue_after_zero_delay_is_plain_requeue() {
        let mut c = uniform(AdmissionConfig::default());
        enq(&mut c, &arrival(0, 0, 1));
        let failed = c.next(calm(0)).unwrap();
        c.requeue_after(failed, t(9), SimDuration::ZERO);
        assert_eq!(c.pending_delayed(), 0);
        let job = c.next(calm_at(0, 9)).unwrap();
        assert_eq!((job.retries, job.enqueued), (1, t(9)));
    }

    #[test]
    fn delayed_releases_in_release_then_stamp_order() {
        let mut c = uniform(AdmissionConfig::default());
        enq(&mut c, &arrival(0, 0, 1));
        enq(&mut c, &arrival(0, 1, 2));
        let a = c.next(calm(0)).unwrap();
        let b = c.next(calm(0)).unwrap();
        // Same release instant: the earlier-parked job keeps the earlier
        // stamp and pops first.
        c.requeue_after(b, t(10), SimDuration::from_millis(3));
        c.requeue_after(a, t(10), SimDuration::from_millis(3));
        c.release_due(t(13));
        let first = c.next(calm_at(0, 13)).unwrap();
        let second = c.next(calm_at(0, 13)).unwrap();
        assert_eq!((first.seq, second.seq), (1, 0));
    }

    #[test]
    fn tenant_queues_prune_under_churn() {
        // Regression: requeue/enqueue/expire cycles must never leave
        // tombstone (empty) per-tenant queues behind.
        let mut c = uniform(AdmissionConfig::default());
        assert!(c.queued_tenants().is_empty());
        enq(&mut c, &arrival(3, 0, 1));
        enq(&mut c, &arrival(7, 0, 2));
        assert_eq!(c.queued_tenants(), vec![3, 7]);
        let j3 = c.next(calm(0)).unwrap();
        assert_eq!(c.queued_tenants(), vec![7]);
        c.requeue(j3, t(5));
        assert_eq!(c.queued_tenants(), vec![3, 7]);
        let _ = c.next(calm_at(0, 5)).unwrap();
        let _ = c.next(calm_at(0, 5)).unwrap();
        assert!(c.queued_tenants().is_empty(), "popped queues pruned");
        // Expiry-driven pruning: a queue emptied by deadline shedding
        // disappears too (queued_tenants() debug-asserts no tombstones).
        c.enqueue_arrival(&deadlined(9, 0, 6, 7), t(6));
        assert_eq!(c.queued_tenants(), vec![9]);
        assert!(c.next(calm_at(0, 20)).is_none());
        assert!(c.queued_tenants().is_empty(), "expired queues pruned");
        assert_eq!(c.take_shed().len(), 1);
        // Churn loop: heavy mixed traffic, invariant holds throughout.
        for round in 0..50u64 {
            enq(
                &mut c,
                &arrival((round % 5) as u32, round as u32, 30 + round),
            );
            if round % 3 == 0 {
                if let Some(j) = c.next(calm_at(0, 30 + round)) {
                    c.requeue_after(j, t(30 + round), SimDuration::from_millis(2));
                }
            }
            c.release_due(t(30 + round));
            let _ = c.queued_tenants(); // debug_assert: no tombstones
        }
    }

    #[test]
    fn indexes_stay_tombstone_free_under_large_tenant_churn() {
        // Million-tenant-scale churn, shrunk to 20k so debug test runs
        // stay quick: one deadlined job per tenant, pop a slice, expire
        // the rest. The policy's index, the deadline heap (stale entries
        // of the popped slice included) and the queued counter must
        // drain back to exactly empty — `queued_tenants()`
        // debug-asserts index/queue lockstep on every call.
        const TENANTS: u32 = 20_000;
        let cfg = AdmissionConfig {
            policy: PolicyKind::WeightedFair,
            max_active: usize::MAX,
            ..AdmissionConfig::default()
        };
        let mut c = uniform(cfg);
        for tid in 0..TENANTS {
            c.enqueue_arrival(&deadlined(tid, 0, 100, 101), t(100));
        }
        assert_eq!(c.queued(), TENANTS as usize);
        assert_eq!(c.queued_tenants().len(), TENANTS as usize);
        let mut popped = 0u32;
        for _ in 0..100 {
            let job = c.next(calm_at(0, 100)).expect("queued job pops");
            c.credit_served(job.tenant, 5_000);
            popped += 1;
        }
        // Everything still queued is now past its deadline; one probe
        // expires the lot and the controller is exactly empty again.
        assert!(c.next(calm_at(0, 200)).is_none());
        assert_eq!(c.queued(), 0);
        assert!(c.queued_tenants().is_empty(), "all queues pruned");
        assert!(c.deadlines.is_empty(), "stale heap entries dropped");
        assert_eq!(c.pending_delayed(), 0);
        let shed = c.take_shed();
        assert_eq!(shed.len(), (TENANTS - popped) as usize);
        assert!(shed.iter().all(|s| s.reason == ShedReason::DeadlineExpired));
    }

    /// `(tenant, seq)` of every shed decision since the last drain.
    fn shed_ids(c: &mut AdmissionController) -> Vec<(u32, u32)> {
        c.take_shed().iter().map(|s| (s.tenant, s.seq)).collect()
    }

    #[test]
    fn expiry_sheds_across_tenants_in_deadline_then_stamp_order() {
        let mut c = uniform(AdmissionConfig::default());
        // Stamps 0..5 in enqueue order; deadlines deliberately out of
        // both stamp and tenant order.
        c.enqueue_arrival(&deadlined(5, 0, 1, 20), t(1)); // stamp 0
        c.enqueue_arrival(&deadlined(1, 0, 1, 15), t(1)); // stamp 1
        c.enqueue_arrival(&deadlined(3, 0, 1, 20), t(1)); // stamp 2
        c.enqueue_arrival(&deadlined(1, 1, 1, 15), t(1)); // stamp 3
        c.enqueue_arrival(&deadlined(3, 1, 1, 12), t(1)); // stamp 4
        c.enqueue_arrival(&deadlined(7, 0, 1, 40), t(1)); // stamp 5, survives
        assert!(c.next(calm_at(4, 30)).is_none(), "no slot: expiry only");
        // (12, 4) (15, 1) (15, 3) (20, 0) (20, 2): tenant 5 before
        // tenant 3 on the deadline tie, because its stamp is older.
        assert_eq!(
            shed_ids(&mut c),
            vec![(3, 1), (1, 0), (1, 1), (5, 0), (3, 0)]
        );
        assert_eq!(c.queued_tenants(), vec![7]);
    }

    #[test]
    fn admitted_job_leaves_no_shed_when_its_stale_entry_comes_due() {
        let mut c = uniform(AdmissionConfig::default());
        c.enqueue_arrival(&deadlined(2, 0, 1, 20), t(1));
        c.enqueue_arrival(&deadlined(2, 1, 1, 25), t(1));
        let job = c
            .next(calm_at(0, 10))
            .expect("admitted before its deadline");
        assert_eq!(job.seq, 0);
        // The admitted job's heap entry is still there; when it comes
        // due it must not shed the job now at the queue's front.
        assert_eq!(c.deadlines.len(), 2);
        assert!(c.next(calm_at(4, 22)).is_none());
        assert!(c.take_shed().is_empty(), "stale entry shed a live job");
        assert_eq!(c.queued(), 1);
        assert_eq!(c.deadlines.len(), 1, "stale entry dropped");
        assert!(c.next(calm_at(4, 26)).is_none());
        assert_eq!(shed_ids(&mut c), vec![(2, 1)]);
        assert!(c.deadlines.is_empty());
    }

    #[test]
    fn popped_then_requeued_job_is_shed_exactly_once() {
        for policy in [PolicyKind::Fifo, PolicyKind::WeightedFair] {
            let cfg = AdmissionConfig {
                policy,
                ..AdmissionConfig::default()
            };
            let mut c = uniform(cfg);
            c.enqueue_arrival(&deadlined(4, 0, 1, 20), t(1));
            let job = c.next(calm_at(0, 5)).expect("admitted");
            // Fails and rejoins under a fresh stamp, keeping its
            // original deadline: two heap entries now name this job,
            // one stale (the old stamp) and one live.
            c.requeue(job, t(6));
            assert_eq!(c.deadlines.len(), 2);
            assert!(c.next(calm_at(4, 30)).is_none());
            assert_eq!(shed_ids(&mut c), vec![(4, 0)], "{policy:?}");
            assert_eq!(c.queued(), 0);
            assert!(c.queued_tenants().is_empty());
            assert!(c.deadlines.is_empty());
        }
    }
}
