//! Overload-control primitives: retry budgets, deterministic backoff,
//! shed accounting, the per-node OME-storm circuit breaker, and the
//! cluster-wide brownout gate.
//!
//! The paper's thesis is that memory pressure handled as an *interrupt*
//! lets programs degrade gracefully; this module is the service-layer
//! half of that bargain. Past saturation no scheduler can run every
//! job, so the controls decide — deterministically — which work to
//! shed, which failures deserve another attempt, and which nodes are
//! too storm-wrecked to schedule onto at all. Everything here is pure
//! integer/virtual-time state: the same `(config, seed)` pair always
//! sheds the same jobs at the same instants, whatever `--jobs` is.

use std::collections::VecDeque;

use simcore::{rng::stable_hash64, SimDuration, SimError, SimTime};

/// Why a failed job did or did not deserve a retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Substrate fault (node loss, disk fault): the job itself was
    /// fine; rerunning it elsewhere is likely to succeed.
    Transient,
    /// An OutOfMemoryError: deterministic given the same co-location,
    /// so blind retries mostly re-burn the heap that is already scarce.
    DeterministicOme,
}

/// Classifies a failure for the retry policy.
pub fn classify(err: &SimError) -> FailureClass {
    if err.is_oom() {
        FailureClass::DeterministicOme
    } else {
        FailureClass::Transient
    }
}

/// Why the controller shed a job instead of running it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The submit deadline passed while the job sat in a queue.
    DeadlineExpired,
    /// The tenant's bounded queue was already full at enqueue.
    QueueFull,
    /// The tenant's retry token bucket was empty: fail fast rather than
    /// let a retry storm starve first-attempt traffic.
    RetryBudget,
}

impl ShedReason {
    /// Stable label (tracer payloads, tables).
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::DeadlineExpired => "deadline",
            ShedReason::QueueFull => "queue_full",
            ShedReason::RetryBudget => "retry_budget",
        }
    }
}

/// One shed decision, for per-tenant accounting and tracing.
#[derive(Clone, Copy, Debug)]
pub struct ShedRecord {
    /// The tenant whose job was shed.
    pub tenant: u32,
    /// The job's per-tenant sequence number.
    pub seq: u32,
    /// Why it was shed.
    pub reason: ShedReason,
    /// When the decision fired (virtual time).
    pub at: SimTime,
}

/// Per-tenant retry token bucket configuration.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudget {
    /// Maximum banked retry tokens (also the initial balance).
    pub capacity: u32,
}

/// One retry token refills per this much virtual time.
const REFILL_EVERY: SimDuration = SimDuration::from_millis(4);

/// Retry policy: how many attempts each failure class deserves, how
/// retries back off, and the optional per-tenant token budget.
///
/// A policy is one of two presets. [`RetryPolicy::flat`] reproduces the
/// historical behavior exactly — a single retry counter, immediate
/// requeue, no budget — which is what keeps the pre-existing service
/// tables byte-identical; [`RetryPolicy::budgeted`] is the
/// overload-hardened one.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries allowed after transient substrate faults.
    max_attempts_transient: u32,
    /// Retries allowed after deterministic OMEs (typically smaller:
    /// fail fast instead of re-burning scarce heap).
    max_attempts_ome: u32,
    /// First backoff delay (`ZERO` = immediate requeue, the legacy
    /// behavior). Doubles per attempt up to `max_backoff`.
    base_backoff: SimDuration,
    /// Backoff ceiling.
    max_backoff: SimDuration,
    /// Optional per-tenant retry token bucket.
    pub budget: Option<RetryBudget>,
}

impl RetryPolicy {
    /// The legacy flat counter: `n` retries for every failure class,
    /// immediate requeue, no budget.
    pub fn flat(n: u32) -> Self {
        RetryPolicy {
            max_attempts_transient: n,
            max_attempts_ome: n,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            budget: None,
        }
    }

    /// The overload-hardened defaults: transient faults get patient
    /// backed-off retries, OMEs fail fast after one, and each tenant
    /// spends from a finite token bucket.
    pub fn budgeted() -> Self {
        RetryPolicy {
            max_attempts_transient: 3,
            max_attempts_ome: 1,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(8),
            budget: Some(RetryBudget { capacity: 4 }),
        }
    }

    /// Retry ceiling for a failure class.
    pub fn max_for(&self, class: FailureClass) -> u32 {
        match class {
            FailureClass::Transient => self.max_attempts_transient,
            FailureClass::DeterministicOme => self.max_attempts_ome,
        }
    }

    /// The backoff before retry number `attempt` (1-based): exponential
    /// from `base_backoff`, capped at `max_backoff`, scaled by a
    /// deterministic jitter in `[0.5, 1.5)` per mille derived from
    /// `(seed, tenant, seq, attempt)` — a pure function, so the retry
    /// schedule is identical across `--jobs` counts and reruns.
    pub fn backoff(&self, seed: u64, tenant: u32, seq: u32, attempt: u32) -> SimDuration {
        if self.base_backoff.is_zero() {
            return SimDuration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(
                self.max_backoff
                    .as_nanos()
                    .max(self.base_backoff.as_nanos()),
            );
        let h = stable_hash64(
            seed ^ ((tenant as u64) << 32) ^ ((seq as u64) << 8) ^ ((attempt as u64) << 56),
        );
        let jitter = 500 + h % 1_000; // [0.5, 1.5) per mille
        SimDuration::from_nanos(raw.saturating_mul(jitter) / 1_000)
    }
}

/// Per-tenant retry token bucket state. Refills on virtual time, so the
/// balance at any instant is a pure function of the spend history.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: u32,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket, refilling from `start`.
    pub fn new(cfg: &RetryBudget, start: SimTime) -> Self {
        TokenBucket {
            tokens: cfg.capacity,
            last_refill: start,
        }
    }

    /// Current balance after refilling up to `now`.
    pub fn balance(&mut self, cfg: &RetryBudget, now: SimTime) -> u32 {
        if now > self.last_refill {
            let periods = now.since(self.last_refill).as_nanos() / REFILL_EVERY.as_nanos();
            if periods > 0 {
                self.tokens = self
                    .tokens
                    .saturating_add(periods.min(u32::MAX as u64) as u32)
                    .min(cfg.capacity);
                self.last_refill +=
                    SimDuration::from_nanos(periods.saturating_mul(REFILL_EVERY.as_nanos()));
            }
        }
        self.tokens
    }

    /// Takes one token if available.
    pub fn try_take(&mut self, cfg: &RetryBudget, now: SimTime) -> bool {
        if self.balance(cfg, now) == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

/// Per-node OME-storm circuit breaker configuration.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Windowed score at which the breaker opens.
    pub trip_score: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_score: 6 }
    }
}

/// Sliding window over which storm scores accumulate.
const BREAKER_WINDOW: SimDuration = SimDuration::from_millis(4);
/// How long an open breaker quarantines the node before probing.
const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(4);
/// How long the half-open probe must stay storm-free to close.
const BREAKER_PROBE: SimDuration = SimDuration::from_millis(2);
/// Score per OutOfMemoryError charged to the node.
const OME_SCORE: u64 = 3;
/// Score per full collection.
const FULL_GC_SCORE: u64 = 1;
/// Score per long-and-useless collection.
const USELESS_GC_SCORE: u64 = 2;

/// Breaker state: closed (healthy) → open (quarantined, drained) →
/// half-open (probing) → closed, re-opening on any storm during the
/// probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: schedulable.
    Closed,
    /// Quarantined until the instant.
    Open(SimTime),
    /// Probing: schedulable again, closing at the instant if no storm.
    HalfOpen(SimTime),
}

/// A state transition the service should trace and act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Tripped: quarantine and drain the node.
    Opened,
    /// Cooldown elapsed: admit probes.
    HalfOpened,
    /// Probe survived: fully schedulable again.
    Closed,
}

impl BreakerTransition {
    /// Stable label for tracer payloads.
    pub fn label(self) -> &'static str {
        match self {
            BreakerTransition::Opened => "open",
            BreakerTransition::HalfOpened => "half_open",
            BreakerTransition::Closed => "closed",
        }
    }
}

/// One node's circuit breaker over its recent OME/pause storm score.
#[derive(Clone, Debug)]
pub struct Breaker {
    state: BreakerState,
    /// `(instant, score)` samples inside the sliding window.
    samples: VecDeque<(SimTime, u64)>,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            samples: VecDeque::new(),
        }
    }
}

impl Breaker {
    /// Scores one round's storm contribution.
    pub fn score(omes: u64, full_gcs: u64, useless_gcs: u64) -> u64 {
        omes.saturating_mul(OME_SCORE)
            + full_gcs.saturating_mul(FULL_GC_SCORE)
            + useless_gcs.saturating_mul(USELESS_GC_SCORE)
    }

    /// Records a non-zero storm sample.
    pub fn record(&mut self, now: SimTime, score: u64) {
        if score > 0 {
            self.samples.push_back((now, score));
        }
    }

    /// Advances the state machine to `now`; returns the transition that
    /// fired, if any. At most one transition fires per step, so a
    /// quarantine always lasts at least one scheduling round.
    pub fn step(&mut self, cfg: &BreakerConfig, now: SimTime) -> Option<BreakerTransition> {
        while let Some(&(at, _)) = self.samples.front() {
            if now.since(at) > BREAKER_WINDOW {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        match self.state {
            BreakerState::Closed => {
                let sum: u64 = self.samples.iter().map(|&(_, s)| s).sum();
                if sum >= cfg.trip_score {
                    self.state = BreakerState::Open(now + BREAKER_COOLDOWN);
                    self.samples.clear();
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            BreakerState::Open(until) => {
                if now >= until {
                    self.state = BreakerState::HalfOpen(now + BREAKER_PROBE);
                    self.samples.clear();
                    Some(BreakerTransition::HalfOpened)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen(until) => {
                if !self.samples.is_empty() {
                    // The probe stormed: straight back to quarantine.
                    self.state = BreakerState::Open(now + BREAKER_COOLDOWN);
                    self.samples.clear();
                    Some(BreakerTransition::Opened)
                } else if now >= until {
                    self.state = BreakerState::Closed;
                    Some(BreakerTransition::Closed)
                } else {
                    None
                }
            }
        }
    }

    /// Sum of the storm samples still inside the sliding window at
    /// `now`, without mutating the sample queue.
    pub fn windowed_score(&self, now: SimTime) -> u64 {
        self.samples
            .iter()
            .filter(|&&(at, _)| now.since(at) <= BREAKER_WINDOW)
            .map(|&(_, s)| s)
            .sum()
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the node must be excluded from placement (open only;
    /// half-open nodes take probe traffic by design).
    pub fn quarantined(&self) -> bool {
        matches!(self.state, BreakerState::Open(_))
    }
}

/// Brownout configuration: sustained cluster-wide pressure proactively
/// tightens the memory-aware gate and deflates active ITask jobs
/// before the full-GC cliff, instead of waiting for OMEs.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// Active-job ceiling while browned out (tightens `max_active`).
    pub max_active: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig { max_active: 2 }
    }
}

/// Enter brownout after the worst node's free-heap ratio stays below
/// this for [`SUSTAIN_ROUNDS`] consecutive rounds.
const ENTER_FREE_RATIO: f64 = 0.25;
/// Leave brownout once the worst ratio recovers to this (hysteresis:
/// strictly above [`ENTER_FREE_RATIO`]).
const EXIT_FREE_RATIO: f64 = 0.45;
/// Consecutive low-pressure rounds required to enter.
const SUSTAIN_ROUNDS: u32 = 3;

/// Brownout state machine: a low-ratio streak counter with hysteresis.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrownoutState {
    streak: u32,
    /// When the current window opened (`None` = not browned out).
    since: Option<SimTime>,
    /// Rounds spent inside the current window.
    rounds: u64,
}

impl BrownoutState {
    /// Observes one round's worst free-heap ratio; returns `true` on
    /// the activation edge and `Some((since, rounds))` on deactivation.
    pub fn observe(&mut self, min_free_ratio: f64, now: SimTime) -> (bool, Option<(SimTime, u64)>) {
        match self.since {
            None => {
                if min_free_ratio < ENTER_FREE_RATIO {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                }
                if self.streak >= SUSTAIN_ROUNDS {
                    self.since = Some(now);
                    self.rounds = 0;
                    self.streak = 0;
                    (true, None)
                } else {
                    (false, None)
                }
            }
            Some(since) => {
                self.rounds += 1;
                if min_free_ratio >= EXIT_FREE_RATIO {
                    let window = (since, self.rounds);
                    self.since = None;
                    self.rounds = 0;
                    (false, Some(window))
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Whether the service is currently browned out.
    pub fn active(&self) -> bool {
        self.since.is_some()
    }

    /// The current window, if browned out (for end-of-run flushing).
    pub fn window(&self) -> Option<(SimTime, u64)> {
        self.since.map(|s| (s, self.rounds))
    }
}

/// The optional overload-control add-ons a service run can arm. All
/// `None`/default-off, so pre-existing configurations behave (and
/// print) exactly as before.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverloadConfig {
    /// Per-node OME-storm circuit breaker.
    pub breaker: Option<BreakerConfig>,
    /// Cluster-wide brownout gate.
    pub brownout: Option<BrownoutConfig>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::NodeId;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn classification_splits_oom_from_substrate_faults() {
        let oom = SimError::OutOfMemory {
            node: NodeId(0),
            requested: simcore::ByteSize(1),
            free: simcore::ByteSize(0),
        };
        assert_eq!(classify(&oom), FailureClass::DeterministicOme);
        let lost = SimError::NodeLost { node: NodeId(1) };
        assert_eq!(classify(&lost), FailureClass::Transient);
    }

    #[test]
    fn flat_policy_reproduces_legacy_behavior() {
        let p = RetryPolicy::flat(2);
        assert_eq!(p.max_for(FailureClass::Transient), 2);
        assert_eq!(p.max_for(FailureClass::DeterministicOme), 2);
        assert!(p.budget.is_none());
        assert_eq!(p.backoff(42, 3, 9, 1), SimDuration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::budgeted();
        let a1 = p.backoff(42, 1, 5, 1);
        let a2 = p.backoff(42, 1, 5, 2);
        assert_eq!(a1, p.backoff(42, 1, 5, 1), "pure function of inputs");
        assert_ne!(a1, p.backoff(43, 1, 5, 1), "seed matters");
        assert_ne!(a1, p.backoff(42, 2, 5, 1), "tenant matters");
        // Jitter spans [0.5, 1.5): attempt 2's floor (base*2*0.5) equals
        // attempt 1's ceiling, so compare against the jitter-free means.
        assert!(a1.as_nanos() >= p.base_backoff.as_nanos() / 2);
        assert!(a1.as_nanos() < p.base_backoff.as_nanos() * 3 / 2);
        assert!(a2.as_nanos() >= p.base_backoff.as_nanos());
        // Deep attempts stay at the ceiling regardless of shift.
        let deep = p.backoff(42, 1, 5, 40);
        assert!(deep.as_nanos() < p.max_backoff.as_nanos() * 3 / 2);
    }

    #[test]
    fn token_bucket_spends_and_refills_on_virtual_time() {
        let cfg = RetryBudget { capacity: 2 };
        let mut b = TokenBucket::new(&cfg, t(0));
        assert!(b.try_take(&cfg, t(0)));
        assert!(b.try_take(&cfg, t(0)));
        assert!(!b.try_take(&cfg, t(0)), "empty");
        assert!(!b.try_take(&cfg, t(3)), "not yet refilled");
        assert!(b.try_take(&cfg, t(4)), "one period banked one token");
        assert!(!b.try_take(&cfg, t(4)));
        // Long idle refills to capacity, never beyond.
        assert_eq!(b.balance(&cfg, t(1_000)), 2);
    }

    #[test]
    fn breaker_walks_open_half_open_closed() {
        let cfg = BreakerConfig::default();
        let mut b = Breaker::default();
        assert_eq!(Breaker::score(1, 1, 1), 6);
        b.record(t(1), 3);
        assert_eq!(b.step(&cfg, t(1)), None, "below threshold");
        assert!(!b.quarantined());
        b.record(t(2), 3);
        assert_eq!(b.step(&cfg, t(2)), Some(BreakerTransition::Opened));
        assert!(b.quarantined());
        assert_eq!(b.step(&cfg, t(5)), None, "still cooling down");
        assert_eq!(b.step(&cfg, t(6)), Some(BreakerTransition::HalfOpened));
        assert!(!b.quarantined(), "half-open admits probes");
        assert_eq!(b.step(&cfg, t(7)), None, "still probing");
        assert_eq!(b.step(&cfg, t(8)), Some(BreakerTransition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_reopens_when_probe_storms() {
        let cfg = BreakerConfig { trip_score: 2 };
        let mut b = Breaker::default();
        b.record(t(0), 2);
        assert_eq!(b.step(&cfg, t(0)), Some(BreakerTransition::Opened));
        let until = match b.state() {
            BreakerState::Open(u) => u,
            s => panic!("expected open, got {s:?}"),
        };
        assert_eq!(b.step(&cfg, until), Some(BreakerTransition::HalfOpened));
        b.record(until, 1);
        assert_eq!(
            b.step(&cfg, until),
            Some(BreakerTransition::Opened),
            "any storm during the probe re-trips"
        );
    }

    #[test]
    fn breaker_window_forgets_old_storms() {
        let cfg = BreakerConfig { trip_score: 4 };
        let mut b = Breaker::default();
        b.record(t(0), 3);
        assert_eq!(b.step(&cfg, t(0)), None);
        // The old sample ages out before the next one lands.
        b.record(t(5), 3);
        assert_eq!(b.step(&cfg, t(5)), None, "3 < 4 after expiry");
        b.record(t(6), 1);
        assert_eq!(b.step(&cfg, t(6)), Some(BreakerTransition::Opened));
    }

    #[test]
    fn windowed_score_sums_only_fresh_samples_without_mutating() {
        let mut b = Breaker::default();
        b.record(t(0), 3);
        b.record(t(1), 2);
        assert_eq!(b.windowed_score(t(1)), 5);
        assert_eq!(b.windowed_score(t(4)), 5, "the window is 4ms, inclusive");
        assert_eq!(b.windowed_score(t(5)), 2);
        // Both samples are outside the window at t(6); the query must
        // not drop them from the queue either (repeat reads agree).
        assert_eq!(b.windowed_score(t(6)), 0);
        assert_eq!(b.windowed_score(t(1)), 5);
    }

    #[test]
    fn brownout_requires_sustained_pressure_and_exits_on_hysteresis() {
        let mut s = BrownoutState::default();
        assert_eq!(s.observe(0.2, t(1)), (false, None), "one low round");
        assert_eq!(s.observe(0.8, t(2)), (false, None), "streak resets");
        assert_eq!(s.observe(0.2, t(3)), (false, None));
        assert_eq!(s.observe(0.1, t(4)), (false, None));
        assert_eq!(s.observe(0.2, t(5)), (true, None), "sustained: on");
        assert!(s.active());
        // 0.4 is above enter but below exit: stays browned out.
        assert_eq!(s.observe(0.4, t(6)), (false, None));
        assert!(s.active());
        let (on, off) = s.observe(0.45, t(7));
        assert!(!on);
        assert_eq!(off, Some((t(5), 2)), "window reports entry and rounds");
        assert!(!s.active());
    }
}
