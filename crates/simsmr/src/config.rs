//! Quorum, workload and runtime-policy knobs for one SMR run.

use simcore::{ByteSize, FaultPlan, SimDuration};

/// Which runtime drives the replicas' memory behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeMode {
    /// No pressure mitigation: the applied state inflates until the
    /// collector hits the full-GC cliff at peak occupancy.
    Regular,
    /// IRS deflation: a per-node [`itask_core::StateGuard`] converts GC
    /// records and hover-target deficits into REDUCE-style deflation of
    /// the applied state, keeping the live set — and with it the worst
    /// full-collection pause — low on every replica.
    Itask,
    /// [`RuntimeMode::Itask`] plus election awareness: the driver prices
    /// the leader's *next* full collection every round and deflates
    /// pre-emptively whenever it could outlast half the election
    /// timeout, so a GC pause can never depose a healthy leader.
    ItaskElect,
}

impl RuntimeMode {
    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeMode::Regular => "regular",
            RuntimeMode::Itask => "itask",
            RuntimeMode::ItaskElect => "itask+elect",
        }
    }
}

/// In-heap expansion factor of an applied entry: each commit grows the
/// aggregation state by `payload * EXPANSION` live bytes (the paper's
/// "memory-hungry aggregation" — pointer-rich deserialized form, §2).
pub const EXPANSION: u64 = 4;

/// Transient-garbage factor: applying an entry also allocates and
/// immediately drops `payload * CHURN` young bytes (parse buffers,
/// temporaries), which sets the minor-GC cadence.
pub(crate) const CHURN: u64 = 24;

/// Max proposals in flight (leader window).
pub(crate) const WINDOW: usize = 8;

/// Leader heartbeat period.
pub(crate) const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(1);

/// Follower election timeout: a follower that has not seen a heartbeat
/// for this long starts a view change.
pub(crate) const ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(6);

/// Fixed cost of a view change on top of the announcement RPCs.
pub(crate) const ELECTION_OVERHEAD: SimDuration = SimDuration::from_millis(1);

/// The deflation guard's hover target, percent free (ITask modes). It
/// doubles as the live-set ceiling: latency-SLO machines hover much
/// higher than batch jobs (free ≥ 80% vs the batch 40%) because commit
/// tails scale with the live set, not with throughput.
pub(crate) const SERIALIZE_FREE_PCT: u8 = 80;

/// Minimum deflation request; smaller hover deficits are deferred so
/// serialization happens in batched, accountable chunks.
pub(crate) const DEFLATE_CHUNK: ByteSize = ByteSize::kib(256);

/// Configuration of one SMR run.
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// Quorum size (odd; 3 or 5 in the benches).
    pub nodes: usize,
    /// Log entries to commit.
    pub entries: u64,
    /// Serialized (wire) bytes of one log entry.
    pub payload: ByteSize,
    /// Managed-heap capacity per node.
    pub heap_per_node: ByteSize,
    /// Runtime policy.
    pub mode: RuntimeMode,
    /// Scheduled faults (node crashes) to install, if any.
    pub faults: Option<FaultPlan>,
    /// Seed for the deterministic per-index payload digests.
    pub seed: u64,
    /// Unread; only caller: `benchmark/src/workloads.rs`, delete with
    /// the next benchmark PR.
    #[doc(hidden)]
    pub shards: usize,
}

impl SmrConfig {
    /// A quorum of `nodes` replicas under `mode`, with workload defaults
    /// sized so the full log inflates to ~12.5 MiB of live state.
    pub fn new(nodes: usize, mode: RuntimeMode) -> Self {
        SmrConfig {
            nodes,
            entries: 400,
            payload: ByteSize::kib(8),
            heap_per_node: ByteSize::mib(32),
            mode,
            faults: None,
            seed: 0x5acb_909d,
            shards: 0,
        }
    }

    /// Live bytes the aggregation state reaches once the whole log is
    /// applied: `entries * payload * EXPANSION`.
    pub fn live_total(&self) -> ByteSize {
        self.payload * EXPANSION * self.entries
    }

    /// Sizes the per-node heap so the fully-applied state occupies
    /// `pct`% of capacity — the bench's heap-pressure tiers.
    pub fn with_pressure(mut self, pct: u64) -> Self {
        self.heap_per_node = self.live_total().mul_ratio(100, pct.clamp(1, 100));
        self
    }

    /// Shrinks the log for smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.entries = 160;
        self
    }

    /// Installs a fault plan (scheduled node crashes).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Majority size of the quorum.
    pub fn majority(&self) -> usize {
        self.nodes / 2 + 1
    }
}
