//! The per-node replica: one long-lived [`Work`] per cluster node that
//! applies replicated log entries into a heap-backed aggregation state
//! and acknowledges them back to the driver.
//!
//! The replica is deliberately *dumb*: consensus bookkeeping (views,
//! quorums, commits) lives in the driver ([`crate::engine`]); the work
//! only models where the memory goes. Applying an entry charges
//! deserialize/apply CPU, allocates transient parse garbage (dropped
//! immediately — it dies young and sets the minor-GC cadence) and grows
//! the live aggregation state by the entry's in-heap expansion. GC
//! pauses triggered by those allocations advance the node clock
//! stop-the-world, which is exactly how a collection stalls the
//! append → ack → commit path.
//!
//! Under the ITask runtimes the driver also enqueues
//! [`Cmd::Deflate`] commands; the replica then serializes a slice of
//! its state, writes it behind
//! (async disk, like the paper's background serialization threads) and
//! frees the heap bytes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use simcluster::{StepOutcome, Work, WorkCx};
use simcore::rng::stable_hash64;
use simcore::{metrics, ByteSize, CostModel, NodeId, SimResult, SimTime, SpaceId};
use simmem::Heap;

use crate::config::{SmrConfig, CHURN, EXPANSION};

/// Deterministic digest of the payload proposed at `index` (the log's
/// contents are synthetic; only identity matters for safety checks).
pub fn payload_digest(seed: u64, index: u64) -> u64 {
    stable_hash64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A driver → replica command.
#[derive(Clone, Copy, Debug)]
pub enum Cmd {
    /// Apply the entry at `index` once the node clock reaches
    /// `ready_at` (the append-entries RPC's arrival time).
    Apply {
        /// 1-based log index.
        index: u64,
        /// Virtual arrival time of the RPC.
        ready_at: SimTime,
    },
    /// Deflate up to `target` live bytes of aggregation state.
    Deflate {
        /// Bytes the IRS asked to release.
        target: ByteSize,
    },
}

/// A replica → driver acknowledgement: entry `index` is applied.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// 1-based log index.
    pub index: u64,
    /// Node-clock time the apply finished (the ack's send time).
    pub done_at: SimTime,
    /// Running digest of the node's applied sequence through `index`.
    pub digest: u64,
}

/// The driver's end of one replica's mailbox.
///
/// The driver and the replica never run at the same time — replicas
/// step inside a round and the driver works between rounds — and each
/// side touches each cell once per turn: the driver hands over a
/// round's commands with one [`Mailbox::deliver`] and takes a round's
/// acks with one [`Mailbox::collect`]; the replica holds the inbox for
/// one whole step and publishes its acks and counters when the step
/// ends.
pub struct Mailbox(Rc<Shared>);

/// What the two ends of a mailbox share.
#[derive(Default)]
struct Shared {
    inbox: RefCell<VecDeque<Cmd>>,
    outbox: RefCell<Vec<Ack>>,
    stats: Cell<ReplicaStats>,
}

impl Mailbox {
    /// Appends `staged` to the replica's command queue in order, leaving
    /// `staged` empty (and its allocation with the caller).
    pub fn deliver(&self, staged: &mut Vec<Cmd>) {
        self.0.inbox.borrow_mut().extend(staged.drain(..));
    }

    /// Replaces the contents of `acks` with everything the replica
    /// acknowledged since the last call, in apply order. The two buffers
    /// trade places, so neither side allocates in steady state.
    pub fn collect(&self, acks: &mut Vec<Ack>) {
        acks.clear();
        std::mem::swap(&mut *self.0.outbox.borrow_mut(), acks);
    }

    /// The replica's counters as of its last completed step.
    pub fn stats(&self) -> ReplicaStats {
        self.0.stats.get()
    }
}

/// Engine-readable replica counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaStats {
    /// Entries applied (first time).
    pub applied: u64,
    /// Re-replicated duplicates acknowledged without re-execution.
    pub dupes: u64,
    /// Deflation rounds performed.
    pub deflations: u64,
    /// Live bytes released by deflation.
    pub deflated: ByteSize,
}

/// The heap-backed aggregation state one replica accumulates.
struct AppliedState {
    space: SpaceId,
    live: ByteSize,
    last_applied: u64,
    /// `digests[i]` is the running digest through index `i + 1`.
    digests: Vec<u64>,
}

impl AppliedState {
    /// Releases up to `target` live bytes from `heap` (serialized and
    /// freed); returns the bytes freed.
    fn deflate(&mut self, heap: &mut Heap, target: ByteSize) -> ByteSize {
        let freed = heap.free(self.space, target.min(self.live));
        self.live = self.live.saturating_sub(freed);
        freed
    }
}

/// The state machine behind the mailbox: everything a step touches
/// per command, none of it shared.
struct Applier {
    node: NodeId,
    state: AppliedState,
    payload: ByteSize,
    seed: u64,
    /// Counters so far; published to the mailbox when a step ends.
    stats: ReplicaStats,
    /// Acks of the step in progress; published when it ends.
    acks: Vec<Ack>,
}

/// One replica's simulated thread body.
pub struct ReplicaWork {
    mailbox: Rc<Shared>,
    stop: Rc<Cell<bool>>,
    sm: Applier,
}

impl ReplicaWork {
    /// Builds a replica for `node` applying into `space`, returning the
    /// work plus the driver's end of its mailbox.
    pub fn new(
        node: NodeId,
        space: SpaceId,
        cfg: &SmrConfig,
        stop: Rc<Cell<bool>>,
    ) -> (Self, Mailbox) {
        let mailbox = Rc::<Shared>::default();
        let work = ReplicaWork {
            mailbox: mailbox.clone(),
            stop,
            sm: Applier {
                node,
                state: AppliedState {
                    space,
                    live: ByteSize::ZERO,
                    last_applied: 0,
                    digests: Vec::with_capacity(cfg.entries as usize),
                },
                payload: cfg.payload,
                seed: cfg.seed,
                stats: ReplicaStats::default(),
                acks: Vec::new(),
            },
        };
        (work, Mailbox(mailbox))
    }
}

impl Applier {
    fn ack(&mut self, index: u64, done_at: SimTime) {
        let digest = self.state.digests[index as usize - 1];
        self.acks.push(Ack {
            index,
            done_at,
            digest,
        });
    }

    fn apply(&mut self, cx: &mut WorkCx<'_>, index: u64) -> SimResult<()> {
        if index <= self.state.last_applied {
            // Re-replication after a view change: the entry is already
            // in the state; acknowledge without re-executing.
            cx.charge(CostModel::tuple_cost(ByteSize::ZERO));
            self.stats.dupes += 1;
            self.ack(index, cx.now());
            return Ok(());
        }
        debug_assert_eq!(
            index,
            self.state.last_applied + 1,
            "log entries arrive in order"
        );
        cx.charge(CostModel::tuple_cost(self.payload));
        let churn = self.payload * CHURN;
        if !churn.is_zero() {
            cx.alloc(self.state.space, churn)?;
            cx.free(self.state.space, churn);
        }
        let grow = self.payload * EXPANSION;
        cx.alloc(self.state.space, grow)?;
        self.state.live += grow;
        self.state.last_applied = index;
        let prev = self.state.digests.last().copied().unwrap_or(self.seed);
        self.state
            .digests
            .push(stable_hash64(prev ^ payload_digest(self.seed, index)));
        self.stats.applied += 1;
        self.ack(index, cx.now());
        Ok(())
    }

    fn run_deflate(&mut self, cx: &mut WorkCx<'_>, target: ByteSize) {
        let freed = self.state.deflate(&mut cx.node().heap, target);
        if freed.is_zero() {
            return;
        }
        cx.charge(CostModel::serialize_cpu(freed));
        // The serialized form sheds the in-heap expansion; write it
        // behind like the paper's background serialization threads.
        let serialized = freed.mul_ratio(1, EXPANSION);
        let label = format!("smr.deflate.n{}", self.node.as_usize());
        let _ = cx.node().disk_write_async(label, serialized);
        self.stats.deflations += 1;
        self.stats.deflated += freed;
        if metrics::is_enabled() {
            let node = Some(self.node);
            metrics::counter_add(node, metrics::Metric::IrsDeflations, cx.now(), 1);
            metrics::counter_add(
                node,
                metrics::Metric::IrsDeflatedBytes,
                cx.now(),
                freed.as_u64(),
            );
        }
    }

    /// Runs commands off the front of `inbox` until the quantum is
    /// spent, the queue is empty, the head's RPC is still on the wire,
    /// or an apply fails.
    fn drain(&mut self, cx: &mut WorkCx<'_>, inbox: &mut VecDeque<Cmd>) -> StepOutcome {
        let mut outcome = StepOutcome::Waiting;
        while !cx.out_of_quantum() {
            match inbox.front().copied() {
                None => return outcome,
                // Head-of-line: nothing overtakes an RPC on the wire.
                Some(Cmd::Apply { ready_at, .. }) if cx.now() < ready_at => return outcome,
                Some(Cmd::Apply { index, .. }) => {
                    inbox.pop_front();
                    if let Err(e) = self.apply(cx, index) {
                        return StepOutcome::Failed(e);
                    }
                }
                Some(Cmd::Deflate { target }) => {
                    inbox.pop_front();
                    self.run_deflate(cx, target);
                }
            }
            outcome = StepOutcome::Ran;
        }
        StepOutcome::Ran
    }
}

impl Work for ReplicaWork {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        if self.stop.get() {
            return StepOutcome::Finished;
        }
        let outcome = self.sm.drain(cx, &mut self.mailbox.inbox.borrow_mut());
        // A step that failed publishes too: the acks it produced before
        // the failing command are real.
        if !matches!(outcome, StepOutcome::Waiting) {
            self.mailbox.outbox.borrow_mut().append(&mut self.sm.acks);
            self.mailbox.stats.set(self.sm.stats);
        }
        outcome
    }

    fn label(&self) -> String {
        format!("smr[n{}]", self.sm.node.as_usize())
    }
}
