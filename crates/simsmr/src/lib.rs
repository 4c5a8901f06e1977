#![warn(missing_docs)]

//! **simsmr**: a GC-sensitive replicated state machine on the cluster
//! simulator, with a latency-SLO lens.
//!
//! Every other scenario in this reproduction judges the runtime by
//! throughput or survival. This crate judges it by *tail latency*: a
//! deterministic leader/follower quorum (3 or 5 nodes) commits a
//! replicated log over the simnet fabric, and every node applies a
//! memory-hungry aggregation state to its managed heap — so the
//! stop-the-world pauses modelled by `simmem` land directly on the
//! append → replicate → quorum-ack → commit path. "The Cost of Garbage
//! Collection for State Machine Replication" (arXiv:2405.11182) shows
//! GC pause timelines dominating SMR tail latency; MURS
//! (arXiv:1703.08981) grounds pre-emptive pressure mitigation as the
//! fix. Here the fix is the paper's IRS: REDUCE-style deflation of the
//! applied state *before* the full-GC cliff.
//!
//! Three runtimes face off (see [`RuntimeMode`]):
//!
//! * **Regular** — the leader stalls through every full-GC cliff; at
//!   high heap pressure a pause outlasts the heartbeat timeout and
//!   triggers a view change on top of the pause.
//! * **ITask** — an IRS [`itask_core::StateGuard`] watches each node's
//!   GC records and deflates the applied state (serialize + free) to
//!   hover the live set low, so full collections stay cheap.
//! * **ITask + election-aware** — additionally prices the *next* full
//!   collection on the leader ([`itask_core::predicted_full_pause`])
//!   and deflates pre-emptively whenever that pause could outlast the
//!   election timeout, keeping the quorum stable by construction.
//!
//! Everything runs in virtual time, one [`simcluster::run_round`] per
//! driver iteration; leader election and view changes run off
//! heartbeat timeouts in the same virtual time, so a scheduled leader
//! crash ([`simcore::FaultPlan`]) or a long leader GC pause produces a
//! *deterministic* view change. Per-commit causal
//! chains (propose → replicate → ack → commit) emit through the
//! `simcore` tracer, and commit latencies accumulate in the existing
//! [`simcore::sketch::QuantileSketch`] for p50/p99/p99.9 reporting.

pub mod config;
pub mod engine;
pub mod replica;

pub use config::{RuntimeMode, SmrConfig, EXPANSION};
pub use engine::{run, SmrOutcome};
pub use replica::{payload_digest, Ack, Cmd, Mailbox, ReplicaWork};
