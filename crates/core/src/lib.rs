#![warn(missing_docs)]

//! **ITask**: interruptible data-parallel tasks — the core contribution
//! of *"Interruptible Tasks: Treating Memory Pressure As Interrupts for
//! Highly Scalable Data-Parallel Programs"* (SOSP '15), reproduced on a
//! simulated managed runtime.
//!
//! An ITask is a data-parallel task that can be **interrupted when
//! memory pressure appears** — with part or all of its consumed memory
//! reclaimed — and **resumed when the pressure goes away**. The paper's
//! two components are both here:
//!
//! * **Programming model** ([`task`], [`partition`]): tasks implement
//!   `initialize` / `process` / `interrupt` / `cleanup` over
//!   cursor-tracked [`partition::VecPartition`]s; the [`task::Scale`]
//!   adapter supplies the scale loop of Figure 4 with its per-tuple safe
//!   points. Multi-input aggregation tasks (`MITask`) are expressed as
//!   [`task::TaskKind::Multi`] vertices whose inputs are grouped by
//!   [`partition::Tag`].
//! * **Runtime system (IRS)** ([`runtime`], [`monitor`], [`manager`],
//!   [`scheduler`], [`queue`]): a per-node controller that watches for
//!   long-and-useless GCs, lazily serializes queued partitions
//!   (temporal-locality + finish-line retention rules), cooperatively
//!   interrupts victim instances (MITask-first / finish-line / speed
//!   rules) and re-grows parallelism when memory frees up.
//!
//! # Examples
//!
//! A minimal interruptible word-count task wired into a single-node IRS
//! lives in the crate's integration tests
//! (`crates/core/tests/irs_end_to_end.rs`) and, at full scale, in the
//! `apps` crate (`apps::hyracks_apps::wc`).

pub mod deflate;
pub mod graph;
pub mod input;
pub mod manager;
pub mod monitor;
pub mod paper;
pub mod partition;
pub mod queue;
pub mod runtime;
pub mod scheduler;
pub mod stats;
pub mod task;
mod worker;

pub use deflate::{live_budget_for_pause, predicted_full_pause, StateGuard};
pub use graph::TaskGraph;
pub use input::{offer_in_memory, offer_serialized};
pub use manager::{DeserRecovery, SerializeMode};
pub use monitor::{MemSignal, Monitor};
pub use partition::{
    Partition, PartitionBox, PartitionMeta, PartitionState, Tag, Tuple, VecPartition,
};
pub use runtime::{FinalOutput, InterruptMode, Irs, IrsConfig, IrsHandle};
pub use scheduler::VictimPolicy;
pub use stats::{IrsStats, ReclaimBreakdown};
pub use task::{scale_loop, ITask, InstanceSpaces, Scale, TaskCx, TaskKind, TupleTask};
