#![warn(missing_docs)]

//! Shared primitives for the ITask (SOSP '15) reproduction.
//!
//! Everything in the reproduction runs on *virtual time*: the cluster,
//! heap, disk and network are deterministic cost models advanced by the
//! simulation, never by wall-clock measurement. This crate provides the
//! time axis ([`SimTime`], [`SimDuration`]), the cost-model constants
//! ([`CostModel`]), deterministic randomness ([`rng`]), byte-size helpers,
//! identifier types, the integer-key hasher ([`hash`]), the shared error
//! type and the three instruments
//! ([`tracer`], [`metrics`], [`prof`]). The tracer's per-run stream is the
//! only record of what a run did; the paper's timeline figures are
//! rebuilt from it.

pub mod bytes;
pub mod cost;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod jbloat;
pub mod metrics;
pub mod prof;
pub mod rng;
pub mod sketch;
pub mod time;
pub mod tracer;

pub use bytes::{ByteSize, GIB, KIB, MIB};
pub use cost::CostModel;
pub use error::{SimError, SimResult};
pub use fault::{
    FaultInjector, FaultPlan, FaultStats, LinkState, NetFault, NetFaultKind, NodeCrash, ReadFault,
    WriteFault,
};
pub use hash::KeyMap;
pub use ids::{JobId, NodeId, PartitionId, SpaceId, TaskId, ThreadId};
pub use jbloat::HeapSized;
pub use rng::DetRng;
pub use sketch::{QuantileSketch, SketchSnapshot};
pub use time::{SimDuration, SimTime};

/// The global data/heap scale of the reproduction relative to the paper.
///
/// A "72GB" dataset in the paper is `72GB / SCALE = 72MiB` of simulated
/// payload here, and a "12GB" node heap is 12MiB. All cost-model terms are
/// linear in bytes/tuples, so every *ratio* the paper reports (speedups, GC
/// fractions, scalability factors) is invariant under this scaling; harness
/// output multiplies virtual time by `SCALE` when printing
/// "paper-equivalent" seconds.
pub const SCALE: u64 = 1024;
