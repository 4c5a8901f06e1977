#![warn(missing_docs)]

//! Deterministic discrete-time cluster simulator.
//!
//! Stands in for the paper's 11-node EC2 testbed (DESIGN.md §1). Each
//! [`node::NodeState`] owns a simulated managed heap (`simmem`), a disk
//! (`simstore`) and a virtual clock; *simulated threads* ([`work::Work`]
//! implementations) run in quantum-sized steps under a processor-sharing
//! scheduler ([`sched::NodeSim`]). Garbage collections are stop-the-world:
//! their pauses advance the node clock for everyone, and their records are
//! drained by whoever controls the node (the ITask monitor, or nobody for
//! regular executions).
//!
//! Simulation time is virtual and every run is bit-for-bit
//! reproducible — a property the paper's wall-clock measurements cannot
//! have, and one we rely on to regenerate tables. One run is one
//! thread: the [`shard`] round runner steps nodes on the caller's
//! thread under stream-namespaced event ids, so trace bytes do not
//! depend on the order a driver visits nodes in, and host parallelism
//! lives outside the simulator (the bench crate's `--jobs` runs whole
//! simulations side by side).

pub mod cluster;
pub mod node;
pub mod report;
pub mod sched;
pub mod shard;
pub mod work;

pub use cluster::{Cluster, ClusterConfig};
pub use node::{NodeState, WorkCx, DEFAULT_IO_RETRIES};
pub use report::{JobOutcome, JobReport, NodeReport};
pub use sched::{NodeSim, RoundReport, ThreadState};
pub use shard::{run_node_round, run_round, run_solo_round, RoundRun};
#[doc(hidden)]
pub use shard::{set_shards, ShardExecutor};
pub use work::{StepOutcome, Work};
