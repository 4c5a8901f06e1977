#![warn(missing_docs)]

//! A Hadoop-like MapReduce engine on the cluster simulator.
//!
//! What distinguishes it from the Hyracks engine (and drives Table 1):
//!
//! * **per-task JVMs** — every regular task attempt runs in its own heap
//!   of `MH` (map) or `RH` (reduce) bytes, with `MM`/`MR` concurrent
//!   slots per node (the framework parameters the StackOverflow fixes
//!   keep tuning);
//! * **sort-buffer spills** — map output is buffered up to `io.sort.mb`
//!   and spilled to disk, so framework buffers never OME; the crashes
//!   come from *user* state, exactly as in the studied problems;
//! * **YARN-style retries** — an attempt that dies with an OME is
//!   rescheduled until [`MAX_ATTEMPTS`] is exhausted, which is why the
//!   paper's CTime (time to the final crash) dwarfs PTime; relaunches
//!   after a transient substrate fault count against the same budget,
//!   once per task;
//! * **the ITask version** pools each node's task memory (`MM × MH`)
//!   under one IRS instead of fencing it per task, which is where its
//!   advantage over manual tuning comes from.
//!
//! There is no Hadoop operator API: user code is a
//! [`hyracks::Operator`], and an attempt ([`attempt`]) runs it on the
//! one regular frame loop, [`hyracks::OperatorWorker`], in its own task
//! JVM. Map and reduce differ only in the task heap and the
//! [`hyracks::Sink`] the worker emits into — the map side's
//! spill-managed sort buffer or the reduce side's HDFS writer. [`job`]
//! places the attempt outcomes on slots and reports attempts and spills
//! as the `hadoop.map_attempts`, `hadoop.reduce_attempts` and
//! `hadoop.spills` counters.

pub mod attempt;
pub mod config;
pub mod itask;
pub mod job;
mod task;

pub use attempt::{
    run_map_attempt_retrying, run_reduce_attempt_retrying, AttemptOutcome, AttemptResult,
};
pub use config::{HadoopConfig, MAX_ATTEMPTS};
pub use itask::{run_itask_job, ITASK_BUCKET_MULTIPLIER};
pub use job::run_regular_job;
