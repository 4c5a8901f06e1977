#![warn(missing_docs)]

//! A Hyracks-like push-based dataflow engine on the cluster simulator.
//!
//! Hyracks jobs are operator DAGs connected by hash connectors; the five
//! evaluation programs (WC, HS, II, HJ, GR) all compile to the same
//! two-phase shape — a partition-local operator, an all-to-all hash
//! shuffle, and a bucket-exclusive aggregation operator. [`job`] holds
//! that pipeline once, as a resumable machine any driver can sequence;
//! [`engine`] is the batch driver, running one job to completion:
//!
//! * [`engine::run_regular`] — the baseline: a fixed pool of worker
//!   threads per node (the paper's 1–8 thread sweep), frames of a
//!   configurable granularity (8–128KB), operator state held in memory
//!   for the whole phase. An OME anywhere kills the job, exactly like
//!   stock Hyracks.
//! * [`engine::run_itask`] — the same logical job built from ITasks: map
//!   instances push partial frames to the shuffle when interrupted,
//!   reduce instances tag partial aggregates for an MITask merge
//!   (Figures 6–7 of the paper), and the IRS adapts the number of
//!   instances to memory availability.

pub mod engine;
pub mod job;
pub mod operator;

pub use engine::{
    chunk_by, chunk_into_frames, distribute_blocks, run_itask, run_regular, ItaskFactories,
    ItaskJobSpec, JobSpec, ShuffleBatch,
};
pub use job::{Phase, ShuffleClocks, TwoPhaseJob};
pub use operator::{BucketArena, OpCx, Operator, OperatorWorker, OutputSink, Sink};
