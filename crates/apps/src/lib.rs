#![warn(missing_docs)]

//! The paper's benchmark applications, each in a *regular* and an
//! *ITask* version:
//!
//! * Hyracks programs (§6.2): word count (WC), heap sort (HS), inverted
//!   index (II), hash join (HJ), group-by (GR) — [`hyracks_apps`];
//! * Hadoop programs (§6.1): the 13 reproduced StackOverflow problems,
//!   [`hadoop_apps::PROBLEMS`], five of them detailed in Table 1 —
//!   map-side aggregation (MSA), in-map combiner (IMC), inverted-index
//!   building (IIB), word co-occurrence matrix (WCM), customer review
//!   processing (CRP).
//!
//! Most programs are keyed aggregations and instantiate the generic
//! machinery in [`agg`]: a `Mid` tuple type that is both the shuffled
//! unit and the mergeable accumulator, exploded from input records on
//! the map side and folded on both sides. The interrupt semantics of
//! the ITask versions follow the paper's Figures 6–7: map interrupts
//! push partial results straight to the shuffle, reduce interrupts tag
//! partial aggregates for the merge MITask, merge interrupts re-queue
//! to themselves.

pub mod agg;
pub mod hadoop_apps;
pub mod hyracks_apps;
pub mod mids;
pub mod summary;

pub use agg::{AggSpec, MergeableTuple};
pub use mids::{CountMid, JoinMid, ListMid, OutKv, SortMid, StripeMid};
pub use summary::RunSummary;
