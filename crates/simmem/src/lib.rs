#![warn(missing_docs)]

//! A simulated managed heap with a generational stop-the-world collector.
//!
//! This crate is the substitute for the paper's JVM (see DESIGN.md §1).
//! Rust frees memory deterministically, so the phenomena the paper is
//! built around — garbage lingering until a collection runs, full-GC
//! pauses proportional to the live set, "long and useless" GCs (LUGC),
//! catchable out-of-memory errors — do not exist natively. [`Heap`]
//! recreates them as an explicit state machine:
//!
//! * allocations are grouped into [`space::SpaceInfo`]s (a task's local
//!   structures, a partition's deserialized form, an output buffer) that
//!   live and die together, mirroring how the ITask runtime reasons about
//!   a task's memory components (Figure 1 of the paper);
//! * *freeing* bytes only turns them into garbage — the heap stays full
//!   until a collection actually runs, which is exactly why ITask's
//!   interrupt-then-collect dance is needed;
//! * minor collections evacuate the young generation (cost ∝ survivors),
//!   full collections trace the whole live set (cost ∝ live + used);
//! * a full collection that cannot push free memory above `M%` of capacity
//!   is flagged useless ([`GcRecord::useless`]) — the LUGC signal the
//!   ITask monitor consumes;
//! * an allocation that still does not fit after a full collection fails
//!   with [`HeapError::OutOfMemory`], the simulation's OME.

pub mod gc;
pub mod heap;
pub mod space;

pub use gc::{GcKind, GcRecord, GcStats};
pub use heap::{AllocOutcome, Heap, HeapConfig, HeapError, LUGC_FREE_PCT};
pub use space::SpaceInfo;
