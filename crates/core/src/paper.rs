//! Where each construct of the paper lives in this crate — a reading
//! guide from the SOSP '15 text to the code.
//!
//! # Programming model (paper §4, Figures 4–7)
//!
//! | paper construct | here |
//! |---|---|
//! | `DataPartition` abstract class (tag, cursor, `hasNext`/`next`, `serialize`/`deserialize`) | [`crate::partition::Partition`] + [`crate::partition::PartitionMeta`]; `(de)serialize` are [`crate::manager::serialize_partition`] / [`crate::manager::deserialize_partition`] |
//! | `ITask` abstract class (`initialize`/`process`/`interrupt`/`cleanup`) | [`crate::task::TupleTask`] |
//! | `scaleLoop` (Figure 4, lines 20–35: per-tuple loop with memory safe points) | [`crate::task::scale_loop`], which [`crate::task::Scale`]'s `process_batch` runs with the safe point armed and `hyracks::OperatorWorker` runs without it |
//! | `MITask` (multi-partition aggregation over a tag group, lazy `PartitionIterator`) | [`crate::task::TaskKind::Multi`] vertices; the worker feeds the tag group partition-by-partition, deserializing lazily |
//! | `setInputType`/`setOutputType` glue | [`crate::graph::TaskGraph::connect`] |
//! | `Monitor.hasMemoryPressure()` safe-point check | [`crate::task::scale_loop`]'s `pressure` check: free heap below [`simmem::LUGC_FREE_PCT`], every 32 tuples |
//! | `ITaskScheduler.pushToQueue` | [`crate::task::TaskCx::emit_to_task`] (intermediate results) and [`crate::input::offer_serialized`] / [`crate::input::offer_in_memory`] (inputs) |
//! | pushing a Map interrupt's buffer to the shuffle (Figure 6 line 11) | [`crate::task::TaskCx::emit_final`] |
//! | tagging a Reduce interrupt's output with the channel id (Figure 7 line 11) | [`crate::task::TaskCx::input_tag`] + `emit_to_task` |
//!
//! # Runtime system (paper §5, Figure 8)
//!
//! | paper construct | here |
//! |---|---|
//! | Monitor (LUGC → `REDUCE`, free ≥ N% → `GROW`; N = 20, M = 10) | [`crate::monitor::Monitor`]; N is the monitor's constant, M is [`simmem::LUGC_FREE_PCT`] |
//! | Partition manager (`SCANANDDUMP`, retention rules, anti-thrashing timestamps) | [`crate::manager`] + [`crate::queue::PartitionQueue`]; `SCANANDDUMP` is one loop in [`crate::runtime::Irs`], serializing in [`crate::manager::serialization_order`] until a free-memory target, run by a REDUCE and by steady-state growth alike |
//! | Scheduler (`INTERRUPTTASKINSTANCE`, `INCREASETASKINSTANCE`, the five priority rules) | [`crate::scheduler`] |
//! | the controller loop tying them together | [`crate::runtime::Irs::tick`] |
//! | slow-start warm-up (§5.1) | the GROW ramp in [`crate::runtime::Irs`] (one instance per tick under pressure, burst when >50% free) |
//! | Figure 1's staged reclamation (components 1–4) | the worker's one interrupt path (`ItaskWorker::interrupt`, which a node crash takes too): local space released, processed prefix dropped, finals pushed, intermediates tagged and queued, remainder left for lazy serialization |
//! | LUGC definition (§5.2: GC that cannot raise free memory above M%) | `simmem`'s `GcRecord::useless`, against [`simmem::LUGC_FREE_PCT`] |
//!
//! # Where this reproduction deliberately differs
//!
//! * The per-tuple `process(Tuple)` call sits behind a batch boundary
//!   ([`crate::task::ITask::process_batch`]) so the typed layer stays
//!   fast; safe points sit between tuples, but the pressure check runs
//!   every 32 tuples, not before each one.
//! * All IRS arithmetic uses *effective free* memory (capacity − live)
//!   instead of instantaneous free bytes, and serialization hovers at a
//!   higher watermark than the paper's literal `M%` — see DESIGN.md §7
//!   for the measurements behind both choices.
//! * Interrupt victims are marked one per controller tick rather than in
//!   a synchronous loop; convergence takes a few 100µs rounds instead of
//!   one pass.
