//! A deterministic, virtual-time structured tracing subsystem.
//!
//! Every layer of the reproduction emits into this one stream: the heap
//! (GC pause spans, OMEs), the IRS (REDUCE/GROW signals and the
//! victim-mark → interrupt → serialize → re-activate chains), the node
//! scheduler (thread quanta, crashes), the engines (shuffle/frame
//! batches, crash re-homing) and the service layer (admission and job
//! lifecycle). Events carry `(node, scope, virtual start, duration)`
//! plus a typed payload and an optional *causal link* to the event that
//! triggered them, so a dump reconstructs the paper's Figure-3 timeline
//! — annotated interrupt/re-activation points over the memory curve —
//! rather than mere aggregate counters.
//!
//! Determinism contract: timestamps are virtual nanoseconds, event ids
//! are per-stream monotonic, and each run's buffer lives in a
//! thread-local installed by the sweep executor around the run closure.
//! Harvested buffers are merged in `(time, node, seq)` order, so a dump
//! is byte-identical no matter how `--jobs` spreads runs across OS
//! worker threads. Host wall-clock never enters the stream.
//!
//! Event ids are *stream-namespaced*: while a node's scheduling round
//! runs, a `(stream, seq)` cursor on the run buffer stamps emissions
//! with `(stream << 32) | seq` — stream 0 is the driver, stream `n + 1`
//! is node `n`. Because stream assignment follows code location (driver
//! code emits between rounds, node code emits inside its own round) and
//! each stream's `seq` advances with the node's own logical progress,
//! every event's id is a pure function of the simulation, independent
//! of the order a driver visits nodes within a round (the batch drive
//! runs crash-pending nodes out of band), and the `(time, node, id)`
//! merge yields one canonical order.
//!
//! Like [`crate::prof`], the tracer is process-global and disabled by
//! default; every emission entry point is a single relaxed atomic load
//! when disabled, cheap enough for simulator hot paths.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// Per-run monotonic event identifier; `EventId::NONE` (zero) means
/// "no event" (emission while disabled, or an absent causal link).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// The null id: no event / no causal link.
    pub const NONE: EventId = EventId(0);

    /// Whether this id refers to an actual event.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// The typed payload of one trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceData {
    /// A stop-the-world collection (span: duration = the pause).
    Gc {
        /// Full (whole-heap) vs minor (young-generation) collection.
        full: bool,
        /// Bytes reclaimed.
        reclaimed: u64,
        /// Free bytes after the collection.
        free_after: u64,
        /// Long-and-useless GC flag (paper §5.2; full collections only).
        useless: bool,
    },
    /// An allocation failed even after a full collection (OME).
    Oom {
        /// Bytes the failed allocation requested.
        requested: u64,
        /// Free bytes at the failure.
        free: u64,
    },
    /// The IRS monitor emitted a memory signal.
    Signal {
        /// REDUCE (`true`) or GROW (`false`).
        reduce: bool,
    },
    /// A running instance was marked for cooperative interrupt.
    VictimMarked {
        /// The victim's logical task.
        task: u32,
        /// The REDUCE signal that drove the marking.
        cause: EventId,
    },
    /// An instance completed an interrupt (cooperative or emergency).
    Interrupted {
        /// The instance's logical task.
        task: u32,
        /// Emergency self-interrupt (allocation failure) vs scheduled.
        emergency: bool,
        /// The victim-mark that requested it (none for emergencies).
        cause: EventId,
    },
    /// A queued partition was serialized (lazy or write-behind).
    Serialized {
        /// The partition.
        partition: u32,
        /// Heap bytes released.
        freed: u64,
        /// The REDUCE signal that drove it (none for steady-state).
        cause: EventId,
    },
    /// A task instance was activated on a partition or tag group.
    Activated {
        /// The logical task.
        task: u32,
        /// Partitions handed to the instance.
        partitions: u32,
        /// The interrupt that requeued its input (re-activations only).
        cause: EventId,
    },
    /// A task instance ended (finished, interrupted, failed, salvaged):
    /// one per `Activated`, so a +1/−1 replay gives live instances.
    Retired {
        /// The instance's logical task.
        task: u32,
    },
    /// A corrupt spill was rebuilt from lineage and re-read.
    CorruptionRecovered {
        /// The partition whose byte form was rebuilt.
        partition: u32,
    },
    /// An instance was salvaged off a crashed node post-mortem.
    CrashSalvaged {
        /// The salvaged instance's logical task.
        task: u32,
    },
    /// The node's runnable-thread count changed (emitted on change
    /// only, so quiescent rounds cost nothing).
    ThreadQuantum {
        /// Runnable threads after this round.
        running: u32,
    },
    /// The node crashed (fault-injection runs).
    NodeCrash,
    /// A partition was re-homed onto this node after a peer crash.
    Rehome {
        /// The re-homed partition.
        partition: u32,
        /// The crashed node it came from.
        from: u32,
    },
    /// One whole shuffle call, aggregated (span: duration = barrier).
    Shuffle {
        /// Batches routed.
        batches: u64,
        /// Payload bytes moved.
        bytes: u64,
        /// Total wire time summed over transfers.
        wire_ns: u64,
    },
    /// Record batches split into granularity-bounded frames (aggregated
    /// per node per phase).
    FrameChunk {
        /// Tuples framed.
        tuples: u64,
    },
    /// A job arrived in a tenant's admission queue.
    JobSubmitted {
        /// The owning tenant.
        tenant: u32,
    },
    /// The admission controller admitted a job.
    Admitted {
        /// The owning tenant.
        tenant: u32,
        /// Queue wait, nanoseconds (since the latest enqueue).
        wait_ns: u64,
    },
    /// A job completed successfully.
    JobCompleted {
        /// The owning tenant.
        tenant: u32,
        /// End-to-end latency since arrival, nanoseconds.
        latency_ns: u64,
    },
    /// A job failed (and was retried or charged).
    JobFailed {
        /// The owning tenant.
        tenant: u32,
        /// Whether the failure was an OutOfMemoryError.
        oom: bool,
        /// Whether the service requeued it for another attempt.
        retry: bool,
    },
    /// The admission controller shed a job instead of running it.
    Shed {
        /// The owning tenant.
        tenant: u32,
        /// Stable reason label (`deadline`, `queue_full`, `retry_budget`).
        reason: &'static str,
    },
    /// One round's OME/pause-storm contribution on a node (emitted only
    /// when non-zero; breaker trips cite the latest one as their cause).
    Storm {
        /// OutOfMemoryErrors charged to the node this round.
        omes: u64,
        /// Full collections observed this round.
        full_gcs: u64,
        /// Long-and-useless collections observed this round.
        useless_gcs: u64,
    },
    /// A node's OME-storm circuit breaker changed state.
    Breaker {
        /// New state (`open`, `half_open`, `closed`).
        state: &'static str,
        /// The storm sample that drove the transition (trips only).
        cause: EventId,
    },
    /// A cluster-wide brownout window (span: duration = how long the
    /// service held the tightened gate).
    Brownout {
        /// Scheduling rounds spent inside the window.
        rounds: u64,
        /// The storm sample that preceded activation, if any.
        cause: EventId,
    },
    /// An SMR leader proposed a log entry to its quorum: the opening
    /// event of a per-commit causal chain
    /// (propose → replicate → ack → commit).
    Propose {
        /// Log index of the proposed entry.
        index: u64,
        /// View (term) the entry was proposed in.
        view: u64,
    },
    /// The leader shipped one entry to one follower (span: duration =
    /// wire time of the append RPC).
    Replicate {
        /// Log index.
        index: u64,
        /// Destination follower.
        to: u32,
        /// The propose event this replication carries out.
        cause: EventId,
    },
    /// A follower applied an entry and acknowledged it to the leader
    /// (the event's node is the acknowledging follower).
    SmrAck {
        /// Log index.
        index: u64,
        /// The replicate event this acknowledges.
        cause: EventId,
    },
    /// The leader committed an entry: a quorum of acknowledgements
    /// arrived and the leader's own apply finished.
    Commit {
        /// Log index.
        index: u64,
        /// Propose→commit latency in nanoseconds.
        latency_ns: u64,
        /// The propose event that opened the chain.
        cause: EventId,
    },
    /// A view change elected a new leader after heartbeat silence (a
    /// leader crash, or a leader GC pause outlasting the election
    /// timeout).
    ViewChange {
        /// The new view number.
        view: u64,
        /// The new leader.
        leader: u32,
        /// The commit (or propose) that last proved the old leader
        /// alive, if any.
        cause: EventId,
    },
    /// A metrics-plane update ([`crate::metrics`]) riding the trace
    /// stream so it inherits stream-namespaced ids and the
    /// deterministic harvest merge. The sweep executor routes
    /// these to the metrics fold; trace files never contain them.
    Metric {
        /// The registry entry being updated.
        metric: crate::metrics::Metric,
        /// The update operation.
        op: crate::metrics::MetricOp,
    },
}

impl TraceData {
    /// Stable event-kind name (JSONL `kind`, analyzer keys).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::Gc { .. } => "gc",
            TraceData::Oom { .. } => "oom",
            TraceData::Signal { .. } => "signal",
            TraceData::VictimMarked { .. } => "victim",
            TraceData::Interrupted { .. } => "interrupt",
            TraceData::Serialized { .. } => "serialize",
            TraceData::Activated { .. } => "activate",
            TraceData::Retired { .. } => "retire",
            TraceData::CorruptionRecovered { .. } => "corruption",
            TraceData::CrashSalvaged { .. } => "salvage",
            TraceData::ThreadQuantum { .. } => "quantum",
            TraceData::NodeCrash => "crash",
            TraceData::Rehome { .. } => "rehome",
            TraceData::Shuffle { .. } => "shuffle",
            TraceData::FrameChunk { .. } => "frame",
            TraceData::JobSubmitted { .. } => "submit",
            TraceData::Admitted { .. } => "admit",
            TraceData::JobCompleted { .. } => "complete",
            TraceData::JobFailed { .. } => "fail",
            TraceData::Shed { .. } => "shed",
            TraceData::Storm { .. } => "storm",
            TraceData::Breaker { .. } => "breaker",
            TraceData::Brownout { .. } => "brownout",
            TraceData::Propose { .. } => "propose",
            TraceData::Replicate { .. } => "replicate",
            TraceData::SmrAck { .. } => "ack",
            TraceData::Commit { .. } => "commit",
            TraceData::ViewChange { .. } => "view_change",
            TraceData::Metric { .. } => "metric",
        }
    }

    /// Display name for Chrome trace viewers (kind plus the variant
    /// that matters visually).
    pub fn display_name(&self) -> String {
        match self {
            TraceData::Gc { full: true, .. } => "gc.full".into(),
            TraceData::Gc { full: false, .. } => "gc.minor".into(),
            TraceData::Signal { reduce: true } => "signal.reduce".into(),
            TraceData::Signal { reduce: false } => "signal.grow".into(),
            TraceData::Shed { reason, .. } => format!("shed.{reason}"),
            TraceData::Breaker { state, .. } => format!("breaker.{state}"),
            TraceData::Propose { .. } => "smr.propose".into(),
            TraceData::Replicate { .. } => "smr.replicate".into(),
            TraceData::SmrAck { .. } => "smr.ack".into(),
            TraceData::Commit { .. } => "smr.commit".into(),
            TraceData::ViewChange { .. } => "smr.view_change".into(),
            other => other.kind().into(),
        }
    }

    /// The causal link carried by this payload, if any.
    pub fn cause(&self) -> EventId {
        match self {
            TraceData::VictimMarked { cause, .. }
            | TraceData::Interrupted { cause, .. }
            | TraceData::Serialized { cause, .. }
            | TraceData::Activated { cause, .. }
            | TraceData::Breaker { cause, .. }
            | TraceData::Brownout { cause, .. }
            | TraceData::Replicate { cause, .. }
            | TraceData::SmrAck { cause, .. }
            | TraceData::Commit { cause, .. }
            | TraceData::ViewChange { cause, .. } => *cause,
            _ => EventId::NONE,
        }
    }

    /// Payload fields as `"key":value` JSON pairs (no braces), shared
    /// by the Chrome and JSONL writers so both stay in sync.
    pub fn args_json(&self) -> String {
        match self {
            TraceData::Gc {
                full,
                reclaimed,
                free_after,
                useless,
            } => format!(
                "\"full\":{full},\"reclaimed\":{reclaimed},\"free_after\":{free_after},\"useless\":{useless}"
            ),
            TraceData::Oom { requested, free } => {
                format!("\"requested\":{requested},\"free\":{free}")
            }
            TraceData::Signal { reduce } => format!("\"reduce\":{reduce}"),
            TraceData::VictimMarked { task, cause } => {
                format!("\"task\":{task},\"cause\":{}", cause.0)
            }
            TraceData::Interrupted {
                task,
                emergency,
                cause,
            } => format!(
                "\"task\":{task},\"emergency\":{emergency},\"cause\":{}",
                cause.0
            ),
            TraceData::Serialized {
                partition,
                freed,
                cause,
            } => format!(
                "\"partition\":{partition},\"freed\":{freed},\"cause\":{}",
                cause.0
            ),
            TraceData::Activated {
                task,
                partitions,
                cause,
            } => format!(
                "\"task\":{task},\"partitions\":{partitions},\"cause\":{}",
                cause.0
            ),
            TraceData::CorruptionRecovered { partition } => {
                format!("\"partition\":{partition}")
            }
            TraceData::Retired { task } | TraceData::CrashSalvaged { task } => {
                format!("\"task\":{task}")
            }
            TraceData::ThreadQuantum { running } => format!("\"running\":{running}"),
            TraceData::NodeCrash => String::new(),
            TraceData::Rehome { partition, from } => {
                format!("\"partition\":{partition},\"from\":{from}")
            }
            TraceData::Shuffle {
                batches,
                bytes,
                wire_ns,
            } => format!("\"batches\":{batches},\"bytes\":{bytes},\"wire_ns\":{wire_ns}"),
            TraceData::FrameChunk { tuples } => format!("\"tuples\":{tuples}"),
            TraceData::JobSubmitted { tenant } => format!("\"tenant\":{tenant}"),
            TraceData::Admitted { tenant, wait_ns } => {
                format!("\"tenant\":{tenant},\"wait_ns\":{wait_ns}")
            }
            TraceData::JobCompleted { tenant, latency_ns } => {
                format!("\"tenant\":{tenant},\"latency_ns\":{latency_ns}")
            }
            TraceData::JobFailed { tenant, oom, retry } => {
                format!("\"tenant\":{tenant},\"oom\":{oom},\"retry\":{retry}")
            }
            TraceData::Shed { tenant, reason } => {
                format!("\"tenant\":{tenant},\"reason\":\"{reason}\"")
            }
            TraceData::Storm {
                omes,
                full_gcs,
                useless_gcs,
            } => format!("\"omes\":{omes},\"full_gcs\":{full_gcs},\"useless_gcs\":{useless_gcs}"),
            TraceData::Breaker { state, cause } => {
                format!("\"state\":\"{state}\",\"cause\":{}", cause.0)
            }
            TraceData::Brownout { rounds, cause } => {
                format!("\"rounds\":{rounds},\"cause\":{}", cause.0)
            }
            TraceData::Propose { index, view } => {
                format!("\"index\":{index},\"view\":{view}")
            }
            TraceData::Replicate { index, to, cause } => {
                format!("\"index\":{index},\"to\":{to},\"cause\":{}", cause.0)
            }
            TraceData::SmrAck { index, cause } => {
                format!("\"index\":{index},\"cause\":{}", cause.0)
            }
            TraceData::Commit {
                index,
                latency_ns,
                cause,
            } => format!(
                "\"index\":{index},\"latency_ns\":{latency_ns},\"cause\":{}",
                cause.0
            ),
            TraceData::ViewChange {
                view,
                leader,
                cause,
            } => format!("\"view\":{view},\"leader\":{leader},\"cause\":{}", cause.0),
            TraceData::Metric { metric, op } => {
                use crate::metrics::MetricOp;
                let (op_name, value) = match op {
                    MetricOp::CounterAdd(n) => ("add", *n as i64),
                    MetricOp::GaugeSet(v) => ("set", *v),
                    MetricOp::GaugeAdd(d) => ("adj", *d),
                    MetricOp::Observe(v) => ("observe", *v as i64),
                };
                format!(
                    "\"metric\":\"{}\",\"op\":\"{op_name}\",\"value\":{value}",
                    metric.name()
                )
            }
        }
    }
}

/// One trace event: identity, placement, virtual span and payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Per-run monotonic id (never `NONE` for an emitted event).
    pub id: EventId,
    /// The node it happened on (`None` for cluster-wide events).
    pub node: Option<NodeId>,
    /// The allocation scope / service job it belongs to, if any.
    pub scope: Option<u64>,
    /// Virtual start time.
    pub at: SimTime,
    /// Virtual duration (`ZERO` for instantaneous events).
    pub dur: SimDuration,
    /// The typed payload.
    pub data: TraceData,
}

/// A harvested run trace: the run's label plus its merged events.
pub type RunTrace = Vec<Event>;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static RUN: RefCell<Option<RunBuf>> = const { RefCell::new(None) };
}

#[derive(Default)]
struct RunBuf {
    /// The driver sequence (stream 0).
    next: u64,
    /// `(stream, seq)` of the node round in progress, if any: while
    /// set, emissions draw their ids from it instead of `next`.
    stream: Option<(u32, u64)>,
    events: Vec<Event>,
}

/// Turns tracing on process-wide. Emission still requires a per-run
/// buffer installed via [`begin_run`] on the emitting thread.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is on (single relaxed load — the entire disabled-path
/// cost of every emission site).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the shared event buffers are armed at all: tracing *or* the
/// metrics plane. Buffer install/harvest machinery keys off this;
/// [`emit`] itself stays gated on [`is_enabled`] so trace events vanish
/// under metrics-only arming.
#[inline]
pub(crate) fn armed() -> bool {
    is_enabled() || crate::metrics::is_enabled()
}

/// Installs a fresh event buffer for the run about to execute on this
/// thread (no-op while both tracing and metrics are disabled). The
/// sweep executor calls this immediately before each run closure.
pub fn begin_run() {
    if armed() {
        RUN.with(|r| *r.borrow_mut() = Some(RunBuf::default()));
    }
}

/// Harvests the current run's events, merged in deterministic
/// `(time, node, seq)` order, and uninstalls the buffer. Returns `None`
/// when no buffer was installed (tracing disabled).
pub fn take_run() -> Option<RunTrace> {
    let buf = RUN.with(|r| r.borrow_mut().take())?;
    let mut events = buf.events;
    events.sort_by_key(|e| (e.at, e.node.map_or(u32::MAX, |n| n.0), e.id));
    Some(events)
}

/// Opens `stream` on the current run: until [`stream_end`], emissions
/// get ids `(stream << 32) | seq` with `seq` continuing from `next`.
/// Each node round runs under the node's own stream (stream `n + 1`; 0
/// is the driver), making every event id independent of the order nodes
/// are visited in. No-op while both tracing and metrics are disabled,
/// or outside a run.
pub fn stream_begin(stream: u32, next: u64) {
    if armed() {
        RUN.with(|r| {
            if let Some(buf) = r.borrow_mut().as_mut() {
                buf.stream = Some((stream, next));
            }
        });
    }
}

/// Closes the stream opened by [`stream_begin`], returning its
/// continuation sequence — `next` itself when none was open (disarmed,
/// or outside a run), so callers thread it back unconditionally.
pub fn stream_end(next: u64) -> u64 {
    RUN.with(|r| {
        let cursor = r.borrow_mut().as_mut().and_then(|buf| buf.stream.take());
        cursor.map_or(next, |(_, seq)| seq)
    })
}

/// Emits one event into the current run's buffer, returning its id.
/// Returns [`EventId::NONE`] while disabled or outside a run.
pub fn emit(
    node: Option<NodeId>,
    scope: Option<u64>,
    at: SimTime,
    dur: SimDuration,
    data: TraceData,
) -> EventId {
    if !is_enabled() {
        return EventId::NONE;
    }
    emit_raw(node, scope, at, dur, data)
}

/// Appends one event regardless of the trace-enable flag — the metrics
/// plane gates on its own flag and shares these buffers so metric
/// updates get the same deterministic ids as trace events. Still a
/// no-op (returning [`EventId::NONE`]) outside an installed buffer.
pub(crate) fn emit_raw(
    node: Option<NodeId>,
    scope: Option<u64>,
    at: SimTime,
    dur: SimDuration,
    data: TraceData,
) -> EventId {
    RUN.with(|r| {
        let mut r = r.borrow_mut();
        let Some(buf) = r.as_mut() else {
            return EventId::NONE;
        };
        let id = match &mut buf.stream {
            Some((stream, seq)) => {
                *seq += 1;
                EventId(((*stream as u64) << 32) | *seq)
            }
            None => {
                buf.next += 1;
                EventId(buf.next)
            }
        };
        buf.events.push(Event {
            id,
            node,
            scope,
            at,
            dur,
            data,
        });
        id
    })
}

/// Minimal JSON string escaping for labels and kind names.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn node_i64(node: Option<NodeId>) -> i64 {
    node.map_or(-1, |n| n.0 as i64)
}

fn scope_json(scope: Option<u64>) -> String {
    scope.map_or_else(|| "null".into(), |s| s.to_string())
}

/// Opening bytes of a Chrome trace-event JSON document. Streamed
/// writers emit this once, then [`chrome_run`] fragments, then
/// [`CHROME_FOOTER`].
pub const CHROME_HEADER: &str = "{\"traceEvents\":[\n";

/// Closing bytes of a Chrome trace-event JSON document.
pub const CHROME_FOOTER: &str = "\n],\"displayTimeUnit\":\"ns\"}\n";

/// The trace lane of a node: `node3`, or `cluster` for the cluster-wide
/// `-1`. Chrome thread names and the dump analyzers both use it.
pub fn lane_name(node: i64) -> String {
    if node < 0 {
        "cluster".to_string()
    } else {
        format!("node{node}")
    }
}

/// Renders one run's slice of the Chrome `traceEvents` array: process
/// and thread name metadata followed by every event row. `first` is
/// shared across runs so the comma separation stays valid when runs are
/// appended incrementally (it flips to `false` after the first row).
///
/// One process per run (`pid` = run index, named by the run label), one
/// thread per node (`tid` = node id; `-1` holds cluster-wide events).
/// Timestamps and durations are *virtual nanoseconds* written as
/// integers, so output is byte-identical across hosts and `--jobs`.
///
/// Every causal link `cause -> event` whose cause is in the same run
/// also becomes a nestable async span right after the event's row, in
/// category `"causal"`: `ph:"b"` at the cause's start on the cause's
/// lane, `ph:"e"` at the event's end on the event's lane, `id` the
/// event's id in hex (unique within a run, so each begin pairs with its
/// own end) and name `"{cause kind}->{event kind}"`. Perfetto draws
/// interrupt chains, breaker trips and replication rounds as spans with
/// extent instead of disconnected instants.
pub fn chrome_run(run: usize, label: &str, events: &RunTrace, first: &mut bool) -> String {
    let mut out = String::new();
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{run},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        ),
        &mut out,
        first,
    );
    let mut nodes: Vec<i64> = events.iter().map(|e| node_i64(e.node)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in nodes {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{run},\"tid\":{n},\"args\":{{\"name\":\"{}\"}}}}",
                lane_name(n)
            ),
            &mut out,
            first,
        );
    }
    let by_id: HashMap<EventId, &Event> = events.iter().map(|e| (e.id, e)).collect();
    for e in events {
        let args = e.data.args_json();
        let args = if args.is_empty() {
            format!("\"id\":{},\"scope\":{}", e.id.0, scope_json(e.scope))
        } else {
            format!("\"id\":{},\"scope\":{},{args}", e.id.0, scope_json(e.scope))
        };
        let line = if e.dur.is_zero() {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{run},\"tid\":{},\"ts\":{},\"args\":{{{args}}}}}",
                e.data.display_name(),
                node_i64(e.node),
                e.at.as_nanos(),
            )
        } else {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{run},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                e.data.display_name(),
                node_i64(e.node),
                e.at.as_nanos(),
                e.dur.as_nanos(),
            )
        };
        push(line, &mut out, first);
        // No emitted event has the id `NONE`, so an absent link finds nothing.
        let Some(c) = by_id.get(&e.data.cause()) else {
            continue;
        };
        let name = format!("{}->{}", c.data.kind(), e.data.kind());
        for (ph, node, ts) in [("b", c.node, c.at), ("e", e.node, e.at + e.dur)] {
            push(
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"{ph}\",\"id\":\"0x{:x}\",\"pid\":{run},\"tid\":{},\"ts\":{}}}",
                    e.id.0,
                    node_i64(node),
                    ts.as_nanos(),
                ),
                &mut out,
                first,
            );
        }
    }
    out
}

/// Renders a set of harvested run traces as one complete Chrome
/// trace-event JSON document (header + every run + footer).
pub fn chrome_json(runs: &[(String, RunTrace)]) -> String {
    let mut out = String::from(CHROME_HEADER);
    let mut first = true;
    for (run, (label, events)) in runs.iter().enumerate() {
        out.push_str(&chrome_run(run, label, events, &mut first));
    }
    out.push_str(CHROME_FOOTER);
    out
}

/// Renders one run's compact JSONL lines: the run-header line
/// (`"kind":"run"`) followed by one line per event, in merged order.
/// Self-delimiting, so streamed writers append runs as they finish.
pub fn jsonl_run(run: usize, label: &str, events: &RunTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"run\":{run},\"kind\":\"run\",\"label\":\"{}\",\"events\":{}}}\n",
        json_escape(label),
        events.len()
    ));
    for e in events {
        let args = e.data.args_json();
        out.push_str(&format!(
            "{{\"run\":{run},\"id\":{},\"kind\":\"{}\",\"node\":{},\"scope\":{},\"ts\":{},\"dur\":{}{}{}}}\n",
            e.id.0,
            e.data.kind(),
            node_i64(e.node),
            scope_json(e.scope),
            e.at.as_nanos(),
            e.dur.as_nanos(),
            if args.is_empty() { "" } else { "," },
            args,
        ));
    }
    out
}

/// Renders the whole JSONL twin for a set of runs. This is the format
/// `tracectl` consumes.
pub fn jsonl(runs: &[(String, RunTrace)]) -> String {
    let mut out = String::new();
    for (run, (label, events)) in runs.iter().enumerate() {
        out.push_str(&jsonl_run(run, label, events));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracer state is process-global; tests serialize on this lock.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_emission_is_a_noop() {
        let _g = lock();
        disable();
        begin_run();
        let id = emit(
            None,
            None,
            SimTime::ZERO,
            SimDuration::ZERO,
            TraceData::NodeCrash,
        );
        assert_eq!(id, EventId::NONE);
        assert!(take_run().is_none());
    }

    #[test]
    fn metrics_arming_installs_buffers_but_hides_trace_events() {
        let _g = lock();
        disable();
        crate::metrics::enable();
        begin_run();
        // Trace emission stays a no-op under metrics-only arming, so
        // unguarded emit call sites go silent when just --metrics is on.
        let id = emit(
            None,
            None,
            SimTime::ZERO,
            SimDuration::ZERO,
            TraceData::NodeCrash,
        );
        assert_eq!(id, EventId::NONE);
        crate::metrics::counter_add(
            Some(NodeId(1)),
            crate::metrics::Metric::MemGcCount,
            SimTime::from_nanos(5),
            2,
        );
        let run = take_run().unwrap();
        crate::metrics::disable();
        assert_eq!(run.len(), 1);
        assert!(matches!(run[0].data, TraceData::Metric { .. }));
        assert_eq!(run[0].id, EventId(1), "metric ops draw from the run ids");
    }

    #[test]
    fn emission_outside_a_run_is_dropped() {
        let _g = lock();
        enable();
        // No begin_run: the buffer is absent on this thread.
        let _ = take_run();
        let id = emit(
            None,
            None,
            SimTime::ZERO,
            SimDuration::ZERO,
            TraceData::NodeCrash,
        );
        assert_eq!(id, EventId::NONE);
        disable();
    }

    #[test]
    fn ids_are_monotonic_and_merge_order_is_time_node_seq() {
        let _g = lock();
        enable();
        begin_run();
        let a = emit(
            Some(NodeId(1)),
            None,
            SimTime::from_nanos(10),
            SimDuration::ZERO,
            TraceData::Signal { reduce: true },
        );
        let b = emit(
            Some(NodeId(0)),
            Some(7),
            SimTime::from_nanos(10),
            SimDuration::from_nanos(5),
            TraceData::Gc {
                full: true,
                reclaimed: 100,
                free_after: 50,
                useless: false,
            },
        );
        let c = emit(
            None,
            None,
            SimTime::from_nanos(5),
            SimDuration::ZERO,
            TraceData::Shuffle {
                batches: 1,
                bytes: 2,
                wire_ns: 3,
            },
        );
        assert!(a.is_some() && b.is_some() && c.is_some());
        assert!(a < b && b < c);
        let run = take_run().unwrap();
        // c first (earlier time), then b (node 0 before node 1), then a.
        assert_eq!(run.iter().map(|e| e.id).collect::<Vec<_>>(), vec![c, b, a]);
        disable();
    }

    #[test]
    fn begin_run_resets_ids_and_buffer() {
        let _g = lock();
        enable();
        begin_run();
        emit(
            None,
            None,
            SimTime::ZERO,
            SimDuration::ZERO,
            TraceData::NodeCrash,
        );
        begin_run();
        let id = emit(
            None,
            None,
            SimTime::ZERO,
            SimDuration::ZERO,
            TraceData::NodeCrash,
        );
        assert_eq!(id, EventId(1));
        let run = take_run().unwrap();
        assert_eq!(run.len(), 1);
        assert!(take_run().is_none(), "buffer uninstalls on harvest");
        disable();
    }

    #[test]
    fn writers_render_stable_json() {
        let _g = lock();
        enable();
        begin_run();
        emit(
            Some(NodeId(0)),
            Some(3),
            SimTime::from_nanos(100),
            SimDuration::from_nanos(40),
            TraceData::Gc {
                full: false,
                reclaimed: 10,
                free_after: 90,
                useless: false,
            },
        );
        emit(
            Some(NodeId(0)),
            None,
            SimTime::from_nanos(200),
            SimDuration::ZERO,
            TraceData::Interrupted {
                task: 2,
                emergency: false,
                cause: EventId(1),
            },
        );
        let run = take_run().unwrap();
        disable();
        let runs = vec![("quick \"wc\"".to_string(), run)];
        let chrome = chrome_json(&runs);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"name\":\"gc.minor\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("quick \\\"wc\\\""));
        assert!(chrome.contains("\"cause\":1"));
        let lines = jsonl(&runs);
        assert!(lines.starts_with("{\"run\":0,\"kind\":\"run\""));
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"kind\":\"interrupt\""));
    }

    #[test]
    fn overload_variants_render_and_link() {
        let _g = lock();
        enable();
        begin_run();
        let storm = emit(
            Some(NodeId(2)),
            None,
            SimTime::from_nanos(10),
            SimDuration::ZERO,
            TraceData::Storm {
                omes: 3,
                full_gcs: 2,
                useless_gcs: 1,
            },
        );
        emit(
            Some(NodeId(2)),
            None,
            SimTime::from_nanos(20),
            SimDuration::ZERO,
            TraceData::Breaker {
                state: "open",
                cause: storm,
            },
        );
        emit(
            None,
            None,
            SimTime::from_nanos(30),
            SimDuration::ZERO,
            TraceData::Shed {
                tenant: 4,
                reason: "deadline",
            },
        );
        emit(
            None,
            None,
            SimTime::from_nanos(5),
            SimDuration::from_nanos(40),
            TraceData::Brownout {
                rounds: 7,
                cause: storm,
            },
        );
        let run = take_run().unwrap();
        disable();
        // Merged order is (time, node, seq): brownout (t=5) sorts first,
        // then storm, breaker, shed — both linked events cite the storm.
        assert_eq!(run[0].data.cause(), storm, "brownout links to its storm");
        assert_eq!(run[2].data.cause(), storm, "breaker links to its storm");
        let runs = vec![("overload".to_string(), run)];
        let lines = jsonl(&runs);
        assert!(lines.contains("\"kind\":\"storm\""));
        assert!(lines.contains("\"omes\":3,\"full_gcs\":2,\"useless_gcs\":1"));
        assert!(lines.contains("\"state\":\"open\""));
        assert!(lines.contains("\"reason\":\"deadline\""));
        assert!(lines.contains("\"rounds\":7"));
        let chrome = chrome_json(&runs);
        assert!(chrome.contains("\"name\":\"breaker.open\""));
        assert!(chrome.contains("\"name\":\"shed.deadline\""));
        assert!(chrome.contains("\"name\":\"brownout\""));
    }

    #[test]
    fn chrome_emits_balanced_causal_spans() {
        let ev = |id: u64, node: Option<u32>, at: u64, dur: u64, data: TraceData| Event {
            id: EventId(id),
            node: node.map(NodeId),
            scope: None,
            at: SimTime::from_nanos(at),
            dur: SimDuration::from_nanos(dur),
            data,
        };
        let events = vec![
            ev(1, Some(0), 100, 0, TraceData::Signal { reduce: true }),
            ev(
                2,
                Some(0),
                150,
                0,
                TraceData::VictimMarked {
                    task: 1,
                    cause: EventId(1),
                },
            ),
            ev(
                3,
                Some(0),
                400,
                0,
                TraceData::Interrupted {
                    task: 1,
                    emergency: false,
                    cause: EventId(2),
                },
            ),
            ev(
                4,
                Some(0),
                500,
                250,
                TraceData::Gc {
                    full: true,
                    reclaimed: 10,
                    free_after: 90,
                    useless: false,
                },
            ),
            ev(
                5,
                Some(1),
                900,
                30,
                TraceData::Activated {
                    task: 1,
                    partitions: 2,
                    cause: EventId(3),
                },
            ),
            // A cause outside the run draws no span.
            ev(
                6,
                None,
                950,
                0,
                TraceData::Serialized {
                    partition: 7,
                    freed: 64,
                    cause: EventId(99),
                },
            ),
        ];
        let runs = vec![("wc t4".to_string(), events)];
        let doc = chrome_json(&runs);
        let count = |pat: &str| doc.matches(pat).count();
        // Three links (victim, interrupt, activate): one begin/end pair each.
        assert_eq!(count("\"cat\":\"causal\""), 6);
        assert_eq!(count("\"ph\":\"b\""), 3);
        assert_eq!(count("\"ph\":\"e\""), 3);
        // The regular rows are all still there: 4 instants, 2 spans.
        assert_eq!(count("\"ph\":\"i\""), 4);
        assert_eq!(count("\"ph\":\"X\""), 2);
        // The pair follows its event's row: begin at the cause's start
        // on the cause's lane, end at the event's end on its own lane.
        let activate = doc
            .lines()
            .position(|l| l.starts_with("{\"name\":\"activate\""))
            .unwrap();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(
            lines[activate + 1],
            "{\"name\":\"interrupt->activate\",\"cat\":\"causal\",\"ph\":\"b\",\"id\":\"0x5\",\"pid\":0,\"tid\":0,\"ts\":400},"
        );
        assert_eq!(
            lines[activate + 2],
            "{\"name\":\"interrupt->activate\",\"cat\":\"causal\",\"ph\":\"e\",\"id\":\"0x5\",\"pid\":0,\"tid\":1,\"ts\":930},"
        );
        // Same input, same bytes.
        assert_eq!(doc, chrome_json(&runs));
    }

    #[test]
    fn streamed_render_matches_whole_buffer() {
        let _g = lock();
        enable();
        let mut runs = Vec::new();
        for r in 0..3u64 {
            begin_run();
            emit(
                Some(NodeId(r as u32)),
                None,
                SimTime::from_nanos(r),
                SimDuration::ZERO,
                TraceData::NodeCrash,
            );
            runs.push((format!("run{r}"), take_run().unwrap()));
        }
        disable();
        // Appending per-run fragments must produce the same bytes as
        // the whole-buffer writers — the streaming writer's contract.
        let mut chrome = String::from(CHROME_HEADER);
        let mut first = true;
        let mut lines = String::new();
        for (i, (label, events)) in runs.iter().enumerate() {
            chrome.push_str(&chrome_run(i, label, events, &mut first));
            lines.push_str(&jsonl_run(i, label, events));
        }
        chrome.push_str(CHROME_FOOTER);
        assert_eq!(chrome, chrome_json(&runs));
        assert_eq!(lines, jsonl(&runs));
    }
}
