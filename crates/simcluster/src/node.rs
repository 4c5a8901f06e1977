//! Per-node state and the context handed to simulated threads.

use simcore::{
    cost, metrics, tracer, ByteSize, CostModel, FaultInjector, NodeId, SimDuration, SimError,
    SimResult, SimTime, SpaceId,
};
use simmem::{GcRecord, Heap, HeapConfig};
use simstore::{Disk, FileId};

/// Bound on the attempts of one retried disk operation
/// ([`NodeState::disk_write_retried`], [`NodeState::disk_read_retried`])
/// and on corruption rebuilds. Above the injector's burst cap
/// ([`simcore::fault::MAX_TRANSIENT_BURST`]), so no plan can exhaust the
/// budget.
pub const DEFAULT_IO_RETRIES: u32 = 5;

/// The state of one cluster node: clock, heap, disk, accounting.
#[derive(Debug)]
pub struct NodeState {
    /// This node's id.
    pub id: NodeId,
    /// Number of cores (the paper's nodes have 8).
    pub cores: usize,
    /// The node's virtual clock.
    pub now: SimTime,
    /// The simulated managed heap.
    pub heap: Heap,
    /// The simulated disk.
    pub disk: Disk,
    /// Total stop-the-world GC time on this node.
    pub gc_time: SimDuration,
    /// Total wall-clock time spent computing (excludes GC pauses).
    pub compute_time: SimDuration,
    /// Total wall-clock time threads spent stalled on blocking disk reads.
    pub io_stall_time: SimDuration,
    /// GC records not yet drained by a controller (the ITask monitor).
    gc_pending: Vec<GcRecord>,
    /// When the (async-write) disk becomes free again.
    disk_free_at: SimTime,
}

impl NodeState {
    /// Creates a node with the given heap capacity and disk.
    pub fn new(id: NodeId, cores: usize, heap_capacity: ByteSize, disk_capacity: ByteSize) -> Self {
        let mut heap = Heap::new(HeapConfig::with_capacity(heap_capacity));
        heap.set_trace_node(id);
        NodeState {
            id,
            cores,
            now: SimTime::ZERO,
            heap,
            disk: Disk::new(id, disk_capacity, CostModel),
            gc_time: SimDuration::ZERO,
            compute_time: SimDuration::ZERO,
            io_stall_time: SimDuration::ZERO,
            gc_pending: Vec::new(),
            disk_free_at: SimTime::ZERO,
        }
    }

    /// Allocates on the heap, converting GC pauses into stop-the-world
    /// clock advancement and queueing their records for the controller.
    pub fn alloc(&mut self, space: SpaceId, bytes: ByteSize) -> SimResult<()> {
        match self.heap.alloc(space, bytes, self.now) {
            Ok(outcome) => {
                self.absorb_pauses(&outcome.pauses);
                Ok(())
            }
            Err(simmem::HeapError::OutOfMemory { requested, free }) => {
                if tracer::is_enabled() {
                    tracer::emit(
                        Some(self.id),
                        self.heap.alloc_scope(),
                        self.now,
                        SimDuration::ZERO,
                        tracer::TraceData::Oom {
                            requested: requested.as_u64(),
                            free: free.as_u64(),
                        },
                    );
                }
                metrics::counter_add(Some(self.id), metrics::Metric::MemOom, self.now, 1);
                Err(SimError::OutOfMemory {
                    node: self.id,
                    requested,
                    free,
                })
            }
            Err(simmem::HeapError::NoSuchSpace(id)) => Err(SimError::Internal(format!(
                "allocation into released space {id}"
            ))),
        }
    }

    /// Runs a full collection now (used by the IRS after interrupts).
    pub fn force_full_gc(&mut self) -> GcRecord {
        let rec = self.heap.force_full_gc(self.now);
        self.absorb_pauses(std::slice::from_ref(&rec));
        rec
    }

    fn absorb_pauses(&mut self, pauses: &[GcRecord]) {
        for rec in pauses {
            self.now += rec.pause;
            self.gc_time += rec.pause;
            self.gc_pending.push(rec.clone());
        }
    }

    /// Drains GC records observed since the last drain (monitor input).
    pub fn drain_gc_records(&mut self) -> Vec<GcRecord> {
        std::mem::take(&mut self.gc_pending)
    }

    /// Writes `bytes` to disk *asynchronously* (background serialization
    /// threads in the paper): the node clock does not advance, but the
    /// disk stays busy, delaying subsequent blocking reads.
    pub fn disk_write_async(
        &mut self,
        label: impl Into<String>,
        bytes: ByteSize,
    ) -> SimResult<FileId> {
        let (id, io) = self.disk.write(label, bytes)?;
        let start = self.now.max(self.disk_free_at);
        self.disk_free_at = start + io;
        Ok(id)
    }

    /// [`NodeState::disk_write_async`] with bounded retry: transient
    /// faults back off exponentially (the device stays busy during the
    /// backoff) and the write is re-issued, up to [`DEFAULT_IO_RETRIES`]
    /// attempts. Returns the file id and how many retries were needed.
    pub fn disk_write_retried(&mut self, label: &str, bytes: ByteSize) -> SimResult<(FileId, u32)> {
        let mut retries = 0u32;
        loop {
            match self.disk_write_async(label.to_string(), bytes) {
                Ok(id) => return Ok((id, retries)),
                Err(e) if e.is_transient() && retries + 1 < DEFAULT_IO_RETRIES => {
                    let backoff = self.io_backoff(retries);
                    self.disk_free_at = self.now.max(self.disk_free_at) + backoff;
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads a file and verifies its checksum, returning the bytes read
    /// and the stall duration the *calling thread* must charge (wait for
    /// the disk to drain pending writes, then the read itself). The node
    /// clock is not advanced — only the reading thread stalls, other
    /// threads keep computing. Corrupt content costs the full read and
    /// then fails with [`SimError::CorruptPartition`].
    pub fn disk_read_verified(&mut self, id: FileId) -> SimResult<(ByteSize, SimDuration)> {
        match self.disk.read_verified(id) {
            Ok((bytes, io)) => Ok((bytes, self.charge_disk_stall(io))),
            Err(SimError::CorruptPartition { node, file }) => {
                // The bytes were read (and paid for) before the
                // mismatch was noticed.
                let bytes = self
                    .disk
                    .file(id)
                    .map(|f| f.bytes)
                    .unwrap_or(ByteSize::ZERO);
                let io = CostModel::disk_read(bytes);
                self.charge_disk_stall(io);
                Err(SimError::CorruptPartition { node, file })
            }
            Err(e) => Err(e),
        }
    }

    /// [`NodeState::disk_read_verified`] with bounded retry for
    /// *transient* faults, up to [`DEFAULT_IO_RETRIES`] attempts
    /// (corruption is not retried — the stored bytes will not get
    /// better; callers recover from lineage instead). Returns bytes,
    /// total stall including backoffs, and retries used.
    pub fn disk_read_retried(&mut self, id: FileId) -> SimResult<(ByteSize, SimDuration, u32)> {
        let mut retries = 0u32;
        let mut extra = SimDuration::ZERO;
        loop {
            match self.disk_read_verified(id) {
                Ok((bytes, stall)) => return Ok((bytes, stall + extra, retries)),
                Err(e) if e.is_transient() && retries + 1 < DEFAULT_IO_RETRIES => {
                    let backoff = self.io_backoff(retries);
                    self.io_stall_time += backoff;
                    extra += backoff;
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Exponential virtual-time backoff: `latency × 2^attempt`.
    fn io_backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::from_nanos(
            cost::DISK_OP_LATENCY
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(16)),
        )
    }

    fn charge_disk_stall(&mut self, io: SimDuration) -> SimDuration {
        let start = self.now.max(self.disk_free_at);
        let end = start + io;
        let stall = end.since(self.now);
        self.io_stall_time += stall;
        self.disk_free_at = end;
        stall
    }

    /// Routes this node's disk I/O through a fault injector.
    ///
    /// The node *owns* its injector (via the disk): with per-node
    /// instances of the same plan, fault schedules are keyed purely on
    /// `(seed, node, op, count)`, so a node draws the same verdicts it
    /// would have drawn from a cluster-shared injector regardless of how
    /// nodes interleave.
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.disk.install_injector(injector);
    }
}

/// Execution context handed to a [`crate::work::Work`] step.
///
/// Tracks CPU consumed within the quantum; heap and disk access go
/// through the node so GC pauses and I/O stalls are accounted centrally.
pub struct WorkCx<'a> {
    node: &'a mut NodeState,
    quantum: SimDuration,
    used: SimDuration,
}

impl<'a> WorkCx<'a> {
    pub(crate) fn new(node: &'a mut NodeState, quantum: SimDuration) -> Self {
        WorkCx {
            node,
            quantum,
            used: SimDuration::ZERO,
        }
    }

    /// A context detached from the scheduler, for stepping a body on a
    /// node directly, outside any round — e.g. a test rig driving one
    /// replica's `Work`.
    pub fn detached(node: &'a mut NodeState, quantum: SimDuration) -> Self {
        WorkCx::new(node, quantum)
    }

    /// The node this thread runs on.
    pub fn node(&mut self) -> &mut NodeState {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.node.now
    }

    /// CPU time still available in this quantum.
    pub fn remaining(&self) -> SimDuration {
        self.quantum.saturating_sub(self.used)
    }

    /// Whether the quantum is exhausted.
    pub fn out_of_quantum(&self) -> bool {
        self.remaining().is_zero()
    }

    /// Consumes `t` of CPU time (may overrun the quantum slightly; the
    /// scheduler accounts for actual usage).
    pub fn charge(&mut self, t: SimDuration) {
        self.used += t;
    }

    /// CPU consumed so far in this step.
    pub(crate) fn used(&self) -> SimDuration {
        self.used
    }

    /// Allocates heap bytes for this thread (GC pauses handled by node).
    pub fn alloc(&mut self, space: SpaceId, bytes: ByteSize) -> SimResult<()> {
        self.node.alloc(space, bytes)
    }

    /// Frees heap bytes (turns them into garbage).
    pub fn free(&mut self, space: SpaceId, bytes: ByteSize) -> ByteSize {
        self.node.heap.free(space, bytes)
    }

    /// Creates a heap space.
    pub fn create_space(&mut self, label: impl Into<String>) -> SpaceId {
        self.node.heap.create_space(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeState {
        NodeState::new(NodeId(0), 8, ByteSize::mib(4), ByteSize::mib(64))
    }

    #[test]
    fn alloc_pauses_advance_clock_and_queue_records() {
        let mut n = node();
        let s = n.heap.create_space("s");
        // Fill well past the young generation (1MiB) with live data.
        for _ in 0..200 {
            n.alloc(s, ByteSize::kib(10)).unwrap();
        }
        assert!(n.gc_time > SimDuration::ZERO);
        assert_eq!(n.now.since(SimTime::ZERO), n.gc_time);
        let recs = n.drain_gc_records();
        assert!(!recs.is_empty());
        assert!(n.drain_gc_records().is_empty());
    }

    #[test]
    fn oom_is_tagged_with_node() {
        let mut n = node();
        let s = n.heap.create_space("s");
        let err = loop {
            if let Err(e) = n.alloc(s, ByteSize::kib(64)) {
                break e;
            }
        };
        match err {
            SimError::OutOfMemory { node, .. } => assert_eq!(node, NodeId(0)),
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn async_writes_do_not_block_but_delay_reads() {
        let mut n = node();
        let before = n.now;
        let id = n.disk_write_async("spill", ByteSize::mib(32)).unwrap();
        assert_eq!(n.now, before, "async write must not advance the clock");
        let (bytes, stall) = n.disk_read_verified(id).unwrap();
        assert_eq!(bytes, ByteSize::mib(32));
        assert_eq!(n.now, before, "the node clock is the caller's to advance");
        // The read had to wait for the in-flight write plus its own time.
        let write_t = CostModel::disk_write(ByteSize::mib(32));
        let read_t = CostModel::disk_read(ByteSize::mib(32));
        assert_eq!(stall, write_t + read_t);
        assert_eq!(n.io_stall_time, write_t + read_t);
    }

    #[test]
    fn disk_full_surfaces_as_error() {
        let mut n = NodeState::new(NodeId(1), 8, ByteSize::mib(4), ByteSize::kib(10));
        let err = n.disk_write_async("x", ByteSize::mib(1)).unwrap_err();
        assert!(matches!(err, SimError::DiskFull { .. }));
    }

    #[test]
    fn workcx_tracks_quantum() {
        let mut n = node();
        let mut cx = WorkCx::new(&mut n, SimDuration::from_micros(500));
        assert_eq!(cx.remaining(), SimDuration::from_micros(500));
        cx.charge(SimDuration::from_micros(200));
        assert_eq!(cx.remaining(), SimDuration::from_micros(300));
        cx.charge(SimDuration::from_micros(400));
        assert!(cx.out_of_quantum());
        assert_eq!(cx.used(), SimDuration::from_micros(600));
    }
}
