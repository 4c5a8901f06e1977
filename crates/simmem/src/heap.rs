//! The heap state machine.

use simcore::{metrics, prof, tracer, ByteSize, CostModel, NodeId, SimDuration, SimTime, SpaceId};

use crate::gc::{GcKind, GcRecord, GcStats};
use crate::space::SpaceInfo;

/// `M`: a full GC leaving free memory below this percentage of capacity
/// is recorded as useless (the paper's LUGC signal, §5.2).
pub const LUGC_FREE_PCT: u64 = 10;

/// Heap sizing parameters.
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Total heap capacity (the `-Xmx` of the simulated JVM).
    pub capacity: ByteSize,
    /// Young-generation size; allocations land here and a minor
    /// collection runs when it fills.
    pub young_capacity: ByteSize,
}

impl HeapConfig {
    /// A conventional configuration: young generation = 1/3 of the heap
    /// (HotSpot's default `NewRatio=2`).
    pub fn with_capacity(capacity: ByteSize) -> Self {
        HeapConfig {
            capacity,
            young_capacity: ByteSize(capacity.as_u64() / 3),
        }
    }

    fn lugc_threshold(&self) -> ByteSize {
        self.capacity.mul_ratio(LUGC_FREE_PCT, 100)
    }

    /// Allocations at or above this size bypass the young generation
    /// (HotSpot's "humongous" objects).
    fn humongous_threshold(&self) -> ByteSize {
        ByteSize(self.young_capacity.as_u64() / 2)
    }
}

/// Error returned by [`Heap::alloc`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The allocation does not fit even after a full collection — the
    /// simulation's `OutOfMemoryError`.
    OutOfMemory {
        /// Bytes requested.
        requested: ByteSize,
        /// Free bytes after the failed full collection.
        free: ByteSize,
    },
    /// The space id is unknown or already released.
    NoSuchSpace(SpaceId),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested, free } => {
                write!(f, "OutOfMemory: requested {requested}, free {free}")
            }
            HeapError::NoSuchSpace(id) => write!(f, "no such space: {id}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// What happened during an allocation: zero or more stop-the-world
/// collections ran before the bytes were placed.
///
/// The caller (the node simulator) is responsible for advancing virtual
/// time by each pause and for forwarding the records to the ITask monitor.
#[derive(Clone, Debug, Default)]
pub struct AllocOutcome {
    /// Collections triggered by this allocation, in order.
    pub pauses: Vec<GcRecord>,
}

/// The simulated managed heap. See the crate docs for the model.
#[derive(Clone, Debug)]
pub struct Heap {
    cfg: HeapConfig,
    spaces: Vec<Option<SpaceInfo>>,
    /// Young-generation occupancy (live + garbage, both ages).
    young_used: ByteSize,
    /// Old-generation occupancy (live + garbage).
    old_used: ByteSize,
    /// Total live eden bytes (sum over spaces).
    young0_live: ByteSize,
    /// Total live survivor bytes (sum over spaces).
    young1_live: ByteSize,
    /// Total live old bytes (sum over spaces).
    old_live: ByteSize,
    peak_used: ByteSize,
    stats: GcStats,
    records: Vec<GcRecord>,
    /// Scope stamped onto spaces created while it is set (see
    /// [`Heap::set_alloc_scope`]).
    alloc_scope: Option<u64>,
    /// Node attributed to traced GC spans (see [`Heap::set_trace_node`]).
    trace_node: Option<NodeId>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new(cfg: HeapConfig) -> Self {
        Heap {
            cfg,
            spaces: Vec::new(),
            young_used: ByteSize::ZERO,
            old_used: ByteSize::ZERO,
            young0_live: ByteSize::ZERO,
            young1_live: ByteSize::ZERO,
            old_live: ByteSize::ZERO,
            peak_used: ByteSize::ZERO,
            stats: GcStats::default(),
            records: Vec::new(),
            alloc_scope: None,
            trace_node: None,
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.cfg.capacity
    }

    /// Occupied bytes (live + garbage, both generations).
    pub fn used(&self) -> ByteSize {
        self.young_used + self.old_used
    }

    /// Unoccupied bytes.
    pub fn free_bytes(&self) -> ByteSize {
        self.cfg.capacity - self.used()
    }

    /// Bytes that *would* be free after a full collection: capacity
    /// minus the live set. Runtime policies reason about this value —
    /// garbage is reclaimable, so treating it as occupied would trigger
    /// needless collections just to refresh the number.
    pub fn effective_free(&self) -> ByteSize {
        self.cfg.capacity - self.live()
    }

    /// Live (reachable) bytes.
    pub fn live(&self) -> ByteSize {
        self.young0_live + self.young1_live + self.old_live
    }

    /// Garbage bytes awaiting collection.
    pub fn garbage(&self) -> ByteSize {
        self.used() - self.live()
    }

    /// High-water mark of `used()`.
    pub fn peak_used(&self) -> ByteSize {
        self.peak_used
    }

    /// Aggregate collector statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Total stop-the-world pause accumulated so far — a *mark* for
    /// attribution windows. Callers snapshot it, run a window of work,
    /// and charge [`Heap::pause_since`] the mark to whatever the window
    /// stalled (an SMR engine attributes it to commit latency).
    pub fn pause_mark(&self) -> SimDuration {
        self.stats.total_pause
    }

    /// Pause time accumulated since a [`Heap::pause_mark`] snapshot.
    pub fn pause_since(&self, mark: SimDuration) -> SimDuration {
        self.stats.total_pause.saturating_sub(mark)
    }

    /// Creates a new, empty space, attributed to the current allocation
    /// scope (if one is set).
    pub fn create_space(&mut self, label: impl Into<String>) -> SpaceId {
        let id = SpaceId(self.spaces.len() as u32);
        let mut info = SpaceInfo::new(id, label.into());
        info.scope = self.alloc_scope;
        self.spaces.push(Some(info));
        id
    }

    /// Sets the allocation scope stamped onto spaces created from now on.
    ///
    /// A multi-job service sets the scope to the owning job's id around
    /// each scheduler step, so every space a job creates — directly or
    /// deep inside the runtime — is attributed to that job and can be
    /// torn down with [`Heap::release_scope`] when the job ends.
    pub fn set_alloc_scope(&mut self, scope: Option<u64>) {
        self.alloc_scope = scope;
    }

    /// The current allocation scope.
    pub fn alloc_scope(&self) -> Option<u64> {
        self.alloc_scope
    }

    /// Sets the node that traced GC spans are attributed to. A hosting
    /// node calls this once at construction; heaps outside a cluster
    /// (unit tests, micro-benches) trace as node-less.
    pub fn set_trace_node(&mut self, node: NodeId) {
        self.trace_node = Some(node);
    }

    /// Emits one GC pause span into the global tracer (no-op unless a
    /// sweep armed it). Every collection funnels through here — the
    /// same choke point as the `prof::Stage::Gc` counters — so traced
    /// span durations and profiler GC vtime agree by construction.
    fn trace_gc(&self, rec: &GcRecord) {
        if tracer::is_enabled() {
            tracer::emit(
                self.trace_node,
                self.alloc_scope,
                rec.at,
                rec.pause,
                tracer::TraceData::Gc {
                    full: rec.kind == GcKind::Full,
                    reclaimed: rec.reclaimed().as_u64(),
                    free_after: rec.free_after.as_u64(),
                    useless: rec.useless,
                },
            );
        }
        // The metrics plane shares this choke point, so the gc_pause_ns
        // counter, the profiler's gc vtime and traced span durations
        // are one number by construction.
        if metrics::is_enabled() {
            use metrics::Metric;
            let node = self.trace_node;
            metrics::counter_add(node, Metric::MemGcCount, rec.at, 1);
            metrics::counter_add(node, Metric::MemGcPauseNs, rec.at, rec.pause.as_nanos());
            if rec.useless {
                metrics::counter_add(node, Metric::MemUselessGc, rec.at, 1);
            }
            let cap = self.cfg.capacity.as_u64();
            let free = rec.free_after.as_u64();
            metrics::gauge_set(node, Metric::MemHeapBytes, rec.at, cap as i64);
            metrics::gauge_set(node, Metric::MemFreeBytes, rec.at, free as i64);
            metrics::gauge_set(node, Metric::MemLiveBytes, rec.at, (cap - free) as i64);
        }
    }

    /// Live bytes attributed to `scope` across all its spaces.
    pub fn scope_live(&self, scope: u64) -> ByteSize {
        self.spaces
            .iter()
            .flatten()
            .filter(|s| s.scope == Some(scope))
            .map(|s| s.live())
            .fold(ByteSize::ZERO, |a, b| a + b)
    }

    /// Releases every space attributed to `scope`: all their live bytes
    /// become garbage (reclaimed by the next collection) and their ids
    /// become invalid. Returns the bytes turned into garbage.
    pub fn release_scope(&mut self, scope: u64) -> ByteSize {
        let ids: Vec<SpaceId> = self
            .spaces
            .iter()
            .flatten()
            .filter(|s| s.scope == Some(scope))
            .map(|s| s.id)
            .collect();
        let mut freed = ByteSize::ZERO;
        for id in ids {
            freed += self.release_space(id);
        }
        freed
    }

    /// Looks up a live space.
    pub fn space(&self, id: SpaceId) -> Option<&SpaceInfo> {
        self.spaces.get(id.as_usize()).and_then(|s| s.as_ref())
    }

    /// Live bytes currently attributed to `id` (zero if released).
    pub fn space_live(&self, id: SpaceId) -> ByteSize {
        self.space(id).map_or(ByteSize::ZERO, |s| s.live())
    }

    /// Allocates `n` bytes into `space`.
    ///
    /// May run a minor and/or full collection first; the pauses are
    /// returned in the outcome for the caller to charge to virtual time.
    /// Fails with [`HeapError::OutOfMemory`] if the bytes still do not fit
    /// after a full collection, leaving the heap state unchanged apart
    /// from the collections themselves (exactly like a real JVM: the
    /// failed allocation is not performed, but the GCs it triggered did
    /// happen).
    pub fn alloc(
        &mut self,
        space: SpaceId,
        n: ByteSize,
        now: SimTime,
    ) -> Result<AllocOutcome, HeapError> {
        if self.space(space).is_none() {
            return Err(HeapError::NoSuchSpace(space));
        }
        let mut out = AllocOutcome::default();
        if n.is_zero() {
            return Ok(out);
        }

        if n >= self.cfg.humongous_threshold() {
            // Humongous allocation: straight to the old generation.
            if self.used() + n > self.cfg.capacity {
                self.full_gc(now, &mut out);
            }
            if self.used() + n > self.cfg.capacity {
                return Err(self.oom(n, out));
            }
            self.old_used += n;
            self.old_live += n;
            let s = self.space_mut(space);
            s.old_live += n;
        } else {
            if self.young_used + n > self.cfg.young_capacity {
                self.minor_gc(now, &mut out);
            }
            if self.used() + n > self.cfg.capacity {
                self.full_gc(now, &mut out);
            }
            if self.used() + n > self.cfg.capacity {
                return Err(self.oom(n, out));
            }
            self.young_used += n;
            self.young0_live += n;
            let s = self.space_mut(space);
            s.young0_live += n;
        }
        self.peak_used = self.peak_used.max(self.used());
        Ok(out)
    }

    /// Frees up to `n` live bytes of `space`, turning them into garbage
    /// that remains in the heap until a collection runs.
    ///
    /// Returns the number of bytes actually freed (clamped to the space's
    /// live bytes; zero for an unknown space). Young bytes die first.
    pub fn free(&mut self, space: SpaceId, n: ByteSize) -> ByteSize {
        let Some(s) = self
            .spaces
            .get_mut(space.as_usize())
            .and_then(|s| s.as_mut())
        else {
            return ByteSize::ZERO;
        };
        // Youngest bytes die first (LIFO lifetimes dominate in practice).
        let from_y0 = n.min(s.young0_live);
        let from_y1 = (n - from_y0).min(s.young1_live);
        let from_old = (n - from_y0 - from_y1).min(s.old_live);
        s.young0_live -= from_y0;
        s.young1_live -= from_y1;
        s.old_live -= from_old;
        self.young0_live -= from_y0;
        self.young1_live -= from_y1;
        self.old_live -= from_old;
        // The bytes stay in `*_used` — they are garbage now.
        from_y0 + from_y1 + from_old
    }

    /// Releases a space entirely: all its live bytes become garbage and
    /// the space id becomes invalid.
    ///
    /// Returns the number of bytes turned into garbage.
    pub fn release_space(&mut self, space: SpaceId) -> ByteSize {
        let freed = self.free(space, ByteSize(u64::MAX));
        if let Some(slot) = self.spaces.get_mut(space.as_usize()) {
            *slot = None;
        }
        freed
    }

    /// Runs a full collection unconditionally (System.gc(), or the IRS
    /// forcing a collection after interrupting tasks).
    pub fn force_full_gc(&mut self, now: SimTime) -> GcRecord {
        let mut out = AllocOutcome::default();
        self.full_gc(now, &mut out);
        out.pauses.pop().expect("full_gc always records a pause")
    }

    fn space_mut(&mut self, id: SpaceId) -> &mut SpaceInfo {
        self.spaces[id.as_usize()]
            .as_mut()
            .expect("checked by caller")
    }

    fn oom(&self, requested: ByteSize, _out: AllocOutcome) -> HeapError {
        HeapError::OutOfMemory {
            requested,
            free: self.free_bytes(),
        }
    }

    /// Evacuates the young generation: eden survivors move to the
    /// survivor bucket, survivor-bucket bytes are promoted to old, and
    /// young garbage is reclaimed. Copy cost covers both ages.
    fn minor_gc(&mut self, now: SimTime, out: &mut AllocOutcome) {
        let used_before = self.used();
        let survivors = self.young0_live + self.young1_live;
        let promoted = self.young1_live;
        let pause = CostModel::minor_gc_pause(survivors);
        for s in self.spaces.iter_mut().flatten() {
            s.old_live += s.young1_live;
            s.young1_live = s.young0_live;
            s.young0_live = ByteSize::ZERO;
        }
        self.old_used += promoted;
        self.old_live += promoted;
        self.young1_live = self.young0_live;
        self.young0_live = ByteSize::ZERO;
        // Young now holds exactly the (compacted) survivor bucket.
        self.young_used = self.young1_live;
        let rec = GcRecord {
            at: now,
            kind: GcKind::Minor,
            used_before,
            used_after: self.used(),
            free_after: self.free_bytes(),
            pause,
            useless: false,
        };
        prof::count(prof::Stage::Gc, 1, rec.reclaimed().as_u64());
        prof::vtime(prof::Stage::Gc, pause);
        self.trace_gc(&rec);
        self.stats.absorb(&rec);
        self.records.push(rec.clone());
        out.pauses.push(rec);
    }

    /// Collects the whole heap: all garbage is reclaimed and all young
    /// survivors are promoted (a compacting full collection).
    fn full_gc(&mut self, now: SimTime, out: &mut AllocOutcome) {
        let used_before = self.used();
        let live = self.live();
        let pause = CostModel::full_gc_pause(live, used_before);
        for s in self.spaces.iter_mut().flatten() {
            s.old_live += s.young_live();
            s.young0_live = ByteSize::ZERO;
            s.young1_live = ByteSize::ZERO;
        }
        self.old_live += self.young0_live + self.young1_live;
        self.young0_live = ByteSize::ZERO;
        self.young1_live = ByteSize::ZERO;
        self.young_used = ByteSize::ZERO;
        self.old_used = self.old_live;
        let free_after = self.free_bytes();
        let rec = GcRecord {
            at: now,
            kind: GcKind::Full,
            used_before,
            used_after: self.used(),
            free_after,
            pause,
            useless: free_after < self.cfg.lugc_threshold(),
        };
        prof::count(prof::Stage::Gc, 1, rec.reclaimed().as_u64());
        prof::vtime(prof::Stage::Gc, pause);
        self.trace_gc(&rec);
        self.stats.absorb(&rec);
        self.records.push(rec.clone());
        out.pauses.push(rec);
    }

    /// Internal consistency check used by tests: per-space live totals
    /// match the heap counters, and used ≥ live in both generations.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut y0 = ByteSize::ZERO;
        let mut y1 = ByteSize::ZERO;
        let mut old = ByteSize::ZERO;
        for s in self.spaces.iter().flatten() {
            y0 += s.young0_live;
            y1 += s.young1_live;
            old += s.old_live;
        }
        if y0 != self.young0_live {
            return Err(format!("eden live mismatch: {y0} != {}", self.young0_live));
        }
        if y1 != self.young1_live {
            return Err(format!(
                "survivor live mismatch: {y1} != {}",
                self.young1_live
            ));
        }
        if old != self.old_live {
            return Err(format!("old live mismatch: {old} != {}", self.old_live));
        }
        if self.young_used < self.young0_live + self.young1_live {
            return Err("young used < young live".into());
        }
        if self.old_used < self.old_live {
            return Err("old used < old live".into());
        }
        if self.used() > self.cfg.capacity {
            return Err("used > capacity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(cap_kib: u64) -> Heap {
        Heap::new(HeapConfig::with_capacity(ByteSize::kib(cap_kib)))
    }

    #[test]
    fn alloc_without_pressure_is_silent() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        let out = h.alloc(s, ByteSize::kib(16), SimTime::ZERO).unwrap();
        assert!(out.pauses.is_empty());
        assert_eq!(h.used(), ByteSize::kib(16));
        assert_eq!(h.live(), ByteSize::kib(16));
        h.check_invariants().unwrap();
    }

    #[test]
    fn zero_alloc_is_noop() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::ZERO, SimTime::ZERO).unwrap();
        assert_eq!(h.used(), ByteSize::ZERO);
    }

    #[test]
    fn unknown_space_is_rejected() {
        let mut h = heap(64);
        let err = h.alloc(SpaceId(9), ByteSize(1), SimTime::ZERO).unwrap_err();
        assert_eq!(err, HeapError::NoSuchSpace(SpaceId(9)));
    }

    #[test]
    fn freeing_creates_garbage_not_free_memory() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::kib(32), SimTime::ZERO).unwrap();
        let freed = h.free(s, ByteSize::kib(32));
        assert_eq!(freed, ByteSize::kib(32));
        // Still occupied until a collection runs — the core JVM behaviour
        // the paper's mechanism depends on.
        assert_eq!(h.used(), ByteSize::kib(32));
        assert_eq!(h.live(), ByteSize::ZERO);
        assert_eq!(h.garbage(), ByteSize::kib(32));
        let rec = h.force_full_gc(SimTime::ZERO);
        assert_eq!(rec.reclaimed(), ByteSize::kib(32));
        assert_eq!(h.used(), ByteSize::ZERO);
        h.check_invariants().unwrap();
    }

    #[test]
    fn free_clamps_to_live() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::kib(8), SimTime::ZERO).unwrap();
        assert_eq!(h.free(s, ByteSize::kib(64)), ByteSize::kib(8));
        assert_eq!(h.free(s, ByteSize::kib(1)), ByteSize::ZERO);
        assert_eq!(h.free(SpaceId(77), ByteSize::kib(1)), ByteSize::ZERO);
    }

    /// Allocates `total` in small (non-humongous) chunks.
    fn alloc_chunked(h: &mut Heap, s: SpaceId, total_kib: u64) -> Vec<GcKind> {
        let mut kinds = Vec::new();
        for _ in 0..total_kib {
            let out = h.alloc(s, ByteSize::kib(1), SimTime::ZERO).unwrap();
            kinds.extend(out.pauses.iter().map(|p| p.kind));
        }
        kinds
    }

    #[test]
    fn young_fill_triggers_minor_gc_and_promotion() {
        let mut h = heap(1024); // young = 1024/3 = 341KiB
        let s = h.create_space("a");
        // 450KiB of 1KiB live allocations must cross the young boundary.
        let kinds = alloc_chunked(&mut h, s, 450);
        assert!(kinds.contains(&GcKind::Minor));
        assert!(!kinds.contains(&GcKind::Full));
        assert_eq!(h.space_live(s), ByteSize::kib(450));
        // At least one minor GC promoted survivors to old.
        assert!(h.space(s).unwrap().old_live >= ByteSize::kib(300));
        h.check_invariants().unwrap();
    }

    #[test]
    fn minor_gc_reclaims_young_garbage_cheaply() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        alloc_chunked(&mut h, s, 300);
        h.free(s, ByteSize::kib(300)); // all garbage, still young
        let before_used = h.used();
        assert_eq!(before_used, ByteSize::kib(300));
        // Push past the young boundary: the minor GC finds no survivors.
        let kinds = alloc_chunked(&mut h, s, 100);
        assert!(kinds.contains(&GcKind::Minor));
        assert!(!kinds.contains(&GcKind::Full));
        // The 300KiB of garbage is gone without a full collection.
        assert_eq!(h.used(), ByteSize::kib(100));
        assert_eq!(h.garbage(), ByteSize::ZERO);
    }

    #[test]
    fn humongous_allocations_go_to_old() {
        let mut h = heap(1024); // young 256KiB, humongous >= 128KiB
        let s = h.create_space("big");
        h.alloc(s, ByteSize::kib(300), SimTime::ZERO).unwrap();
        assert_eq!(h.space(s).unwrap().old_live, ByteSize::kib(300));
        assert_eq!(h.space(s).unwrap().young_live(), ByteSize::ZERO);
    }

    #[test]
    fn oom_after_failed_full_gc() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        // Fill the heap with live data in old gen.
        h.alloc(s, ByteSize::kib(500), SimTime::ZERO).unwrap();
        h.alloc(s, ByteSize::kib(500), SimTime::ZERO).unwrap();
        let err = h.alloc(s, ByteSize::kib(200), SimTime::ZERO).unwrap_err();
        match err {
            HeapError::OutOfMemory { requested, .. } => {
                assert_eq!(requested, ByteSize::kib(200));
            }
            other => panic!("expected OOM, got {other}"),
        }
        // The heap survives the failure and remains consistent.
        h.check_invariants().unwrap();
    }

    #[test]
    fn full_gc_near_capacity_is_flagged_useless() {
        let mut h = heap(1000); // LUGC threshold: free < 100KiB
        let s = h.create_space("a");
        // 950KiB live => full GC cannot free anything.
        h.alloc(s, ByteSize::kib(475), SimTime::ZERO).unwrap();
        h.alloc(s, ByteSize::kib(475), SimTime::ZERO).unwrap();
        let rec = h.force_full_gc(SimTime::ZERO);
        assert!(rec.useless);
        assert_eq!(h.stats().useless_count, 1);
    }

    #[test]
    fn full_gc_with_room_is_not_useless() {
        let mut h = heap(1000);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::kib(100), SimTime::ZERO).unwrap();
        let rec = h.force_full_gc(SimTime::ZERO);
        assert!(!rec.useless);
    }

    #[test]
    fn release_space_then_gc_reclaims_everything() {
        let mut h = heap(1024);
        let a = h.create_space("a");
        let b = h.create_space("b");
        h.alloc(a, ByteSize::kib(100), SimTime::ZERO).unwrap();
        h.alloc(b, ByteSize::kib(50), SimTime::ZERO).unwrap();
        assert_eq!(h.release_space(a), ByteSize::kib(100));
        assert!(h.space(a).is_none());
        h.force_full_gc(SimTime::ZERO);
        assert_eq!(h.used(), ByteSize::kib(50));
        assert_eq!(h.space_live(b), ByteSize::kib(50));
        // Released ids reject further allocation.
        assert!(h.alloc(a, ByteSize(1), SimTime::ZERO).is_err());
    }

    #[test]
    fn scopes_attribute_and_release_spaces_in_bulk() {
        let mut h = heap(1024);
        h.set_alloc_scope(Some(7));
        let a = h.create_space("job7.a");
        let b = h.create_space("job7.b");
        h.set_alloc_scope(Some(8));
        let c = h.create_space("job8.c");
        h.set_alloc_scope(None);
        let d = h.create_space("system");
        h.alloc(a, ByteSize::kib(10), SimTime::ZERO).unwrap();
        h.alloc(b, ByteSize::kib(20), SimTime::ZERO).unwrap();
        h.alloc(c, ByteSize::kib(5), SimTime::ZERO).unwrap();
        h.alloc(d, ByteSize::kib(1), SimTime::ZERO).unwrap();
        assert_eq!(h.scope_live(7), ByteSize::kib(30));
        assert_eq!(h.scope_live(8), ByteSize::kib(5));
        assert_eq!(h.scope_live(99), ByteSize::ZERO);
        assert_eq!(h.space(d).unwrap().scope, None);

        assert_eq!(h.release_scope(7), ByteSize::kib(30));
        assert!(h.space(a).is_none());
        assert!(h.space(b).is_none());
        assert_eq!(h.scope_live(7), ByteSize::ZERO);
        // Other scopes and unscoped spaces are untouched.
        assert_eq!(h.scope_live(8), ByteSize::kib(5));
        assert_eq!(h.space_live(d), ByteSize::kib(1));
        h.force_full_gc(SimTime::ZERO);
        assert_eq!(h.used(), ByteSize::kib(6));
        h.check_invariants().unwrap();
    }

    #[test]
    fn peak_used_tracks_high_water_mark() {
        let mut h = heap(1024);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::kib(100), SimTime::ZERO).unwrap();
        h.free(s, ByteSize::kib(100));
        h.force_full_gc(SimTime::ZERO);
        h.alloc(s, ByteSize::kib(10), SimTime::ZERO).unwrap();
        assert_eq!(h.peak_used(), ByteSize::kib(100));
    }

    #[test]
    fn gc_pause_grows_with_live_set() {
        let mut small = heap(10_240);
        let s1 = small.create_space("a");
        small.alloc(s1, ByteSize::kib(100), SimTime::ZERO).unwrap();
        let p_small = small.force_full_gc(SimTime::ZERO).pause;

        let mut big = heap(10_240);
        let s2 = big.create_space("a");
        big.alloc(s2, ByteSize::kib(4000), SimTime::ZERO).unwrap();
        let p_big = big.force_full_gc(SimTime::ZERO).pause;
        assert!(p_big > p_small * 5);
    }

    #[test]
    fn failed_alloc_does_not_change_occupancy() {
        let mut h = heap(100);
        let s = h.create_space("a");
        h.alloc(s, ByteSize::kib(90), SimTime::ZERO).unwrap();
        let used = h.used();
        let _ = h.alloc(s, ByteSize::kib(50), SimTime::ZERO).unwrap_err();
        assert_eq!(h.used(), used);
    }
}
