//! A per-node disk: a registry of simulated files plus an I/O cost model.
//!
//! The disk is a fault-injection point: when a [`FaultInjector`] is
//! installed (see [`Disk::install_injector`]), reads and writes consult
//! it — transient verdicts surface as [`SimError::IoTransient`], and a
//! silently corrupted write stores a file whose checksum no longer
//! matches its content, which [`Disk::read_verified`] later reports as
//! [`SimError::CorruptPartition`].
//!
//! Each disk *owns* its injector. Verdicts are counter-hashed per
//! `(node, op-kind)` (see [`simcore::fault`]), so per-node injector
//! instances replaying the same plan produce exactly the schedule one
//! shared injector would. The cluster aggregates per-disk stats back
//! into one view.

use std::fmt;

use simcore::rng::stable_hash64;
use simcore::{
    ByteSize, CostModel, FaultInjector, FaultStats, NodeId, ReadFault, SimDuration, SimError,
    SimResult, WriteFault,
};

/// Identifier of a simulated on-disk file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl fmt::Debug for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// Metadata of a simulated file (spill file, serialized partition, ...).
#[derive(Clone, Debug)]
pub struct DiskFile {
    /// The file's id.
    pub id: FileId,
    /// Debug label.
    pub label: String,
    /// Size on disk.
    pub bytes: ByteSize,
    /// Checksum of the content as it *should* be.
    pub checksum: u64,
    /// Checksum of the content as *stored* (differs after a silently
    /// corrupted write).
    pub stored_checksum: u64,
}

impl DiskFile {
    /// Whether the stored bytes match their checksum.
    pub fn intact(&self) -> bool {
        self.checksum == self.stored_checksum
    }
}

/// Aggregate I/O statistics for one disk.
#[derive(Clone, Debug, Default)]
pub struct DiskStats {
    /// Total bytes written.
    pub bytes_written: ByteSize,
    /// Total bytes read.
    pub bytes_read: ByteSize,
    /// Number of write operations.
    pub writes: u64,
    /// Number of read operations.
    pub reads: u64,
    /// Total virtual time spent in disk I/O.
    pub io_time: SimDuration,
    /// Transient faults surfaced to callers (injected).
    pub transient_errors: u64,
    /// Checksum mismatches surfaced by verified reads.
    pub checksum_failures: u64,
}

/// A node's disk.
///
/// Capacity is tracked but generous by default: the paper's failures are
/// heap failures; the disk exists to give serialization a realistic price
/// — and, under a fault plan, a realistic way to go wrong.
#[derive(Clone, Debug)]
pub struct Disk {
    node: NodeId,
    capacity: ByteSize,
    used: ByteSize,
    files: Vec<Option<DiskFile>>,
    stats: DiskStats,
    injector: Option<Box<FaultInjector>>,
}

impl Disk {
    /// Creates an empty disk belonging to `node`, priced by
    /// [`CostModel`]'s disk terms.
    ///
    /// `_cost` is unread: the prices are constants. It stays only so
    /// that callers outside this workspace that pass one still build.
    pub fn new(node: NodeId, capacity: ByteSize, _cost: CostModel) -> Self {
        Disk {
            node,
            capacity,
            used: ByteSize::ZERO,
            files: Vec::new(),
            stats: DiskStats::default(),
            injector: None,
        }
    }

    /// Routes subsequent reads/writes through a fault injector this
    /// disk owns. Installing again replaces the previous injector.
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(Box::new(injector));
    }

    /// Injected-fault counts charged to this disk (zeroes without an
    /// injector).
    pub fn injector_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// The node this disk belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Bytes currently stored.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Remaining capacity (explicitly saturating: a disk can never
    /// report negative free space, even if accounting drifts).
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used)
    }

    /// I/O statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The deterministic checksum a file's content should have.
    fn content_checksum(id: FileId, bytes: ByteSize) -> u64 {
        stable_hash64(id.0 ^ bytes.as_u64().rotate_left(17))
    }

    fn alloc_file(&mut self, label: String, bytes: ByteSize, intact: bool) -> SimResult<FileId> {
        if self.used + bytes > self.capacity {
            return Err(SimError::DiskFull {
                node: self.node,
                requested: bytes,
            });
        }
        let id = FileId(self.files.len() as u64);
        let checksum = Self::content_checksum(id, bytes);
        let stored_checksum = if intact {
            checksum
        } else {
            checksum ^ 0xDEAD_BEEF
        };
        self.files.push(Some(DiskFile {
            id,
            label,
            bytes,
            checksum,
            stored_checksum,
        }));
        self.used += bytes;
        Ok(id)
    }

    /// Writes a new file of `bytes`; returns its id and the I/O time.
    ///
    /// Fails with [`SimError::DiskFull`] when capacity is exhausted and
    /// [`SimError::IoTransient`] when the injector says so; an injected
    /// *silent corruption* succeeds here and is only detectable through
    /// [`Disk::read_verified`] / [`DiskFile::intact`].
    pub fn write(
        &mut self,
        label: impl Into<String>,
        bytes: ByteSize,
    ) -> SimResult<(FileId, SimDuration)> {
        let verdict = match &mut self.injector {
            Some(inj) => inj.on_disk_write(self.node),
            None => WriteFault::Ok,
        };
        if verdict == WriteFault::Transient {
            self.stats.transient_errors += 1;
            return Err(SimError::IoTransient { node: self.node });
        }
        let id = self.alloc_file(label.into(), bytes, verdict != WriteFault::SilentCorruption)?;
        let t = CostModel::disk_write(bytes);
        self.stats.bytes_written += bytes;
        self.stats.writes += 1;
        self.stats.io_time += t;
        Ok((id, t))
    }

    /// Registers a file that is *already on disk* (an input block laid
    /// down before the job started): occupies space but costs no I/O
    /// time now, and is never subject to injection.
    pub fn register(&mut self, label: impl Into<String>, bytes: ByteSize) -> SimResult<FileId> {
        self.alloc_file(label.into(), bytes, true)
    }

    /// Reads a whole file; returns its size and the I/O time.
    ///
    /// Fails with [`SimError::IoTransient`] when the injector says so;
    /// does **not** verify the checksum (see [`Disk::read_verified`]).
    pub fn read(&mut self, id: FileId) -> SimResult<(ByteSize, SimDuration)> {
        let bytes = self
            .files
            .get(id.0 as usize)
            .and_then(|f| f.as_ref())
            .map(|f| f.bytes)
            .ok_or_else(|| {
                SimError::Internal(format!("read of unknown {id:?} on {}", self.node))
            })?;
        let verdict = match &mut self.injector {
            Some(inj) => inj.on_disk_read(self.node),
            None => ReadFault::Ok,
        };
        if verdict == ReadFault::Transient {
            self.stats.transient_errors += 1;
            return Err(SimError::IoTransient { node: self.node });
        }
        let t = CostModel::disk_read(bytes);
        self.stats.bytes_read += bytes;
        self.stats.reads += 1;
        self.stats.io_time += t;
        Ok((bytes, t))
    }

    /// Reads a file and verifies its checksum. The read cost is paid
    /// either way (a mismatch is only discovered after the bytes are
    /// in); a mismatch reports [`SimError::CorruptPartition`].
    pub fn read_verified(&mut self, id: FileId) -> SimResult<(ByteSize, SimDuration)> {
        let (bytes, t) = self.read(id)?;
        let intact = self
            .file(id)
            .map(DiskFile::intact)
            .ok_or_else(|| SimError::Internal(format!("file {id:?} vanished mid-read")))?;
        if intact {
            Ok((bytes, t))
        } else {
            self.stats.checksum_failures += 1;
            Err(SimError::CorruptPartition {
                node: self.node,
                file: id.0,
            })
        }
    }

    /// Looks up file metadata.
    pub fn file(&self, id: FileId) -> Option<&DiskFile> {
        self.files.get(id.0 as usize).and_then(|f| f.as_ref())
    }

    /// Deletes a file, freeing its space. Returns the bytes freed.
    pub fn delete(&mut self, id: FileId) -> ByteSize {
        match self.files.get_mut(id.0 as usize).and_then(Option::take) {
            Some(f) => {
                self.used = self.used.saturating_sub(f.bytes);
                f.bytes
            }
            None => ByteSize::ZERO,
        }
    }

    /// Drops every file (a node crash loses the whole disk). Returns
    /// the number of files lost.
    pub fn purge(&mut self) -> usize {
        let lost = self.file_count();
        self.files.clear();
        self.used = ByteSize::ZERO;
        lost
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::FaultPlan;

    fn disk() -> Disk {
        Disk::new(NodeId(0), ByteSize::mib(100), CostModel)
    }

    #[test]
    fn write_read_delete_roundtrip() {
        let mut d = disk();
        let (id, wt) = d.write("spill", ByteSize::mib(10)).unwrap();
        assert!(wt > SimDuration::ZERO);
        assert_eq!(d.used(), ByteSize::mib(10));
        assert_eq!(d.file(id).unwrap().label, "spill");
        assert!(d.file(id).unwrap().intact());

        let (bytes, rt) = d.read(id).unwrap();
        assert_eq!(bytes, ByteSize::mib(10));
        assert!(rt > SimDuration::ZERO);
        // Reads are faster than writes under the default cost model.
        assert!(rt < wt);
        // A verified read of an intact file succeeds identically.
        assert_eq!(d.read_verified(id).unwrap().0, bytes);

        assert_eq!(d.delete(id), ByteSize::mib(10));
        assert_eq!(d.used(), ByteSize::ZERO);
        assert!(d.read(id).is_err());
        assert_eq!(d.delete(id), ByteSize::ZERO);
    }

    #[test]
    fn disk_full_is_reported() {
        let mut d = Disk::new(NodeId(2), ByteSize::mib(5), CostModel);
        assert!(d.write("a", ByteSize::mib(4)).is_ok());
        match d.write("b", ByteSize::mib(4)) {
            Err(SimError::DiskFull { node, requested }) => {
                assert_eq!(node, NodeId(2));
                assert_eq!(requested, ByteSize::mib(4));
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
        assert_eq!(d.file_count(), 1);
    }

    #[test]
    fn free_saturates_when_over_capacity() {
        // Accounting can momentarily exceed capacity (e.g. a capacity
        // shrink in a reconfiguration); free() must clamp to zero, not
        // wrap around to a huge value.
        let mut d = Disk::new(NodeId(0), ByteSize::mib(4), CostModel);
        d.write("a", ByteSize::mib(3)).unwrap();
        assert_eq!(d.free(), ByteSize::mib(1));
        d.capacity = ByteSize::mib(2); // shrink below current usage
        assert_eq!(d.free(), ByteSize::ZERO);
        // And deletion never drives `used` below zero either.
        let (id, _) = {
            d.capacity = ByteSize::mib(8);
            d.write("b", ByteSize::mib(1)).unwrap()
        };
        d.delete(id);
        d.delete(id);
        assert_eq!(d.used(), ByteSize::mib(3));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        let (id, _) = d.write("a", ByteSize::mib(1)).unwrap();
        d.read(id).unwrap();
        d.read(id).unwrap();
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().bytes_read, ByteSize::mib(2));
        assert!(d.stats().io_time > SimDuration::ZERO);
    }

    #[test]
    fn injected_transients_surface_and_pass() {
        let plan = FaultPlan::new(11).with_disk_transients(400);
        let mut d = disk();
        d.install_injector(FaultInjector::new(plan));
        let mut transients = 0;
        let mut oks = 0;
        for i in 0..100 {
            match d.write(format!("f{i}"), ByteSize::kib(1)) {
                Ok(_) => oks += 1,
                Err(SimError::IoTransient { node }) => {
                    assert_eq!(node, NodeId(0));
                    transients += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(transients > 0, "a 40% rate must fire in 100 writes");
        assert!(oks > 0, "the burst cap guarantees successes");
        assert_eq!(d.stats().transient_errors, transients);
        assert_eq!(d.injector_stats().transient_writes, transients);
    }

    #[test]
    fn corrupted_writes_fail_verified_reads_only() {
        let plan = FaultPlan::new(5).with_corruption(1000);
        let mut d = disk();
        d.install_injector(FaultInjector::new(plan));
        let (id, _) = d.write("victim", ByteSize::kib(64)).unwrap();
        assert!(!d.file(id).unwrap().intact());
        // A plain read does not notice.
        assert!(d.read(id).is_ok());
        // A verified read does.
        match d.read_verified(id) {
            Err(SimError::CorruptPartition { node, file }) => {
                assert_eq!(node, NodeId(0));
                assert_eq!(file, id.0);
            }
            other => panic!("expected CorruptPartition, got {other:?}"),
        }
        assert_eq!(d.stats().checksum_failures, 1);
    }

    #[test]
    fn purge_loses_everything() {
        let mut d = disk();
        d.write("a", ByteSize::mib(1)).unwrap();
        d.register("b", ByteSize::mib(2)).unwrap();
        assert_eq!(d.purge(), 2);
        assert_eq!(d.used(), ByteSize::ZERO);
        assert_eq!(d.file_count(), 0);
    }
}
