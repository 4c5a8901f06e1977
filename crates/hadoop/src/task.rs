//! The Mapper / Reducer programming interface and attempt contexts.

use std::collections::BTreeMap;

use itask_core::Tuple;
use simcluster::WorkCx;
use simcore::{ByteSize, CostModel, SimDuration, SimResult, SpaceId};

/// Context for a running map attempt: user-state allocation plus
/// `context.write`-style emission into the spill-managed sort buffer.
pub struct MapCx<'a, 'b, Out: Tuple> {
    pub(crate) work: &'a mut WorkCx<'b>,
    pub(crate) state_space: SpaceId,
    pub(crate) buf: &'a mut SortBuffer<Out>,
}

impl<Out: Tuple> MapCx<'_, '_, Out> {
    /// Consumes CPU time.
    pub fn charge(&mut self, t: SimDuration) {
        self.work.charge(t);
    }

    /// Allocates user state (combiner maps, lemmatizer scratch, joined
    /// XML objects — where the studied OMEs come from).
    pub fn alloc_state(&mut self, bytes: ByteSize) -> SimResult<()> {
        let s = self.state_space;
        self.work.alloc(s, bytes)
    }

    /// Frees user state.
    pub fn free_state(&mut self, bytes: ByteSize) -> ByteSize {
        let s = self.state_space;
        self.work.free(s, bytes)
    }

    /// `context.write(key, value)`: buffers the tuple; when the sort
    /// buffer fills, it is spilled to disk and the heap charge released
    /// (Hadoop's own out-of-core path — framework buffers never OME).
    pub fn write(&mut self, bucket: u32, tuple: Out) -> SimResult<()> {
        let bytes = ByteSize(tuple.heap_bytes());
        let buf = &mut *self.buf;
        self.work.alloc(buf.space, bytes)?;
        buf.bytes += bytes;
        buf.out.entry(bucket).or_default().push(tuple);
        if buf.bytes > buf.limit {
            buf.spill(self.work)?;
        }
        Ok(())
    }
}

/// A map attempt's sort buffer (`io.sort.mb`): buffered emissions are
/// charged to its heap space until they pass the limit, then spilled.
pub(crate) struct SortBuffer<Out> {
    space: SpaceId,
    limit: ByteSize,
    bytes: ByteSize,
    spilled_ser: ByteSize,
    pub(crate) spills: u32,
    pub(crate) out: BTreeMap<u32, Vec<Out>>,
}

impl<Out> SortBuffer<Out> {
    pub(crate) fn new(space: SpaceId, limit: ByteSize) -> Self {
        SortBuffer {
            space,
            limit,
            bytes: ByteSize::ZERO,
            spilled_ser: ByteSize::ZERO,
            spills: 0,
            out: BTreeMap::new(),
        }
    }

    /// Spills the buffer to disk.
    fn spill(&mut self, work: &mut WorkCx<'_>) -> SimResult<()> {
        if self.bytes.is_zero() {
            return Ok(());
        }
        // Sort cost before writing the run.
        work.charge(CostModel::serialize_cpu(self.bytes));
        let ser = self.bytes.mul_ratio(1, 3).max(ByteSize(1));
        work.node()
            .disk_write_async(format!("spill{}", self.spills), ser)?;
        self.spilled_ser += ser;
        self.spills += 1;
        work.free(self.space, self.bytes);
        self.bytes = ByteSize::ZERO;
        Ok(())
    }

    /// End of the split: spills what is left, merges the spill runs and
    /// releases the buffer's space.
    pub(crate) fn close(&mut self, work: &mut WorkCx<'_>) -> SimResult<()> {
        self.spill(work)?;
        // Final merge of spill runs: read + write everything once.
        work.charge(CostModel::disk_read(self.spilled_ser));
        work.charge(CostModel::disk_write(self.spilled_ser));
        work.node().heap.release_space(self.space);
        Ok(())
    }
}

/// Context for a running reduce attempt: user-state allocation plus
/// final `context.write` to HDFS (no heap accumulation).
pub struct ReduceCx<'a, 'b, Out: Tuple> {
    pub(crate) work: &'a mut WorkCx<'b>,
    pub(crate) state_space: SpaceId,
    pub(crate) out: &'a mut Vec<Out>,
    pub(crate) written_ser: &'a mut ByteSize,
}

impl<Out: Tuple> ReduceCx<'_, '_, Out> {
    /// Consumes CPU time.
    pub fn charge(&mut self, t: SimDuration) {
        self.work.charge(t);
    }

    /// Allocates user state.
    pub fn alloc_state(&mut self, bytes: ByteSize) -> SimResult<()> {
        let s = self.state_space;
        self.work.alloc(s, bytes)
    }

    /// Frees user state.
    pub fn free_state(&mut self, bytes: ByteSize) -> ByteSize {
        let s = self.state_space;
        self.work.free(s, bytes)
    }

    /// Writes a final record to HDFS (streamed out, no heap charge).
    pub fn write(&mut self, tuple: Out) -> SimResult<()> {
        let ser = ByteSize(tuple.ser_bytes());
        self.work.charge(CostModel::serialize_cpu(ser));
        *self.written_ser += ser;
        self.out.push(tuple);
        Ok(())
    }
}

/// A Hadoop map task (user code).
pub trait Mapper {
    /// Input record type.
    type In: Tuple;
    /// Emitted key-value type (bucketed by reduce task).
    type Out: Tuple;

    /// Processes one input record.
    fn map(&mut self, cx: &mut MapCx<'_, '_, Self::Out>, t: &Self::In) -> SimResult<()>;

    /// End of split (flush combiners etc.).
    fn close(&mut self, cx: &mut MapCx<'_, '_, Self::Out>) -> SimResult<()>;
}

/// A Hadoop reduce task (user code). Tuples arrive grouped by bucket and
/// sorted by the shuffle; grouping into key-runs is the reducer's
/// concern (apps typically aggregate into a map keyed by `In`'s key).
pub trait Reducer {
    /// Shuffled input type.
    type In: Tuple;
    /// Final output record type.
    type Out: Tuple;

    /// Processes one shuffled tuple.
    fn reduce(&mut self, cx: &mut ReduceCx<'_, '_, Self::Out>, t: &Self::In) -> SimResult<()>;

    /// End of bucket.
    fn close(&mut self, cx: &mut ReduceCx<'_, '_, Self::Out>) -> SimResult<()>;
}
