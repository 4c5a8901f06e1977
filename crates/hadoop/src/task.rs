//! Where a task attempt's emissions go: the two [`Sink`]s a Hadoop
//! attempt runs its [`hyracks::OperatorWorker`] with.

use hyracks::{BucketArena, Sink};
use itask_core::Tuple;
use simcluster::WorkCx;
use simcore::{ByteSize, CostModel, SimResult, SpaceId};

/// A map attempt's sort buffer (`io.sort.mb`): buffered emissions are
/// charged to its heap space until they pass the limit, then spilled
/// (Hadoop's own out-of-core path — framework buffers never OME). The
/// emitted tuples themselves collect per bucket in an arena, in
/// emission order.
pub(crate) struct SortBuffer<Out> {
    space: SpaceId,
    limit: ByteSize,
    bytes: ByteSize,
    spilled_ser: ByteSize,
    pub(crate) spills: u32,
    pub(crate) out: BucketArena<Out>,
}

impl<Out> SortBuffer<Out> {
    pub(crate) fn new(space: SpaceId, limit: ByteSize) -> Self {
        SortBuffer {
            space,
            limit,
            bytes: ByteSize::ZERO,
            spilled_ser: ByteSize::ZERO,
            spills: 0,
            out: BucketArena::default(),
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
}

impl<Out: Tuple> Sink<Out> for SortBuffer<Out> {
    /// `context.write(key, value)`: buffers the tuple on the heap and
    /// spills once the buffer passes its limit.
    fn put(&mut self, cx: &mut WorkCx<'_>, bucket: u32, tuple: Out) -> SimResult<()> {
        let bytes = ByteSize(tuple.heap_bytes());
        cx.alloc(self.space, bytes)?;
        self.bytes += bytes;
        self.out.push_grow(bucket, tuple);
        if self.bytes > self.limit {
            self.spill(cx)?;
        }
        Ok(())
    }

    /// End of the split: spills what is left, merges the spill runs and
    /// releases the buffer's space.
    fn end_input(&mut self, cx: &mut WorkCx<'_>) -> SimResult<()> {
        self.spill(cx)?;
        // Final merge of spill runs: read + write everything once.
        cx.charge(CostModel::disk_read(self.spilled_ser));
        cx.charge(CostModel::disk_write(self.spilled_ser));
        cx.node().heap.release_space(self.space);
        Ok(())
    }
}

/// A reduce attempt's final output: each record is serialized and
/// streamed to HDFS (no heap charge), and the write lands at close.
pub(crate) struct HdfsWriter<Out> {
    pub(crate) out: Vec<Out>,
    written_ser: ByteSize,
}

impl<Out> Default for HdfsWriter<Out> {
    fn default() -> Self {
        HdfsWriter {
            out: Vec::new(),
            written_ser: ByteSize::ZERO,
        }
    }
}

impl<Out: Tuple> Sink<Out> for HdfsWriter<Out> {
    fn put(&mut self, cx: &mut WorkCx<'_>, _bucket: u32, tuple: Out) -> SimResult<()> {
        let ser = ByteSize(tuple.ser_bytes());
        cx.charge(CostModel::serialize_cpu(ser));
        self.written_ser += ser;
        self.out.push(tuple);
        Ok(())
    }

    fn end_input(&mut self, cx: &mut WorkCx<'_>) -> SimResult<()> {
        cx.charge(CostModel::disk_write(self.written_ser));
        Ok(())
    }
}
