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
    pub(crate) buffer_space: SpaceId,
    pub(crate) buffer_bytes: &'a mut ByteSize,
    pub(crate) sort_buffer: ByteSize,
    pub(crate) spilled_ser: &'a mut ByteSize,
    pub(crate) spills: &'a mut u32,
    pub(crate) out: &'a mut BTreeMap<u32, Vec<Out>>,
}

impl<Out: Tuple> MapCx<'_, '_, Out> {
    /// The cost model.
    pub fn cost(&self) -> CostModel {
        self.work.cost()
    }

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

    /// Live user-state bytes.
    pub fn state_bytes(&mut self) -> ByteSize {
        let s = self.state_space;
        self.work.node().heap.space_live(s)
    }

    /// `context.write(key, value)`: buffers the tuple; when the sort
    /// buffer fills, it is spilled to disk and the heap charge released
    /// (Hadoop's own out-of-core path — framework buffers never OME).
    pub fn write(&mut self, bucket: u32, tuple: Out) -> SimResult<()> {
        let bytes = ByteSize(tuple.heap_bytes());
        let buf = self.buffer_space;
        self.work.alloc(buf, bytes)?;
        *self.buffer_bytes += bytes;
        self.out.entry(bucket).or_default().push(tuple);
        if *self.buffer_bytes > self.sort_buffer {
            self.spill()?;
        }
        Ok(())
    }

    /// Spills the sort buffer to disk.
    pub(crate) fn spill(&mut self) -> SimResult<()> {
        if self.buffer_bytes.is_zero() {
            return Ok(());
        }
        // Sort cost before writing the run.
        self.work
            .charge(self.work.cost().serialize_cpu(*self.buffer_bytes));
        let ser = self.buffer_bytes.mul_ratio(1, 3).max(ByteSize(1));
        let spill_no = *self.spills;
        self.work
            .node()
            .disk_write_async(format!("spill{spill_no}"), ser)?;
        *self.spilled_ser += ser;
        *self.spills += 1;
        let buf = self.buffer_space;
        let released = *self.buffer_bytes;
        self.work.free(buf, released);
        *self.buffer_bytes = ByteSize::ZERO;
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
    /// The cost model.
    pub fn cost(&self) -> CostModel {
        self.work.cost()
    }

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

    /// Live user-state bytes.
    pub fn state_bytes(&mut self) -> ByteSize {
        let s = self.state_space;
        self.work.node().heap.space_live(s)
    }

    /// Writes a final record to HDFS (streamed out, no heap charge).
    pub fn write(&mut self, tuple: Out) -> SimResult<()> {
        let ser = ByteSize(tuple.ser_bytes());
        self.work.charge(self.work.cost().serialize_cpu(ser));
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
