//! The profiler's `map` stage counts every tuple a scale loop moves past,
//! for ITask instances and regular operator workers alike: units equal
//! the tuples fed in, whether or not the run was interrupted.
//!
//! Its own test binary because `simcore::prof` is process-global; the
//! tests here serialize on one lock and reset the counters first.

use std::collections::VecDeque;
use std::sync::Mutex;

use hyracks::{OpCx, Operator, OperatorWorker, OutputSink};
use itask_core::{
    offer_serialized, scale_loop, InterruptMode, Irs, IrsConfig, IrsStats, Scale, Tag, TaskCx,
    TaskGraph, Tuple, TupleTask,
};
use simcluster::{NodeSim, NodeState, WorkCx};
use simcore::{prof, ByteSize, CostModel, NodeId, SimDuration, SimError, SimResult};

static PROF: Mutex<()> = Mutex::new(());

/// Partitions per ITask run.
const K: u64 = 10;
/// Tuples per partition.
const N: u64 = 2_000;

struct Item;

impl Tuple for Item {
    fn heap_bytes(&self) -> u64 {
        64
    }
}

fn tuple_cost() -> SimDuration {
    CostModel::tuple_cost(ByteSize(Item.ser_bytes()))
}

/// The `map` row after `run`, with the profiler armed for it alone.
fn map_row<R>(run: impl FnOnce() -> R) -> (prof::StageSnapshot, R) {
    let _serial = PROF.lock().unwrap_or_else(|e| e.into_inner());
    prof::reset();
    prof::enable(false);
    let out = run();
    prof::disable();
    (prof::snapshot().swap_remove(prof::Stage::Map as usize), out)
}

/// Counts its tuples into 32 bytes of output each; an interrupt or the
/// end of input pushes the count out as a final result.
#[derive(Default)]
struct Count(u64);

impl TupleTask for Count {
    type In = Item;

    fn initialize(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, _: &Item) -> SimResult<()> {
        self.0 += 1;
        cx.alloc_out(ByteSize(32))
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.cleanup(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let n = std::mem::take(&mut self.0);
        cx.emit_final(Box::new(n), ByteSize(8))
    }
}

fn node(heap: ByteSize) -> NodeSim {
    NodeSim::new(NodeState::new(NodeId(0), 4, heap, ByteSize::mib(64)))
}

/// Counts K serialized partitions of N tuples as one ITask on a heap of
/// `heap`, cooperatively interrupted; returns the run's statistics.
fn itask_run(heap: ByteSize) -> IrsStats {
    let mut sim = node(heap);
    let mut graph = TaskGraph::new();
    let task = graph.add_task("count", || Box::new(Scale(Count::default())));
    let cfg = IrsConfig {
        interrupt_mode: InterruptMode::Cooperative,
        ..IrsConfig::default()
    };
    let mut irs = Irs::new(graph, cfg);
    let handle = irs.handle();
    for _ in 0..K {
        let items: Vec<Item> = (0..N).map(|_| Item).collect();
        offer_serialized(&handle, sim.node_mut(), task, Tag(0), items)
            .expect("registering an input file needs no heap");
    }
    irs.run_to_idle(&mut sim).expect("the count completes");
    irs.stats()
}

#[test]
fn itask_map_stage_counts_every_tuple_at_an_ample_heap() {
    let (map, stats) = map_row(|| itask_run(ByteSize::mib(64)));
    assert_eq!(stats.interrupts + stats.emergency_interrupts, 0);
    assert_eq!(map.units, K * N);
    assert_eq!(map.vtime_ns, (K * N) * tuple_cost().as_nanos());
}

#[test]
fn itask_map_stage_counts_every_tuple_across_interrupts() {
    let (map, stats) = map_row(|| itask_run(ByteSize::kib(256)));
    assert!(
        stats.interrupts + stats.emergency_interrupts > 0,
        "the pressured run must interrupt: {stats:?}"
    );
    assert_eq!(map.units, K * N);
}

/// Counts its tuples; emits nothing.
struct Tally;

impl Operator for Tally {
    type In = Item;
    type Out = Item;

    fn next(&mut self, _: &mut OpCx<'_, '_, Item>, _: &Item) -> SimResult<()> {
        Ok(())
    }

    fn close(&mut self, _: &mut OpCx<'_, '_, Item>) -> SimResult<()> {
        Ok(())
    }
}

#[test]
fn operator_worker_map_stage_counts_every_tuple() {
    const FRAMES: u64 = 7;
    let (map, ()) = map_row(|| {
        let mut sim = node(ByteSize::mib(4));
        let frames: VecDeque<Vec<Item>> = (0..FRAMES)
            .map(|_| (0..N).map(|_| Item).collect())
            .collect();
        let sink: OutputSink<Item> = OutputSink::default();
        sim.spawn(Box::new(OperatorWorker::new(
            Tally, frames, sink, true, "tally",
        )));
        while sim.live_count() > 0 {
            assert!(sim.run_round().failed.is_empty());
        }
    });
    assert_eq!(map.units, FRAMES * N);
    assert_eq!(map.vtime_ns, (FRAMES * N) * tuple_cost().as_nanos());
}

#[test]
fn a_failing_tuple_still_records_the_tuples_before_it() {
    const OK: u64 = 7;
    let (map, cursor) = map_row(|| {
        let mut sim = node(ByteSize::mib(4));
        let mut work = WorkCx::detached(sim.node_mut(), tuple_cost() * 1000);
        let items: Vec<Item> = (0..N).map(|_| Item).collect();
        let (mut cursor, mut seen) = (0, 0);
        let r = scale_loop(&mut work, &items, &mut cursor, false, |_, _| {
            seen += 1;
            if seen > OK {
                return Err(SimError::Internal("refused".into()));
            }
            Ok(())
        });
        assert!(r.is_err());
        cursor as u64
    });
    assert_eq!(cursor, OK);
    assert_eq!((map.events, map.units), (1, OK));
    // The refused tuple was charged, so its time is recorded too.
    assert_eq!(map.vtime_ns, (OK + 1) * tuple_cost().as_nanos());
}
