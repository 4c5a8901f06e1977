//! Layer drives: fixed-count loops over one layer's public API, each
//! reported as host nanoseconds per operation (median of five runs of
//! the loop). They say what a layer costs in isolation; README.md names
//! the end-to-end metric and workload each one should move.

use std::hint::black_box;
use std::time::Instant;

use apps::agg::AggState;
use apps::hyracks_apps::wc::WcSpec;
use apps::{AggSpec, CountMid};
use itask_core::queue::PartitionQueue;
use itask_core::{offer_serialized, Irs, IrsConfig, Scale, Tag, TaskGraph, Tuple, VecPartition};
use simcluster::{NodeSim, NodeState, ShardExecutor};
use simcore::{
    ByteSize, CostModel, NodeId, PartitionId, QuantileSketch, SimDuration, SimTime, SpaceId, TaskId,
};
use simmem::{Heap, HeapConfig};
use simserve::workload::ArrivalGen;
use simserve::{
    AdmissionConfig, AdmissionController, Arrival, ClusterView, JobKind, PolicyKind, TenantModel,
    WeightRule,
};
use workloads::webmap::{WebmapConfig, WebmapSize};
use workloads::wikipedia::WikipediaConfig;

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median over five calls of `f`, which returns (elapsed, operations).
fn ns_per_op(mut f: impl FnMut() -> (std::time::Duration, u64)) -> f64 {
    median(
        (0..5)
            .map(|_| {
                let (t, ops) = f();
                t.as_nanos() as f64 / ops as f64
            })
            .collect(),
    )
}

fn timed(ops: u64, f: impl FnOnce()) -> (std::time::Duration, u64) {
    let t = Instant::now();
    f();
    (t.elapsed(), ops)
}

fn heap() -> (Heap, SpaceId) {
    let mut heap = Heap::new(HeapConfig::with_capacity(ByteSize::mib(12)));
    let space = heap.create_space("drive");
    (heap, space)
}

fn simmem_alloc_free() -> f64 {
    ns_per_op(|| {
        let (mut heap, s) = heap();
        timed(400_000, || {
            for _ in 0..400_000 {
                black_box(heap.alloc(s, ByteSize(256), SimTime::ZERO).is_ok());
                heap.free(s, ByteSize(256));
            }
        })
    })
}

/// Quarter-young allocations, freed at once: every fourth one collects
/// the young generation.
fn simmem_minor_gc() -> f64 {
    ns_per_op(|| {
        let (mut heap, s) = heap();
        let chunk = ByteSize(heap.config().young_capacity.as_u64() / 4);
        let before = heap.stats().count();
        let t = Instant::now();
        for _ in 0..80_000 {
            black_box(heap.alloc(s, chunk, SimTime::ZERO).is_ok());
            heap.free(s, chunk);
        }
        (t.elapsed(), heap.stats().count() - before)
    })
}

fn simmem_full_gc() -> f64 {
    const LIVE_MIB: u64 = 8;
    ns_per_op(|| {
        let mut heap = Heap::new(HeapConfig::with_capacity(ByteSize::mib(12)));
        for i in 0..64 {
            let s = heap.create_space(format!("drive{i}"));
            heap.alloc(s, ByteSize::kib(LIVE_MIB * 1024 / 64), SimTime::ZERO)
                .expect("8 MiB live fits a 12 MiB heap");
        }
        timed(20_000 * LIVE_MIB, || {
            for _ in 0..20_000 {
                black_box(heap.force_full_gc(SimTime::ZERO));
            }
        })
    })
}

fn simstore_write_read() -> f64 {
    ns_per_op(|| {
        let mut disk = simstore::Disk::new(NodeId(0), ByteSize::gib(1), CostModel::default());
        timed(200_000, || {
            for _ in 0..200_000 {
                let (id, _) = disk
                    .write("drive", ByteSize::kib(32))
                    .expect("disk has room");
                black_box(disk.read(id).is_ok());
                disk.delete(id);
            }
        })
    })
}

fn simnet_transfer() -> f64 {
    ns_per_op(|| {
        let mut fabric = simnet::Fabric::new(10, CostModel::default());
        timed(1_000_000, || {
            for i in 0..1_000_000u32 {
                black_box(
                    fabric
                        .transfer_at(
                            NodeId(i % 10),
                            NodeId((i + 1) % 10),
                            ByteSize::kib(32),
                            SimTime::ZERO,
                        )
                        .is_ok(),
                );
            }
        })
    })
}

fn simnet_quorum_send() -> f64 {
    ns_per_op(|| {
        let mut fabric = simnet::Fabric::new(5, CostModel::default());
        let followers: Vec<NodeId> = (1..5).map(NodeId).collect();
        timed(300_000, || {
            for _ in 0..300_000 {
                black_box(
                    fabric
                        .quorum_send_at(
                            NodeId(0),
                            &followers,
                            simnet::rpc::append_entries(ByteSize(64)),
                            SimTime::ZERO,
                        )
                        .is_ok(),
                );
            }
        })
    })
}

/// A compute body that fills every quantum it is given and never ends.
struct Spin;

impl simcluster::Work for Spin {
    fn step(&mut self, cx: &mut simcluster::WorkCx<'_>) -> simcluster::StepOutcome {
        let left = cx.remaining();
        cx.charge(left);
        simcluster::StepOutcome::Ran
    }

    fn label(&self) -> String {
        "spin".into()
    }
}

fn simcluster_round(shards: usize, rounds: u64) -> f64 {
    const NODES: usize = 8;
    ns_per_op(|| {
        let mut cluster = simcluster::Cluster::new(simcluster::ClusterConfig {
            nodes: NODES,
            cores: 4,
            heap_per_node: ByteSize::mib(64),
            ..simcluster::ClusterConfig::default()
        });
        let nodes: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
        for &n in &nodes {
            for _ in 0..4 {
                cluster.sim(n).spawn(Box::new(Spin));
            }
        }
        let mut exec = ShardExecutor::with_shards(shards);
        timed(rounds * NODES as u64, || {
            for _ in 0..rounds {
                black_box(exec.run_round(&mut cluster, &nodes, false).reports.len());
            }
        })
    })
}

struct Blob(u64);

impl Tuple for Blob {
    fn heap_bytes(&self) -> u64 {
        self.0
    }
}

/// The scheduler's per-quantum pattern: push a batch, take one partition
/// by id, then drain the rest group by group.
fn itask_queue_op() -> f64 {
    ns_per_op(|| {
        let t = Instant::now();
        let mut ops = 0;
        for _ in 0..400 {
            let mut q = PartitionQueue::new();
            for i in 0..512u32 {
                let items: Vec<Blob> = (0..4).map(|_| Blob(128)).collect();
                q.push(Box::new(VecPartition::new(
                    PartitionId(i),
                    TaskId((i % 8) / 4),
                    Tag((i % 4) as u64),
                    items,
                    SpaceId(i),
                )));
            }
            black_box(q.take(PartitionId(7)).is_some());
            ops += 513;
            for tag in 0..4 {
                for task in 0..2 {
                    black_box(q.take_group(TaskId(task), Tag(tag)).len());
                    ops += 1;
                }
            }
        }
        (t.elapsed(), ops)
    })
}

#[derive(Default)]
struct Count {
    n: u64,
}

impl itask_core::TupleTask for Count {
    type In = CountMid;

    fn initialize(&mut self, _: &mut itask_core::TaskCx<'_, '_>) -> simcore::SimResult<()> {
        Ok(())
    }

    fn process(
        &mut self,
        cx: &mut itask_core::TaskCx<'_, '_>,
        _: &CountMid,
    ) -> simcore::SimResult<()> {
        self.n += 1;
        cx.alloc_out(ByteSize(32))
    }

    fn interrupt(&mut self, cx: &mut itask_core::TaskCx<'_, '_>) -> simcore::SimResult<()> {
        self.cleanup(cx)
    }

    fn cleanup(&mut self, cx: &mut itask_core::TaskCx<'_, '_>) -> simcore::SimResult<()> {
        let n = std::mem::take(&mut self.n);
        cx.emit_final(Box::new(n), ByteSize(8))
    }
}

/// An interruptible count of ten serialized partitions on a 256 KiB
/// node: deserialization, interrupts and re-activation per input tuple.
fn itask_irs_pressured() -> f64 {
    const RUNS: u64 = 4;
    const PARTS: u64 = 10;
    const TUPLES: u64 = 2_000;
    ns_per_op(|| {
        timed(RUNS * PARTS * TUPLES, || {
            for _ in 0..RUNS {
                let mut sim = NodeSim::new(NodeState::new(
                    NodeId(0),
                    4,
                    ByteSize::kib(256),
                    ByteSize::mib(64),
                ));
                let mut graph = TaskGraph::new();
                let task = graph.add_task("count", || Box::new(Scale(Count::default())));
                let mut irs = Irs::new(graph, IrsConfig::default());
                let handle = irs.handle();
                for _ in 0..PARTS {
                    let items: Vec<CountMid> = (0..TUPLES).map(|i| CountMid::one(i, 64)).collect();
                    offer_serialized(&handle, sim.node_mut(), task, Tag(0), items)
                        .expect("registering an input file needs no heap");
                }
                irs.run_to_idle(&mut sim)
                    .expect("the count survives by interrupting");
                black_box(irs.stats().interrupts);
            }
        })
    })
}

/// `batch_fit`'s key stream: WC's contributions from webmap 10GB blocks.
fn wc_mids(seed: u64) -> Vec<CountMid> {
    let cfg = WebmapConfig::preset(WebmapSize::G10, seed);
    let mut mids = Vec::new();
    for b in 0..8 {
        for rec in cfg.block(b, ByteSize::kib(128)) {
            WcSpec.explode(&rec, &mut mids);
        }
    }
    mids
}

fn hyracks_chunk(mids: &[CountMid]) -> f64 {
    ns_per_op(|| {
        let t = Instant::now();
        let mut ops = 0;
        for _ in 0..20 {
            let records = mids.to_vec();
            ops += records.len() as u64;
            black_box(hyracks::chunk_into_frames(records, ByteSize::kib(32)).len());
        }
        (t.elapsed(), ops)
    })
}

fn apps_agg(mids: &[CountMid]) -> (f64, f64) {
    let mut drains = Vec::new();
    let add = ns_per_op(|| {
        let mut state = AggState::<CountMid>::new();
        let add = timed(mids.len() as u64, || {
            for m in mids {
                state
                    .add(*m, &mut |_| Ok(()))
                    .expect("the charge callback never fails");
            }
        });
        let t = Instant::now();
        let drained = state.drain().len() as u64;
        drains.push(t.elapsed().as_nanos() as f64 / drained as f64);
        add
    });
    (add, median(drains))
}

fn workloads_webmap_block(seed: u64) -> f64 {
    let cfg = WebmapConfig::preset(WebmapSize::G10, seed);
    ns_per_op(|| {
        let t = Instant::now();
        let mut ops = 0;
        for b in 0..16 {
            ops += cfg.block(b, ByteSize::kib(128)).len() as u64;
        }
        (t.elapsed(), ops)
    })
}

fn workloads_wikipedia_block(seed: u64) -> f64 {
    let cfg = WikipediaConfig::full_dump(seed);
    ns_per_op(|| {
        let t = Instant::now();
        let mut ops = 0;
        for b in 0..16 {
            ops += cfg.block(b, ByteSize::kib(128)).len() as u64;
        }
        (t.elapsed(), ops)
    })
}

/// One admission decision against 10^5 standing tenants: pop the
/// fairest tenant's job, credit its service, enqueue its next arrival.
fn simserve_admission_cycle() -> f64 {
    const TENANTS: u32 = 100_000;
    let arrival = |tenant: u32, seq: u32, at: SimTime| Arrival {
        at,
        tenant,
        seq,
        kind: JobKind::DegreeCount,
        dataset_seed: tenant as u64,
        deadline: None,
    };
    let cfg = AdmissionConfig {
        policy: PolicyKind::WeightedFair,
        max_active: usize::MAX,
        ..AdmissionConfig::default()
    };
    let rule = WeightRule {
        premium_every: 10,
        premium_weight: 8,
    };
    let mut ctl = AdmissionController::with_weight_rule(cfg, rule);
    for t in 0..TENANTS {
        let at = SimTime::from_nanos(t as u64);
        ctl.enqueue_arrival(&arrival(t, 0, at), at);
    }
    let now = SimTime::from_nanos(TENANTS as u64);
    let view = ClusterView {
        active: 0,
        min_free_ratio: 0.8,
        any_reduce_signal: false,
        now,
    };
    let mut served = 0;
    ns_per_op(|| {
        timed(200_000, || {
            for _ in 0..200_000 {
                let job = ctl.next(view).expect("the population never drains");
                served += 1_000;
                ctl.credit_served(job.tenant, served);
                ctl.enqueue_arrival(&arrival(job.tenant, job.seq + 1, now), now);
            }
        })
    })
}

fn simserve_arrival_gen(seed: u64) -> f64 {
    ns_per_op(|| {
        let model = TenantModel::uniform(100_000, SimDuration::from_micros(2));
        let mut gen = ArrivalGen::new(seed, model, SimDuration::from_millis(400));
        let t = Instant::now();
        let mut ops = 0;
        while let Some(a) = gen.next_arrival() {
            black_box(a.tenant);
            ops += 1;
        }
        (t.elapsed(), ops)
    })
}

fn simcore_sketch_insert() -> f64 {
    ns_per_op(|| {
        let mut s = QuantileSketch::new(128);
        timed(1_000_000, || {
            for i in 0..1_000_000u64 {
                s.insert(i.wrapping_mul(2_654_435_761) % 1_000_000);
            }
            black_box(s.quantile(0.99));
        })
    })
}

/// Every layer drive, as (metric name, ns per operation).
pub fn drives(seed: u64) -> Vec<(&'static str, f64)> {
    let mids = wc_mids(seed);
    let (agg_add, agg_drain) = apps_agg(&mids);
    vec![
        ("simmem.alloc_free_ns", simmem_alloc_free()),
        ("simmem.minor_gc_ns", simmem_minor_gc()),
        ("simmem.full_gc_ns_per_live_mib", simmem_full_gc()),
        ("simstore.write_read_ns", simstore_write_read()),
        ("simnet.transfer_ns", simnet_transfer()),
        ("simnet.quorum_send_ns", simnet_quorum_send()),
        ("simcluster.round_ns_per_node", simcluster_round(1, 20_000)),
        // A pooled round costs about fifty serial ones.
        (
            "simcluster.shard2_round_ns_per_node",
            simcluster_round(2, 2_000),
        ),
        ("itask-core.queue_op_ns", itask_queue_op()),
        (
            "itask-core.irs_pressured_ns_per_tuple",
            itask_irs_pressured(),
        ),
        ("hyracks.chunk_ns_per_tuple", hyracks_chunk(&mids)),
        ("apps.agg_add_ns_per_tuple", agg_add),
        ("apps.agg_drain_ns_per_tuple", agg_drain),
        (
            "workloads.webmap_block_ns_per_tuple",
            workloads_webmap_block(seed),
        ),
        (
            "workloads.wikipedia_block_ns_per_tuple",
            workloads_wikipedia_block(seed),
        ),
        ("simserve.admission_cycle_ns", simserve_admission_cycle()),
        ("simserve.arrival_gen_ns", simserve_arrival_gen(seed)),
        ("simcore.sketch_insert_ns", simcore_sketch_insert()),
    ]
}
