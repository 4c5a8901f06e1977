//! Criterion micro-benchmarks: wall-clock cost of the simulator's hot
//! paths (heap accounting, GC, scale loop, serialization policy) and of
//! small end-to-end runs. These measure the *simulator's* performance;
//! the paper's virtual-time results come from the table/figure binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use apps::hyracks_apps::{wc, HyracksParams};
use itask_core::queue::PartitionQueue;
use itask_core::{offer_serialized, Irs, IrsConfig, Scale, Tag, TaskGraph, Tuple, VecPartition};
use simcluster::{NodeSim, NodeState};
use simcore::{ByteSize, NodeId, PartitionId, SimTime, SpaceId, TaskId};
use simmem::{Heap, HeapConfig};
use workloads::webmap::WebmapSize;

fn bench_heap(c: &mut Criterion) {
    c.bench_function("heap/alloc_free_cycle", |b| {
        let mut heap = Heap::new(HeapConfig::with_capacity(ByteSize::mib(12)));
        let s = heap.create_space("bench");
        b.iter(|| {
            heap.alloc(s, ByteSize(256), SimTime::ZERO).unwrap();
            heap.free(s, ByteSize(256));
        });
    });

    c.bench_function("heap/full_gc_1mib_live", |b| {
        let mut heap = Heap::new(HeapConfig::with_capacity(ByteSize::mib(12)));
        let s = heap.create_space("bench");
        heap.alloc(s, ByteSize::mib(1), SimTime::ZERO).unwrap();
        b.iter(|| black_box(heap.force_full_gc(SimTime::ZERO)));
    });
}

struct Blob(u64);

impl Tuple for Blob {
    fn heap_bytes(&self) -> u64 {
        self.0
    }
}

fn queue_part(id: u32, task: u32, tag: u64) -> itask_core::PartitionBox {
    let items: Vec<Blob> = (0..4).map(|_| Blob(128)).collect();
    Box::new(VecPartition::new(
        PartitionId(id),
        TaskId(task),
        Tag(tag),
        items,
        SpaceId(id),
    ))
}

fn bench_queue(c: &mut Criterion) {
    // The scheduler's per-quantum pattern: push a batch, scan one task's
    // metadata, then drain it group by group.
    c.bench_function("queue/push_scan_take_512", |b| {
        b.iter(|| {
            let mut q = PartitionQueue::new();
            for i in 0..512u32 {
                q.push(queue_part(i, (i % 8) / 4, (i % 4) as u64));
            }
            let picked = q
                .metas_for(TaskId(0))
                .min_by_key(|m| (!m.in_memory(), m.id))
                .map(|m| m.id);
            black_box(q.take(picked.unwrap()));
            for tag in 0..4u64 {
                black_box(q.take_group(TaskId(0), Tag(tag)).len());
                black_box(q.take_group(TaskId(1), Tag(tag)).len());
            }
            black_box(q.len());
        });
    });

    // Point removals interleaved with pushes (tombstone + compaction
    // path).
    c.bench_function("queue/interleaved_take_by_id_512", |b| {
        b.iter(|| {
            let mut q = PartitionQueue::new();
            for i in 0..512u32 {
                q.push(queue_part(i, 1, 0));
                if i % 2 == 1 {
                    black_box(q.take(PartitionId(i - 1)));
                }
            }
            black_box(q.len());
        });
    });
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("workloads/webmap_block_128k", |b| {
        let cfg = workloads::webmap::WebmapConfig::preset(WebmapSize::G3, 42);
        b.iter(|| black_box(cfg.block(0, ByteSize::kib(128))));
    });
    c.bench_function("workloads/wikipedia_block_128k", |b| {
        let cfg = workloads::wikipedia::WikipediaConfig::sample(42);
        b.iter(|| black_box(cfg.block(0, ByteSize::kib(128))));
    });
}

fn bench_irs(c: &mut Criterion) {
    // One full interruptible count of 20k tuples under pressure.
    c.bench_function("irs/pressured_count_20k_tuples", |b| {
        b.iter(|| {
            #[derive(Default)]
            struct T {
                n: u64,
            }
            impl itask_core::TupleTask for T {
                type In = apps::CountMid;
                fn initialize(
                    &mut self,
                    _: &mut itask_core::TaskCx<'_, '_>,
                ) -> simcore::SimResult<()> {
                    Ok(())
                }
                fn process(
                    &mut self,
                    cx: &mut itask_core::TaskCx<'_, '_>,
                    _t: &apps::CountMid,
                ) -> simcore::SimResult<()> {
                    self.n += 1;
                    cx.alloc_out(ByteSize(32))?;
                    Ok(())
                }
                fn interrupt(
                    &mut self,
                    cx: &mut itask_core::TaskCx<'_, '_>,
                ) -> simcore::SimResult<()> {
                    let n = std::mem::take(&mut self.n);
                    cx.emit_final(Box::new(n), ByteSize(8))
                }
                fn cleanup(
                    &mut self,
                    cx: &mut itask_core::TaskCx<'_, '_>,
                ) -> simcore::SimResult<()> {
                    let n = std::mem::take(&mut self.n);
                    cx.emit_final(Box::new(n), ByteSize(8))
                }
            }
            let mut sim = NodeSim::new(NodeState::new(
                NodeId(0),
                4,
                ByteSize::kib(256),
                ByteSize::mib(64),
            ));
            let mut graph = TaskGraph::new();
            let t = graph.add_task("t", || Box::new(Scale(T::default())));
            let mut irs = Irs::new(graph, IrsConfig::default());
            let handle = irs.handle();
            for _ in 0..10 {
                let items: Vec<apps::CountMid> =
                    (0..2_000).map(|i| apps::CountMid::one(i, 64)).collect();
                offer_serialized(&handle, sim.node_mut(), t, Tag(0), items).unwrap();
            }
            irs.run_to_idle(&mut sim).unwrap();
            black_box(irs.stats());
        });
    });
}

fn bench_service(c: &mut Criterion) {
    use simcore::sketch::QuantileSketch;
    use simserve::{
        AdmissionConfig, AdmissionController, Arrival, ClusterView, PolicyKind, WeightRule,
    };

    // The admission controller's steady-state loop: enqueue a wave of
    // arrivals across tenants, drain under the policy, credit service.
    for policy in [PolicyKind::Fifo, PolicyKind::WeightedFair] {
        c.bench_function(
            &format!("service/admission_churn_256_{}", policy.label()),
            |b| {
                let view = ClusterView {
                    active: 0,
                    min_free_ratio: 0.8,
                    any_reduce_signal: false,
                    now: SimTime::ZERO,
                };
                b.iter(|| {
                    let cfg = AdmissionConfig {
                        policy,
                        max_active: usize::MAX,
                        ..AdmissionConfig::default()
                    };
                    let mut ctl = AdmissionController::with_weight_rule(cfg, WeightRule::uniform());
                    for i in 0..256u32 {
                        let at = SimTime::from_nanos(i as u64);
                        ctl.enqueue_arrival(
                            &Arrival {
                                at,
                                tenant: i % 8,
                                seq: i / 8,
                                kind: simserve::JobKind::DegreeCount,
                                dataset_seed: i as u64,
                                deadline: None,
                            },
                            at,
                        );
                    }
                    while let Some(job) = ctl.next(view) {
                        ctl.credit_served(job.tenant, 1_000);
                        black_box(job.seq);
                    }
                    black_box(ctl.queued());
                });
            },
        );
    }

    // Pop latency against a standing population: the sub-linear-growth
    // claim of the indexed admission plane. Setup enqueues n tenants
    // once (outside b.iter); each iteration is one steady-state
    // pop → credit → requeue cycle against the full population, so a
    // per-decision cost that scales with n (the old linear scan) shows
    // up as 10^4x growth from 1e2 to 1e6 instead of log-factor growth.
    for n in [100u32, 10_000, 1_000_000] {
        c.bench_function(&format!("service/admission_pop_wfair_{n}t"), |b| {
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
            for i in 0..n {
                let at = SimTime::from_nanos(i as u64);
                ctl.enqueue_arrival(
                    &Arrival {
                        at,
                        tenant: i,
                        seq: 0,
                        kind: simserve::JobKind::DegreeCount,
                        dataset_seed: i as u64,
                        deadline: None,
                    },
                    at,
                );
            }
            let view = ClusterView {
                active: 0,
                min_free_ratio: 0.8,
                any_reduce_signal: false,
                now: SimTime::from_nanos(n as u64),
            };
            let mut served = 0u64;
            b.iter(|| {
                let job = ctl.next(view).expect("population never drains");
                served += 1_000;
                ctl.credit_served(job.tenant, served);
                ctl.requeue(job, view.now);
            });
            black_box(ctl.queued());
        });
    }

    // Sketch ingestion + quantile walk at service scale.
    c.bench_function("service/sketch_insert_4k_quantiles", |b| {
        b.iter(|| {
            let mut s = QuantileSketch::new(128);
            for i in 0..4_096u64 {
                s.insert(i.wrapping_mul(2654435761) % 1_000_000);
            }
            black_box((s.quantile(0.5), s.quantile(0.95), s.quantile(0.99)));
        });
    });
}

/// Host cost of one committed log entry: propose, price the RPCs, stage
/// and deliver the commands, apply on every replica, collect the acks,
/// commit. Same regime as `smr_log` in `BENCHMARK.json` (64 B entries,
/// 92% live/heap), one fifth the log.
fn bench_smr(c: &mut Criterion) {
    use simsmr::{RuntimeMode, SmrConfig};

    const ENTRIES: u64 = 20_000;
    let mut cfg = SmrConfig::new(3, RuntimeMode::Itask);
    cfg.entries = ENTRIES;
    cfg.payload = ByteSize(64);
    let cfg = cfg.with_pressure(92);
    let mut g = c.benchmark_group("smr");
    g.sample_size(10);
    g.bench_function("commit_entry", |b| {
        let start = std::time::Instant::now();
        let mut committed = 0;
        b.iter(|| {
            let o = simsmr::run(&cfg);
            assert_eq!(o.commits, ENTRIES, "{:?}", o.result);
            committed += o.commits;
        });
        println!(
            "      smr/commit_entry: {} ns per committed entry",
            start.elapsed().as_nanos() / committed as u128
        );
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_wc_3gb");
    g.sample_size(10);
    g.bench_function("regular", |b| {
        let p = HyracksParams::default();
        b.iter(|| black_box(wc::run_regular(WebmapSize::G3, &p).ok()));
    });
    g.bench_function("itask", |b| {
        let p = HyracksParams::default();
        b.iter(|| black_box(wc::run_itask(WebmapSize::G3, &p).ok()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_heap,
    bench_queue,
    bench_generators,
    bench_irs,
    bench_service,
    bench_smr,
    bench_end_to_end
);
criterion_main!(benches);
