//! The five workloads: what each generates in set-up, the job list one
//! pass runs, and the checks that every pass's outputs must satisfy.
//!
//! Engines receive only generated inputs; `seed` feeds the generators
//! and nothing else. README.md records why each workload exists.

use std::collections::BTreeMap;
use std::rc::Rc;

use apps::hadoop_apps::{self, crp, imc};
use apps::hyracks_apps::{self, gr, hj, hs, ii, wc, HyracksParams};
use apps::{OutKv, RunSummary, SortMid};
use hadoop::HadoopConfig;
use simcluster::JobReport;
use simcore::{prof, ByteSize, DetRng, QuantileSketch, SimDuration};
use simserve::{
    EngineKind, LoadShape, PolicyKind, RetryPolicy, ScaleSpec, Service, ServiceConfig,
    ServiceReport, TenantModel, WeightRule,
};
use simsmr::{RuntimeMode, SmrConfig, SmrOutcome};
use workloads::tpch::TpchScale;
use workloads::webmap::{AdjRecord, WebmapConfig, WebmapSize};
use workloads::wikipedia::Article;

use crate::trace::Recorder;

pub const NAMES: [&str; 5] = [
    "batch_fit",
    "batch_pressure",
    "hadoop_mr",
    "service_scale",
    "smr_log",
];

/// A 64-bit running hash over simulated statistics.
struct Digest(u64);

fn mix(x: u64) -> u64 {
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x).rotate_left(23);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(simcore::rng::stable_hash_bytes(s.as_bytes()));
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Order-independent checksum of a job's output records: a host-speed
/// change may reorder outputs, a model change may not alter them.
trait Hashed {
    fn hash(&self) -> u64;
}

impl Hashed for OutKv {
    fn hash(&self) -> u64 {
        mix(mix(self.key) ^ self.value)
    }
}

impl Hashed for SortMid {
    fn hash(&self) -> u64 {
        mix(mix(self.key) ^ self.chars as u64)
    }
}

fn outputs_checksum<O: Hashed>(outs: &[O]) -> u64 {
    outs.iter()
        .fold(outs.len() as u64, |acc, o| acc.wrapping_add(o.hash()))
}

/// What one pass simulated, after its outputs were checked.
pub struct PassStats {
    /// Summed virtual `elapsed` of the pass's jobs.
    pub sim_time_ns: u64,
    /// Numerator and denominator of `sim_gc_share`.
    pub gc_ns: u64,
    pub gc_base_ns: u64,
    /// Virtual tail latency of one operation (see README.md).
    pub tail_ns: u64,
    /// Simulated operations attempted / completed (jobs, arrivals, log
    /// entries).
    pub attempted: u64,
    pub completed: u64,
    /// Engine calls the harness made, and how many of them ended in an
    /// outcome the workload is sized never to produce.
    pub jobs: u64,
    pub jobs_failed: u64,
    pub digest: u64,
    /// Exact per-layer counts read from the reports, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Whether the pass ran in the regime the workload exists to hold.
    pub regime: Result<(), String>,
}

impl PassStats {
    fn new() -> Self {
        PassStats {
            sim_time_ns: 0,
            gc_ns: 0,
            gc_base_ns: 0,
            tail_ns: 0,
            attempted: 0,
            completed: 0,
            jobs: 0,
            jobs_failed: 0,
            digest: 0,
            counts: BTreeMap::new(),
            regime: Ok(()),
        }
    }

    fn bump(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    fn peak(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    }
}

/// A set-up workload. Its constructor (`batch_fit`, `smr_log`, ...) is
/// the set-up: it generates datasets and builds configurations, plus a
/// warm-up pass where the workload has no dataset to generate.
pub trait Workload {
    /// One pass's inputs, cloned outside the timed region.
    type Inputs;
    type Output;

    fn stage(&self) -> Self::Inputs;
    /// The timed region: runs the job list once, one job at a time.
    fn pass(&self, inputs: Self::Inputs, rec: &mut Recorder) -> Self::Output;
    /// Verifies every output; an `Err` is fatal to the run.
    fn check(&self, out: Self::Output) -> Result<PassStats, String>;
}

// ---------------------------------------------------------------- batch

type Staged = Box<dyn FnOnce() -> Ran>;

/// One finished engine call, its outputs still unchecked.
pub struct Ran {
    report: JobReport,
    /// Verifies the outputs and returns their checksum, or `None` when
    /// the job did not complete.
    verify: Box<dyn FnOnce() -> Result<Option<u64>, String>>,
}

struct Job {
    label: String,
    /// Layer span recorded around the engine call.
    span: &'static str,
    stage: Box<dyn Fn() -> Staged>,
}

fn job<I: Clone + 'static, O: Hashed + 'static>(
    label: String,
    span: &'static str,
    inputs: &Rc<I>,
    run: impl Fn(I) -> RunSummary<O> + 'static,
    verify: impl Fn(&[O]) -> bool + 'static,
) -> Job {
    let inputs = Rc::clone(inputs);
    let (run, verify) = (Rc::new(run), Rc::new(verify));
    let name = label.clone();
    Job {
        label,
        span,
        stage: Box::new(move || {
            let staged = I::clone(&inputs);
            let (run, verify, name) = (Rc::clone(&run), Rc::clone(&verify), name.clone());
            Box::new(move || {
                let RunSummary { report, result } = run(staged);
                Ran {
                    report,
                    verify: Box::new(move || match result {
                        Ok(outs) if verify(&outs) => Ok(Some(outputs_checksum(&outs))),
                        Ok(_) => Err(format!("{name}: outputs failed verification")),
                        Err(_) => Ok(None),
                    }),
                }
            })
        }),
    }
}

/// A fixed list of Hyracks or Hadoop jobs (`batch_fit`,
/// `batch_pressure`, `hadoop_mr`).
pub struct Batch {
    jobs: Vec<Job>,
    regime: fn(&PassStats) -> Result<(), String>,
}

fn generate<T>(rec: &mut Recorder, f: impl FnOnce() -> T) -> Rc<T> {
    Rc::new(rec.span("workloads.generate", |_| f()))
}

/// Regular and ITask jobs of one Hyracks program over one shared input.
fn hyracks_pair<S>(
    jobs: &mut Vec<Job>,
    what: &str,
    spec: S,
    params: &HyracksParams,
    inputs: &Rc<Vec<Vec<Vec<S::In>>>>,
    verify: impl Fn(&[S::Out], bool) -> bool + Clone + 'static,
) where
    S: apps::AggSpec,
    S::Out: Hashed,
{
    for itask in [false, true] {
        let (spec, params, verify) = (spec.clone(), params.clone(), verify.clone());
        jobs.push(job(
            format!("{what} {}", if itask { "itask" } else { "regular" }),
            if itask {
                "hyracks.run_itask"
            } else {
                "hyracks.run_regular"
            },
            inputs,
            move |inputs| {
                if itask {
                    hyracks_apps::run_itask_spec(&spec, &params, inputs)
                } else {
                    hyracks_apps::run_regular_spec(&spec, &params, inputs)
                }
            },
            move |outs| verify(outs, itask),
        ));
    }
}

fn web_inputs(
    size: WebmapSize,
    params: &HyracksParams,
    rec: &mut Recorder,
) -> Rc<Vec<Vec<Vec<AdjRecord>>>> {
    generate(rec, || hyracks_apps::webmap_inputs(size, params, |r| r))
}

fn interrupts(s: &PassStats) -> f64 {
    s.counts
        .get("itask-core.interrupts")
        .copied()
        .unwrap_or(0.0)
}

/// All five Hyracks programs, regular and ITask, on inputs that fit.
pub fn batch_fit(seed: u64, smoke: bool, rec: &mut Recorder) -> Batch {
    let params = HyracksParams {
        seed,
        ..HyracksParams::default()
    };
    let (wc_sizes, hs_size, tpch) = if smoke {
        (vec![WebmapSize::G3], WebmapSize::G3, TpchScale::X10)
    } else {
        (
            vec![WebmapSize::G10, WebmapSize::G14],
            WebmapSize::G14,
            TpchScale::X50,
        )
    };
    let mut jobs = Vec::new();
    for size in wc_sizes {
        let inputs = web_inputs(size, &params, rec);
        hyracks_pair(
            &mut jobs,
            &format!("wc {}", size.label()),
            wc::WcSpec,
            &params,
            &inputs,
            move |o, _| wc::verify(o, size, seed),
        );
        if size == hs_size {
            let vertices = WebmapConfig::preset(size, seed).vertices;
            hyracks_pair(
                &mut jobs,
                &format!("hs {}", size.label()),
                hs::HsSpec { vertices },
                &params,
                &inputs,
                // Only the regular engine emits in global bucket order.
                move |o, itask| hs::verify(o, size, seed, !itask),
            );
        }
    }
    // Regular `ii` already dies of OME at 10GB, so 3GB is the largest
    // input that keeps this workload off the pressure path.
    let size = WebmapSize::G3;
    let inputs = web_inputs(size, &params, rec);
    hyracks_pair(
        &mut jobs,
        &format!("ii {}", size.label()),
        ii::IiSpec,
        &params,
        &inputs,
        move |o, _| ii::verify(o, size, seed),
    );
    let inputs = generate(rec, || gr::inputs(tpch, &params));
    hyracks_pair(
        &mut jobs,
        &format!("gr {}", tpch.label()),
        gr::GrSpec,
        &params,
        &inputs,
        move |o, _| gr::verify(o, tpch, seed),
    );
    let inputs = generate(rec, || hj::inputs(tpch, &params));
    hyracks_pair(
        &mut jobs,
        &format!("hj {}", tpch.label()),
        hj::HjSpec,
        &params,
        &inputs,
        move |o, _| hj::verify(o, tpch, seed),
    );
    Batch {
        jobs,
        regime: |s| {
            if s.completed < s.attempted || interrupts(s) > 0.0 {
                return Err(format!(
                    "batch_fit left the fit path: {}/{} jobs completed, {} interrupts",
                    s.completed,
                    s.attempted,
                    interrupts(s)
                ));
            }
            Ok(())
        },
    }
}

/// ITask jobs on inputs several times what the 12 MiB heaps hold: `wc`
/// on webmap 44GB spills lazily without a single interrupt, `gr` on
/// TPC-H 600x lives on interrupts and LUGCs.
///
/// `ii` ITask on webmap 44GB, the job first meant for this workload,
/// emits more postings than the input has edges once it is interrupted
/// (`ii::verify` fails at seeds 1, 2, 3, 7 and 42), and `wc` ITask on
/// 72GB dies of OME at seed 4, so neither can be a checked workload.
pub fn batch_pressure(seed: u64, smoke: bool, rec: &mut Recorder) -> Batch {
    let params = HyracksParams {
        seed,
        ..HyracksParams::default()
    };
    let (size, tpch) = if smoke {
        (WebmapSize::G3, TpchScale::X10)
    } else {
        (WebmapSize::G44, TpchScale::X600)
    };
    let web = web_inputs(size, &params, rec);
    let lineitems = generate(rec, || gr::inputs(tpch, &params));
    let (p1, p2) = (params.clone(), params);
    Batch {
        jobs: vec![
            job(
                format!("wc {} itask", size.label()),
                "hyracks.run_itask",
                &web,
                move |inputs| hyracks_apps::run_itask_spec(&wc::WcSpec, &p1, inputs),
                move |o| wc::verify(o, size, seed),
            ),
            job(
                format!("gr {} itask", tpch.label()),
                "hyracks.run_itask",
                &lineitems,
                move |inputs| hyracks_apps::run_itask_spec(&gr::GrSpec, &p2, inputs),
                move |o| gr::verify(o, tpch, seed),
            ),
        ],
        regime: |s| {
            if s.completed < s.attempted || interrupts(s) < 100.0 {
                return Err(format!(
                    "batch_pressure left the interrupt path: {}/{} jobs completed, {} interrupts",
                    s.completed,
                    s.attempted,
                    interrupts(s)
                ));
            }
            Ok(())
        },
    }
}

/// Table 1's IMC problem: the tuned regular job and the ITask job.
/// (`--smoke` runs CRP, whose sample dataset is a tenth the size.)
pub fn hadoop_mr(seed: u64, smoke: bool, rec: &mut Recorder) -> Batch {
    // `imc::verify` and `crp::verify` regenerate 128 KiB splits and so
    // reject the tuned job's correct output over 64 KiB splits; the
    // expected total is summed over the splits each job actually reads.
    fn hadoop_job<S: apps::AggSpec<In = Article, Out = OutKv>>(
        label: &str,
        spec: S,
        cfg: HadoopConfig,
        itask: bool,
        splits: &Rc<Vec<Vec<Article>>>,
    ) -> Job {
        let expected: u64 = splits.iter().flatten().map(|a| a.words.len() as u64).sum();
        job(
            label.into(),
            if itask {
                "hadoop.run_itask"
            } else {
                "hadoop.run_regular"
            },
            splits,
            move |s| {
                if itask {
                    hadoop_apps::itask(&spec, &cfg, s)
                } else {
                    hadoop_apps::regular(&spec, &cfg, s).0
                }
            },
            move |o| o.iter().map(|kv| kv.value).sum::<u64>() == expected,
        )
    }
    let jobs = if smoke {
        let splits = generate(rec, || hadoop_apps::wikipedia_splits(false, seed));
        let cfg = crp::table1_config();
        vec![
            hadoop_job(
                "crp tuned regular",
                crp::CrpSpec { sentence_cap: 512 },
                cfg.clone(),
                false,
                &splits,
            ),
            hadoop_job("crp itask", crp::CrpSpec::default(), cfg, true, &splits),
        ]
    } else {
        let tuned = imc::tuned_config();
        let fine = generate(rec, || {
            hadoop_apps::wikipedia_splits_sized(true, seed, tuned.split_size)
        });
        let coarse = generate(rec, || hadoop_apps::wikipedia_splits(true, seed));
        vec![
            hadoop_job("imc tuned regular", imc::ImcTunedSpec, tuned, false, &fine),
            hadoop_job(
                "imc itask",
                imc::ImcSpec,
                imc::table1_config(),
                true,
                &coarse,
            ),
        ]
    };
    Batch {
        jobs,
        regime: |s| {
            if s.completed < s.attempted {
                return Err(format!(
                    "hadoop_mr: {}/{} jobs completed",
                    s.completed, s.attempted
                ));
            }
            Ok(())
        },
    }
}

impl Workload for Batch {
    type Inputs = Vec<Staged>;
    type Output = Vec<Ran>;

    fn stage(&self) -> Vec<Staged> {
        self.jobs.iter().map(|j| (j.stage)()).collect()
    }

    fn pass(&self, inputs: Vec<Staged>, rec: &mut Recorder) -> Vec<Ran> {
        self.jobs
            .iter()
            .zip(inputs)
            .map(|(j, staged)| rec.span(j.span, |_| staged()))
            .collect()
    }

    fn check(&self, out: Vec<Ran>) -> Result<PassStats, String> {
        let mut s = PassStats::new();
        let mut d = Digest::new();
        for (j, ran) in self.jobs.iter().zip(out) {
            let r = &ran.report;
            s.jobs += 1;
            s.attempted += 1;
            match (ran.verify)()? {
                Some(checksum) => {
                    s.completed += 1;
                    d.u64(checksum);
                }
                None => {
                    s.jobs_failed += 1;
                    eprintln!("warning: {} did not complete: {:?}", j.label, r.outcome);
                }
            }
            let elapsed = r.elapsed.as_nanos();
            s.sim_time_ns += elapsed;
            s.gc_ns += r.critical_path_gc().as_nanos();
            s.gc_base_ns += elapsed;
            s.tail_ns = s.tail_ns.max(elapsed);

            d.str(&j.label);
            d.u64(elapsed);
            for n in &r.nodes {
                for x in [
                    n.elapsed.as_nanos(),
                    n.gc_time.as_nanos(),
                    n.compute_time.as_nanos(),
                    n.io_stall_time.as_nanos(),
                    n.peak_heap.as_u64(),
                    n.minor_gcs,
                    n.full_gcs,
                    n.useless_gcs,
                ] {
                    d.u64(x);
                }
                s.bump("simmem.minor_gcs", n.minor_gcs as f64);
                s.bump("simmem.full_gcs", n.full_gcs as f64);
                s.bump("simmem.useless_gcs", n.useless_gcs as f64);
                s.bump(
                    "simstore.io_stall_vtime_ms",
                    n.io_stall_time.as_nanos() as f64 / 1e6,
                );
            }
            s.peak("simmem.peak_heap_bytes", r.peak_heap().as_u64() as f64);
            for (k, v) in &r.counters {
                d.str(k);
                d.f64(*v);
            }
            for (metric, counter) in [
                ("itask-core.interrupts", "itask.interrupts"),
                (
                    "itask-core.emergency_interrupts",
                    "itask.emergency_interrupts",
                ),
                ("itask-core.grows", "itask.grows"),
                ("itask-core.serializations", "itask.serializations"),
                ("itask-core.deserializations", "itask.deserializations"),
                ("itask-core.lugcs", "monitor.lugcs"),
                ("hadoop.map_attempts", "hadoop.map_attempts"),
                ("hadoop.reduce_attempts", "hadoop.reduce_attempts"),
                ("hadoop.spills", "hadoop.spills"),
            ] {
                s.bump(metric, r.counter(counter));
            }
            let reclaimed: f64 = r
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("reclaim."))
                .map(|(_, v)| v)
                .sum();
            s.bump("itask-core.reclaimed_bytes", reclaimed);
        }
        s.digest = d.finish();
        s.regime = (self.regime)(&s);
        Ok(s)
    }
}

// -------------------------------------------------------- service_scale

/// `simserve` scale mode under three admission/load settings, shedding
/// nearly every arrival: the admission plane is the system under test.
pub struct ServiceScale {
    configs: Vec<ServiceConfig>,
    /// Summed GC virtual time of one pass. `ServiceReport` carries no GC
    /// figure, so it is read from the profiler's deterministic `gc`
    /// counter, armed for the warm-up pass only.
    gc_ns: u64,
}

fn gc_vtime_ns() -> u64 {
    prof::snapshot()
        .iter()
        .find(|s| s.stage == prof::Stage::Gc)
        .map_or(0, |s| s.vtime_ns)
}

pub fn service_scale(seed: u64, smoke: bool, rec: &mut Recorder) -> ServiceScale {
    let (population, mean_gap, horizon) = if smoke {
        (10_000, 40, 40)
    } else {
        (100_000, 2, 400)
    };
    let bursty = LoadShape::Bursty {
        period: SimDuration::from_millis(8),
        burst_len: SimDuration::from_millis(2),
        mult_pm: 4_000,
    };
    let configs = [
        (PolicyKind::WeightedFair, LoadShape::Steady),
        (PolicyKind::WeightedFair, bursty),
        (PolicyKind::MemoryAware, LoadShape::Steady),
    ]
    .into_iter()
    .map(|(policy, shape)| {
        // The shed-heavy regime of `service --scale`: tight deadlines,
        // bounded per-tenant queues, budgeted retries.
        let mut cfg = ServiceConfig::standard(EngineKind::Itask, 0, seed);
        cfg.horizon = SimDuration::from_millis(horizon);
        cfg.admission.policy = policy;
        cfg.admission.max_active = 2;
        cfg.admission.queue_cap = Some(2);
        cfg.retry = RetryPolicy::budgeted();
        let mut model = TenantModel::uniform(population, SimDuration::from_micros(mean_gap));
        model.shape = shape;
        model.deadline = Some(SimDuration::from_millis(4));
        model.weights = WeightRule {
            premium_every: 10,
            premium_weight: 8,
        };
        cfg.scale = Some(ScaleSpec {
            model,
            admission_shards: 4,
        });
        cfg
    })
    .collect();
    let mut w = ServiceScale { configs, gc_ns: 0 };
    // There is no dataset to generate, so set-up is the warm-up pass.
    let armed = prof::is_enabled();
    if !armed {
        prof::enable(false);
    }
    let before = gc_vtime_ns();
    w.pass(w.stage(), rec);
    w.gc_ns = gc_vtime_ns() - before;
    if !armed {
        prof::disable();
    }
    w
}

impl Workload for ServiceScale {
    type Inputs = Vec<ServiceConfig>;
    type Output = Vec<ServiceReport>;

    fn stage(&self) -> Vec<ServiceConfig> {
        self.configs.clone()
    }

    fn pass(&self, inputs: Vec<ServiceConfig>, rec: &mut Recorder) -> Vec<ServiceReport> {
        inputs
            .into_iter()
            .map(|cfg| rec.span("simserve.run", |_| Service::new(cfg).run()))
            .collect()
    }

    fn check(&self, out: Vec<ServiceReport>) -> Result<PassStats, String> {
        let mut s = PassStats::new();
        let mut d = Digest::new();
        let mut latency = QuantileSketch::default();
        let (mut failed, mut shed, mut admitted) = (0, 0, 0);
        for (cfg, r) in self.configs.iter().zip(&out) {
            let submitted = r.total(|t| t.submitted);
            let completed = r.total(|t| t.completed);
            let run_failed = r.total(|t| t.failed);
            let by_reason = [
                ("simserve.shed_deadline", r.total(|t| t.shed_deadline)),
                ("simserve.shed_queue", r.total(|t| t.shed_queue)),
                ("simserve.shed_retry", r.total(|t| t.shed_retry)),
            ];
            // The run ends with every queue empty, so each arrival was
            // completed, failed or shed.
            if submitted != completed + run_failed + r.total_shed() {
                return Err(format!(
                    "service_scale: {submitted} submitted != {completed} completed + {run_failed} failed + {} shed",
                    r.total_shed()
                ));
            }
            s.jobs += 1;
            s.attempted += submitted;
            s.completed += completed;
            failed += run_failed;
            shed += r.total_shed();
            admitted += completed + run_failed + by_reason[2].1;
            s.sim_time_ns += r.elapsed.as_nanos();
            s.gc_base_ns += r.elapsed.as_nanos() * cfg.nodes as u64;
            latency.merge(&r.merged_latency());

            s.bump("simserve.arrivals", submitted as f64);
            s.bump("simserve.rounds", r.rounds as f64);
            s.peak("simserve.peak_queued", r.peak_queued as f64);
            for (name, n) in by_reason {
                s.bump(name, n as f64);
                d.u64(n);
            }
            let qw = r.merged_queue_wait();
            for x in [
                submitted,
                completed,
                run_failed,
                r.total(|t| t.omes),
                r.total(|t| t.retries),
                r.elapsed.as_nanos(),
                r.total_outputs,
                r.rounds,
                r.quarantines,
                r.brownout_rounds,
                r.peak_queued,
                r.tenants.len() as u64,
                qw.count(),
                qw.quantile(0.5),
                qw.quantile(0.99),
            ] {
                d.u64(x);
            }
        }
        s.gc_ns = self.gc_ns;
        s.tail_ns = latency.quantile(0.90);
        d.u64(latency.count());
        d.u64(latency.quantile(0.5));
        d.u64(s.tail_ns);
        d.u64(self.gc_ns);
        s.bump(
            "simserve.useful_share",
            s.completed as f64 / admitted.max(1) as f64,
        );
        s.digest = d.finish();
        if failed > 0 || shed * 100 <= s.attempted * 99 {
            s.regime = Err(format!(
                "service_scale left the shed-heavy regime: {shed} shed and {failed} failed of {} arrivals",
                s.attempted
            ));
        }
        Ok(s)
    }
}

// -------------------------------------------------------------- smr_log

const MODES: [RuntimeMode; 3] = [
    RuntimeMode::Regular,
    RuntimeMode::Itask,
    RuntimeMode::ItaskElect,
];

/// `simsmr::run` on a long log of small entries at 92 % live/heap: all
/// three runtime modes on 3- and 5-node quorums, repeated over a few
/// generated log shapes.
pub struct SmrLog {
    configs: Vec<SmrConfig>,
}

pub fn smr_log(seed: u64, smoke: bool, rec: &mut Recorder) -> SmrLog {
    // `SmrConfig::seed` only salts the payload digests, so the harness
    // also draws each log's length and entry size from the seed: the
    // simulated results then depend on the seed as everywhere else.
    let mut rng = DetRng::new(seed);
    let mut configs = Vec::new();
    for repeat in 0..if smoke { 1 } else { 5 } {
        let entries = if smoke {
            2_000
        } else {
            rng.range_inclusive(99_000, 101_000)
        };
        let payload = ByteSize(rng.range_inclusive(56, 72));
        for nodes in [3, 5] {
            for mode in MODES {
                let mut cfg = SmrConfig::new(nodes, mode);
                cfg.entries = entries;
                cfg.payload = payload;
                cfg.seed = seed.wrapping_add(repeat);
                cfg.shards = 1;
                configs.push(cfg.with_pressure(92));
            }
        }
    }
    let w = SmrLog { configs };
    // There is no dataset to generate, so set-up is a warm-up over the
    // first log shape.
    let first = w.configs[..2 * MODES.len()].to_vec();
    w.pass(first, rec);
    w
}

impl Workload for SmrLog {
    type Inputs = Vec<SmrConfig>;
    type Output = Vec<SmrOutcome>;

    fn stage(&self) -> Vec<SmrConfig> {
        self.configs.clone()
    }

    fn pass(&self, inputs: Vec<SmrConfig>, rec: &mut Recorder) -> Vec<SmrOutcome> {
        inputs
            .iter()
            .map(|cfg| rec.span("simsmr.run", |_| simsmr::run(cfg)))
            .collect()
    }

    fn check(&self, out: Vec<SmrOutcome>) -> Result<PassStats, String> {
        let mut s = PassStats::new();
        let mut d = Digest::new();
        let mut latency = QuantileSketch::default();
        for (group, cfgs) in out
            .chunks(MODES.len())
            .zip(self.configs.chunks(MODES.len()))
        {
            for (o, cfg) in group.iter().zip(cfgs) {
                let what = format!("smr_log {}-node {}", o.nodes, o.mode.label());
                if let Err(e) = &o.result {
                    return Err(format!("{what}: {e}"));
                }
                o.check_safety().map_err(|e| format!("{what}: {e}"))?;
                if o.commits != cfg.entries {
                    return Err(format!(
                        "{what}: {} of {} entries committed",
                        o.commits, cfg.entries
                    ));
                }
                // The same log committed under every runtime mode.
                if o.committed_digest() != group[0].committed_digest() {
                    return Err(format!("{what}: committed log differs from regular's"));
                }
                let regular = o.mode == RuntimeMode::Regular;
                if regular != (o.view_changes > 0) {
                    s.regime = Err(format!(
                        "{what}: {} view changes (regular deposes a leader, ITask never does)",
                        o.view_changes
                    ));
                }
                s.jobs += 1;
                s.attempted += cfg.entries;
                s.completed += o.commits;
                s.sim_time_ns += o.elapsed.as_nanos();
                s.gc_ns += o.gc_stall.as_nanos();
                s.gc_base_ns += o.elapsed.as_nanos() * o.nodes as u64;
                latency.merge(&o.latency);
                s.bump("simsmr.commits", o.commits as f64);
                s.bump("simsmr.view_changes", o.view_changes as f64);
                s.bump("simsmr.deflations", o.deflations as f64);
                s.bump("simsmr.full_gcs", o.full_gcs as f64);
                s.bump("simmem.minor_gcs", o.minor_gcs as f64);
                s.bump("simmem.full_gcs", o.full_gcs as f64);
                s.bump("simmem.useless_gcs", o.lugcs as f64);
                for x in [
                    o.commits,
                    o.view_changes,
                    o.final_view,
                    o.gc_stall.as_nanos(),
                    o.elapsed.as_nanos(),
                    o.full_gcs,
                    o.minor_gcs,
                    o.lugcs,
                    o.deflations,
                    o.deflated.as_u64(),
                    o.peak_heap_pct,
                    o.committed_digest(),
                    o.quantile_ns(0.5),
                    o.quantile_ns(0.999),
                    o.latency.max(),
                ] {
                    d.u64(x);
                }
            }
        }
        s.tail_ns = latency.quantile(0.999);
        d.u64(s.tail_ns);
        s.digest = d.finish();
        Ok(s)
    }
}
