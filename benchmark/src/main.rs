//! The benchmark of record. See README.md for what is measured and why,
//! and ../BENCHMARK.json for the contract a driver runs it under.
//!
//! ```text
//! itask-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! itask-benchmark run <name> [--traced] [--seed N] [--seconds S] [--smoke]
//! itask-benchmark all [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! Two clocks are kept apart by name: *host* time is what the simulator
//! costs its user, *sim* time is what the modelled cluster would take.

mod layers;
mod report;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use simcore::{metrics, prof, tracer};

use layers::median;
use report::{Metric, Report};
use trace::Recorder;
use workloads::{PassStats, Workload};

/// Set-up is repeated so that `setup_s` can be a median: at least three
/// times, and up to nine while it has taken less than a second in all.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=9;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

/// Everything one run measured, before it is folded into metrics.
struct Measured {
    setup_s: Vec<f64>,
    /// Host seconds of each timed pass, by how the pass ran.
    disarmed_s: Vec<f64>,
    armed_s: Vec<f64>,
    stats: PassStats,
    /// Profiler snapshots: the last set-up, then each armed pass.
    setup_prof: Vec<prof::StageSnapshot>,
    pass_prof: Vec<Vec<prof::StageSnapshot>>,
    armed_passes: Vec<u32>,
}

fn measure<W: Workload>(
    make: fn(u64, bool, &mut Recorder) -> W,
    o: &Opts,
    rec: &mut Recorder,
) -> Result<Measured, String> {
    let (mut setup_s, mut disarmed_s, mut armed_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_prof, mut pass_prof, mut armed_passes) = (Vec::new(), Vec::new(), Vec::new());

    let mut made: Option<(W, W::Inputs)> = None;
    loop {
        // One dataset at a time, so that set-up repeats do not set the
        // peak RSS.
        drop(made.take());
        let last = o.smoke
            || setup_s.len() + 1 == *SETUP_REPS.end()
            || (setup_s.len() + 1 >= *SETUP_REPS.start() && setup_s.iter().sum::<f64>() > 1.0);
        // A traced run profiles its last set-up.
        arm(o.traced && last, rec);
        let t = Instant::now();
        let w = make(o.seed, o.smoke, rec);
        let inputs = w.stage();
        setup_s.push(t.elapsed().as_secs_f64());
        made = Some((w, inputs));
        if last {
            break;
        }
    }
    if o.traced {
        setup_prof = disarm(rec);
    }
    let (w, inputs) = made.expect("set-up ran at least once");
    let mut staged = Some(inputs);
    if o.traced && !o.smoke {
        // A process's first pass runs cold; with few passes it would
        // skew the ratio of armed to disarmed passes.
        drop(w.pass(staged.take().expect("staged by set-up"), rec));
    }

    let start = Instant::now();
    let mut first: Option<PassStats> = None;
    for pass in 1.. {
        // A traced run alternates disarmed and armed passes, so that the
        // tracing overhead is a ratio of two medians from one process.
        let armed = o.traced && pass % 2 == 0;
        let inputs = staged.take().unwrap_or_else(|| w.stage());
        rec.set_pass(pass);
        arm(armed, rec);
        let t = Instant::now();
        let out = rec.span("bench.pass", |rec| w.pass(inputs, rec));
        let wall = t.elapsed().as_secs_f64();
        if armed {
            // Checks regenerate datasets; keep them out of the profile.
            prof::disable();
        }
        let stats = rec.span("bench.check", |_| w.check(out))?;
        if armed {
            pass_prof.push(disarm(rec));
            armed_passes.push(pass);
            armed_s.push(wall);
        } else {
            disarmed_s.push(wall);
        }
        match &first {
            Some(f) if f.digest != stats.digest => {
                return Err(format!(
                    "pass {pass} simulated something else than pass 1 (sim_digest {:016x} != {:016x})",
                    stats.digest, f.digest
                ));
            }
            Some(_) => {}
            None => first = Some(stats),
        }
        // Stop at the pass boundary nearest to the time asked for.
        let elapsed = start.elapsed().as_secs_f64();
        let paired = !o.traced || pass % 2 == 0;
        if paired && (o.smoke || elapsed + elapsed / pass as f64 / 2.0 > o.seconds) {
            break;
        }
    }
    Ok(Measured {
        setup_s,
        disarmed_s,
        armed_s,
        stats: first.expect("at least one pass ran"),
        setup_prof,
        pass_prof,
        armed_passes,
    })
}

fn arm(armed: bool, rec: &mut Recorder) {
    rec.set_enabled(armed);
    if armed {
        prof::reset();
        prof::enable(true);
    }
}

fn disarm(rec: &mut Recorder) -> Vec<prof::StageSnapshot> {
    rec.set_enabled(false);
    prof::disable();
    prof::snapshot()
}

/// One `batch_fit` pass with each instrument armed, over one disarmed.
fn instrument_ratios(o: &Opts) -> Vec<(&'static str, f64)> {
    let mut rec = Recorder::new();
    let w = workloads::batch_fit(o.seed, o.smoke, &mut rec);
    let mut pass = |before: fn(), after: fn()| {
        let inputs = w.stage();
        before();
        let t = Instant::now();
        let out = w.pass(inputs, &mut rec);
        let wall = t.elapsed().as_secs_f64();
        after();
        drop(out);
        wall
    };
    let disarmed = pass(|| {}, || {});
    let profiled = pass(|| prof::enable(true), prof::disable);
    let traced = pass(
        || {
            tracer::enable();
            tracer::begin_run();
        },
        || {
            drop(tracer::take_run());
            tracer::disable();
        },
    );
    let metered = pass(
        || {
            metrics::enable();
            tracer::begin_run();
        },
        || {
            let events = tracer::take_run().unwrap_or_default();
            std::hint::black_box(metrics::fold(&events, metrics::cadence_ns()));
            metrics::disable();
        },
    );
    vec![
        ("simcore.prof_armed_ratio", profiled / disarmed),
        ("simcore.tracer_armed_ratio", traced / disarmed),
        ("simcore.metrics_armed_ratio", metered / disarmed),
    ]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let s = &m.stats;
    vec![
        Metric::timing("wall_s", "s", &m.disarmed_s),
        Metric::timing("setup_s", "s", &m.setup_s),
        Metric::value("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::value("sim_time_s", "sim_s", s.sim_time_ns as f64 / 1e9),
        Metric::value(
            "sim_gc_share",
            "ratio",
            s.gc_ns as f64 / s.gc_base_ns as f64,
        ),
        Metric::value("sim_tail_ms", "sim_ms", s.tail_ns as f64 / 1e6),
        Metric::value(
            "sim_completed_share",
            "ratio",
            s.completed as f64 / s.attempted as f64,
        ),
    ]
}

/// Spans around the engine calls, and the metric each one's total becomes.
const ENGINE_SPANS: [(&str, &str); 6] = [
    ("hyracks.run_regular", "hyracks.run_regular_s"),
    ("hyracks.run_itask", "hyracks.run_itask_s"),
    ("hadoop.run_regular", "hadoop.run_regular_s"),
    ("hadoop.run_itask", "hadoop.run_itask_s"),
    ("simserve.run", "simserve.run_s"),
    ("simsmr.run", "simsmr.run_s"),
];

fn per_layer(m: &Measured, rec: &Recorder, o: &Opts) -> Vec<Metric> {
    // Spans the harness recorded around its calls into each layer.
    let per_pass = |span: &str| -> Vec<f64> {
        m.armed_passes
            .iter()
            .map(|&p| rec.total_s(span, p))
            .collect()
    };
    let mut out = vec![Metric::value(
        "workloads.generate_s",
        "s",
        rec.total_s("workloads.generate", 0),
    )];
    let mut engine_s = vec![0.0; m.armed_passes.len()];
    for (span, metric) in ENGINE_SPANS {
        let spans = per_pass(span);
        for (e, s) in engine_s.iter_mut().zip(&spans) {
            *e += s;
        }
        out.push(Metric::value(metric, "s", median(spans)));
    }
    out.push(Metric::value(
        "bench.check_s",
        "s",
        median(per_pass("bench.check")),
    ));
    out.push(Metric::value(
        "bench.trace_overhead_ratio",
        "ratio",
        median(m.armed_s.clone()) / median(m.disarmed_s.clone()),
    ));

    // The profiler's stage table, armed in the traced passes only.
    use prof::Stage::*;
    type Field = fn(&prof::StageSnapshot) -> f64;
    let stage = |snap: &[prof::StageSnapshot], st: prof::Stage, field: Field| {
        field(
            snap.iter()
                .find(|s| s.stage == st)
                .expect("every stage is in every snapshot"),
        )
    };
    let wall_s: Field = |s| s.wall_ns as f64 / 1e9;
    let units: Field = |s| s.units as f64;
    out.push(Metric::value(
        "workloads.generate_wall_s",
        "s",
        stage(&m.setup_prof, Generate, wall_s),
    ));
    let stages: [(&str, &str, prof::Stage, Field); 11] = [
        ("hyracks.map_wall_s", "s", Map, wall_s),
        ("hyracks.map_tuples", "count", Map, units),
        ("hyracks.emit_flush_wall_s", "s", EmitFlush, wall_s),
        ("hyracks.frame_chunk_wall_s", "s", FrameChunk, wall_s),
        ("hyracks.frame_chunk_tuples", "count", FrameChunk, units),
        ("simnet.shuffle_wall_s", "s", Shuffle, wall_s),
        ("simnet.shuffle_bytes", "bytes", Shuffle, units),
        ("apps.agg_drain_wall_s", "s", AggDrain, wall_s),
        ("apps.agg_drain_tuples", "count", AggDrain, units),
        ("simmem.gc_events", "count", Gc, |s| s.events as f64),
        ("simmem.gc_vtime_ms", "sim_ms", Gc, |s| {
            s.vtime_ns as f64 / 1e6
        }),
    ];
    for (name, unit, st, field) in stages {
        let per_pass = m.pass_prof.iter().map(|snap| stage(snap, st, field));
        out.push(Metric::value(name, unit, median(per_pass.collect())));
    }
    // Share of the engine spans that no profiler stage covers.
    let unattributed: Vec<f64> = m
        .pass_prof
        .iter()
        .zip(&engine_s)
        .map(|(snap, engine)| {
            let staged: f64 = [Map, EmitFlush, FrameChunk, Shuffle, AggDrain]
                .into_iter()
                .map(|st| stage(snap, st, wall_s))
                .sum();
            1.0 - staged / engine
        })
        .collect();
    out.push(Metric::value(
        "hyracks.unattributed_share",
        "ratio",
        median(unattributed),
    ));

    // Exact counts read from the reports.
    for (name, unit) in report::COUNTS {
        let v = m.stats.counts.get(name).copied().unwrap_or(0.0);
        out.push(Metric::value(name, unit, v));
    }

    // Each layer driven in isolation, and each instrument armed.
    for (name, ns) in layers::drives(o.seed) {
        out.push(Metric::value(name, "ns", ns));
    }
    for (name, ratio) in instrument_ratios(o) {
        out.push(Metric::value(name, "ratio", ratio));
    }
    out
}

fn run_one(o: &Opts) -> Result<(), String> {
    // One thread: the host has two cores and the second is the OS's.
    simcluster::set_shards(1);
    let host = report::Host::probe();
    let mut rec = Recorder::new();
    let m = match o.workload.as_str() {
        "batch_fit" => measure(workloads::batch_fit, o, &mut rec),
        "batch_pressure" => measure(workloads::batch_pressure, o, &mut rec),
        "hadoop_mr" => measure(workloads::hadoop_mr, o, &mut rec),
        "service_scale" => measure(workloads::service_scale, o, &mut rec),
        "smr_log" => measure(workloads::smr_log, o, &mut rec),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            workloads::NAMES
        )),
    }?;
    let metrics = if o.traced {
        per_layer(&m, &rec, o)
    } else {
        end_to_end(&m)
    };
    if !o.smoke {
        if let Err(e) = &m.stats.regime {
            eprintln!("warning: regime guard: {e}");
        }
    }
    let passes = m.disarmed_s.len() + m.armed_s.len();
    let report = Report {
        workload: &o.workload,
        seed: o.seed,
        traced: o.traced,
        smoke: o.smoke,
        passes,
        attempted: m.stats.jobs * passes as u64,
        failed: m.stats.jobs_failed * passes as u64,
        sim_digest: m.stats.digest,
        regime_ok: o.smoke || m.stats.regime.is_ok(),
        metrics,
        host,
    };
    report.validate()?;
    if o.traced {
        rec.check_nesting()?;
        report::write_out(&format!("{}.trace.json", o.workload), &rec.to_json())?;
    }
    report.emit()
}

/// Runs every workload, untraced then traced, each in its own child
/// process and one at a time.
fn run_all(o: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()]);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start the {name} run: {e}"))?;
            if !status.success() {
                return Err(format!("the {name} run (--trace {trace}) failed: {status}"));
            }
        }
    }
    Ok(())
}

fn parse(args: &[String]) -> Result<(bool, Opts), String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut all = false;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "all" => all = true,
            "run" => o.workload = value(&mut it, "run")?,
            "--workload" => o.workload = value(&mut it, a)?,
            "--seed" => {
                o.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                o.traced = match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if all != o.workload.is_empty() {
        return Err(
            "give either `all` or one workload (`run <name>` / `--workload <name>`)".into(),
        );
    }
    Ok((all, o))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(all, o)| if all { run_all(&o) } else { run_one(&o) });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("itask-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
