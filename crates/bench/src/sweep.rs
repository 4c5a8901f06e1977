//! Parallel sweep executor and the one driver every harness binary runs
//! on.
//!
//! Every harness binary runs a sweep of independent deterministic
//! simulations. Each simulation is a self-contained single-threaded
//! virtual-time world, so whole runs can fan out across OS threads
//! without perturbing results: workers compute raw run data, and the
//! caller assembles rows in the original spec order, keeping the
//! printed tables byte-identical to a serial run.
//!
//! [`Harness`] parses the common flags, runs each batch on the `--jobs`
//! pool, and owns the instrument sinks — `--trace`, `--metrics`,
//! `--profile` — writing nothing unless one of them was given.

use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simcore::{metrics, prof, tracer};

/// One schedulable unit of a sweep: a label (for progress lines and
/// the dumps' run headers) and a closure that runs one simulation.
///
/// The lifetime lets jobs borrow from the caller's stack (configs,
/// labels): the pool runs under [`std::thread::scope`], so borrows
/// outlive every worker.
pub struct RunSpec<'a, R> {
    /// Human-readable run id, e.g. `"table5 wc 72GB t4 g32KiB"`.
    pub label: String,
    /// The run itself. Builds its own world; returns plain data.
    pub job: Box<dyn FnOnce() -> R + Send + 'a>,
}

/// Builds a [`RunSpec`] from a label and closure.
pub fn spec<'a, R>(
    label: impl Into<String>,
    job: impl FnOnce() -> R + Send + 'a,
) -> RunSpec<'a, R> {
    RunSpec {
        label: label.into(),
        job: Box::new(job),
    }
}

/// The result of one run, in the same position as its spec.
pub struct RunOutcome<R> {
    /// The spec's label.
    pub label: String,
    /// What the job returned.
    pub result: R,
    /// The run's harvested trace events, when the tracer was armed
    /// (merged in deterministic `(time, node, seq)` order).
    pub trace: Option<tracer::RunTrace>,
    /// The run's folded metrics, when `--metrics` armed the registry
    /// (sampled on the virtual-time cadence grid, `(time, node,
    /// metric)` order).
    pub metrics: Option<metrics::RunMetrics>,
}

/// Resolves a `--jobs` value: `0` means "all available cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Extracts every `<name> V` / `<name>=V` from an argument list
/// (mutating it), returning the last value given. Exits with an error
/// message when the flag is the final argument and has no value.
pub fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if i + 1 >= args.len() {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i]
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
        {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    value
}

/// Extracts `--jobs N` / `--jobs=N` from an argument list (mutating
/// it), returning the requested worker count (`0` = auto when the flag
/// is absent). Exits with an error message on a malformed flag value.
pub fn take_jobs_flag(args: &mut Vec<String>) -> usize {
    let Some(value) = take_value(args, "--jobs") else {
        return 0;
    };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("invalid --jobs value: {value}");
            std::process::exit(2);
        }
    }
}

/// Extracts `--profile` from an argument list (mutating it). When the
/// flag is present, resets and arms the in-simulator profiler including
/// its wall-clock sidecar; [`Harness::finish`] then writes the
/// per-stage breakdown to `<dir>/sweeps/<bin>.profile.json` and a
/// human-readable `<dir>/sweeps/<bin>.profile.txt`.
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--profile`.
pub fn take_profile_flag(args: &mut Vec<String>) -> bool {
    let mut on = false;
    args.retain(|a| {
        if a == "--profile" {
            on = true;
            false
        } else {
            true
        }
    });
    if on {
        prof::reset();
        prof::enable(true);
    }
    on
}

/// Extracts `--trace <path>` / `--trace=<path>` from an argument list
/// (mutating it). When present, arms the global [`tracer`]; the
/// executor then buffers each run's events and [`Harness::run`] streams
/// Chrome trace-event JSON to `<path>` plus a compact JSONL twin to
/// `<path>.jsonl` (the format `tracectl` consumes).
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--trace`, and the trace files themselves are
/// byte-identical at any `--jobs`.
pub fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    let path = take_value(args, "--trace");
    if path.is_some() {
        tracer::enable();
    }
    path
}

/// Extracts `--metrics <path>` / `--metrics=<path>` and the optional
/// `--metrics-cadence-ms N` / `--metrics-cadence-ms=N` from an argument
/// list (mutating it). When a path is present, arms the global
/// [`metrics`] registry (and installs the cadence if one was given);
/// the executor then folds each run's metric stream on its worker,
/// [`Harness::run`] streams JSONL samples to `<path>`, and
/// [`Harness::finish`] writes an OpenMetrics-style final snapshot to
/// `<path>.om`.
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--metrics`, and the dumps themselves are
/// byte-identical at any `--jobs`.
pub fn take_metrics_flag(args: &mut Vec<String>) -> Option<String> {
    let path = take_value(args, "--metrics");
    let cadence_ms =
        take_value(args, "--metrics-cadence-ms").map(|value| match value.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("invalid --metrics-cadence-ms value: {value}");
                std::process::exit(2);
            }
        });
    if path.is_some() {
        if let Some(ms) = cadence_ms {
            metrics::set_cadence_ns(ms.saturating_mul(1_000_000));
        }
        metrics::enable();
    }
    path
}

/// The one driver of every bench binary: its flag surface, its sweep
/// executor and its instrument sinks.
///
/// [`harness`] consumes the common flags — `--jobs`, `--profile`,
/// `--trace`, `--metrics`, `--metrics-cadence-ms` — with identical
/// semantics everywhere (arming the profiler, tracer, and metrics
/// registry as a side effect). Binary-specific flags come off with
/// [`flag`](Self::flag) and [`value`](Self::value); whatever remains is
/// positional. [`end_flags`](Self::end_flags) rejects any flag nobody
/// consumed and opens the dump files; each [`run`](Self::run) streams
/// its batch into them; [`finish`](Self::finish) closes them and writes
/// the `--profile` sidecars (`<dir>/sweeps/<bin>.profile.{json,txt}`,
/// `<dir>` = `bench_results`, overridable via `ITASK_BENCH_RESULTS`).
/// A binary run with none of the three instrument flags writes no file.
pub struct Harness {
    /// Arguments left after the common flags were consumed.
    pub args: Vec<String>,
    /// The binary's name, for the usage line and the profile sidecars.
    pub bin: String,
    /// Resolved `--jobs` (0 = auto).
    jobs: usize,
    /// The `--trace` / `--metrics` paths, until `end_flags` opens them.
    trace_path: Option<String>,
    metrics_path: Option<String>,
    trace: Option<TraceStream>,
    metrics: Option<MetricsStream>,
    /// Binary-specific flags asked for so far, as the usage line shows
    /// them.
    known: Vec<String>,
}

/// Parses the process arguments of binary `bin` into a [`Harness`].
pub fn harness(bin: &str) -> Harness {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    parse_harness(bin, &mut args)
}

/// Flag-parsing core of [`harness`], testable on a plain argument list.
pub fn parse_harness(bin: &str, args: &mut Vec<String>) -> Harness {
    let jobs = take_jobs_flag(args);
    take_profile_flag(args);
    let trace_path = take_trace_flag(args);
    let metrics_path = take_metrics_flag(args);
    Harness {
        args: std::mem::take(args),
        bin: bin.to_string(),
        jobs,
        trace_path,
        metrics_path,
        trace: None,
        metrics: None,
        known: Vec::new(),
    }
}

impl Harness {
    /// Consumes a binary-specific boolean flag (e.g. `--quick`),
    /// returning whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        self.known.push(name.to_string());
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Consumes a binary-specific value flag (`--csv DIR` / `--csv=DIR`).
    pub fn value(&mut self, name: &str) -> Option<String> {
        self.known.push(format!("{name} V"));
        take_value(&mut self.args, name)
    }

    /// Whether the positional arguments select `name`; with none given,
    /// every name is selected.
    pub fn wants(&self, name: &str) -> bool {
        self.args.is_empty() || self.args.iter().any(|a| a == name)
    }

    /// The first `--…` argument no [`flag`](Self::flag) or
    /// [`value`](Self::value) call consumed.
    fn leftover_flag(&self) -> Option<&str> {
        let mut rest = self.args.iter().map(String::as_str);
        rest.find(|a| a.starts_with("--"))
    }

    /// One-line usage: the common flags, then this binary's own.
    fn usage(&self) -> String {
        let mut line = format!(
            "usage: {} [--jobs N] [--profile] [--trace PATH] [--metrics PATH] \
             [--metrics-cadence-ms N]",
            self.bin
        );
        for flag in &self.known {
            line.push_str(&format!(" [{flag}]"));
        }
        line.push_str(" [ARGS...]");
        line
    }

    /// Ends flag parsing. Call after every [`flag`](Self::flag) and
    /// [`value`](Self::value) and before printing anything: a `--…`
    /// argument still present is unknown and exits 2 with the usage
    /// line (`--help` prints it and exits 0), so a typo never launches
    /// a sweep. Then opens the `--trace` / `--metrics` files; one that
    /// cannot be created is reported on stderr and disarmed.
    pub fn end_flags(&mut self) {
        if let Some(flag) = self.leftover_flag() {
            if flag == "--help" {
                println!("{}", self.usage());
                std::process::exit(0);
            }
            eprintln!("{}: unknown flag {flag}\n{}", self.bin, self.usage());
            std::process::exit(2);
        }
        self.trace = self.trace_path.take().and_then(|path| {
            TraceStream::open(&path)
                .map_err(|e| eprintln!("[sweep] could not open trace files, disarming: {e}"))
                .ok()
        });
        self.metrics = self.metrics_path.take().and_then(|path| {
            MetricsStream::open(&path)
                .map_err(|e| eprintln!("[sweep] could not open metrics file, disarming: {e}"))
                .ok()
        });
    }

    /// Runs one batch on the `--jobs` pool, streams its traces and
    /// metrics to the armed dumps, and returns the results in spec
    /// order.
    pub fn run<R: Send>(&mut self, specs: Vec<RunSpec<'_, R>>) -> Vec<R> {
        let outcomes = self.run_outcomes(specs);
        outcomes.into_iter().map(|o| o.result).collect()
    }

    /// [`run`](Self::run), returning each run's label and harvested
    /// trace alongside its result (for binaries that read their own
    /// trace stream).
    pub fn run_outcomes<R: Send>(&mut self, specs: Vec<RunSpec<'_, R>>) -> Vec<RunOutcome<R>> {
        let outcomes = run_all(self.jobs, specs);
        for o in &outcomes {
            if let (Some(stream), Some(trace)) = (&mut self.trace, &o.trace) {
                if let Err(e) = stream.append(&o.label, trace) {
                    eprintln!("[sweep] could not stream trace, disarming: {e}");
                    self.trace = None;
                }
            }
            if let (Some(stream), Some(m)) = (&mut self.metrics, &o.metrics) {
                if let Err(e) = stream.append(&o.label, m) {
                    eprintln!("[sweep] could not stream metrics, disarming: {e}");
                    self.metrics = None;
                }
            }
        }
        outcomes
    }

    /// Closes the trace and metrics files and, with `--profile` armed,
    /// writes the profile sidecars.
    ///
    /// IO failures are reported on stderr but never fail the binary:
    /// the tables themselves are the primary artifact.
    pub fn finish(mut self) {
        if let Some(Err(e)) = self.trace.take().map(TraceStream::close) {
            eprintln!("[sweep] could not write trace files: {e}");
        }
        if let Some(Err(e)) = self.metrics.take().map(MetricsStream::close) {
            eprintln!("[sweep] could not write metrics files: {e}");
        }
        if let Err(e) = self.write_profile() {
            eprintln!("[sweep] could not write profile sidecars: {e}");
        }
    }

    /// With `--profile` armed, writes the per-stage breakdown (the
    /// deterministic counters plus the wall sidecar) as JSON and as a
    /// human-readable twin.
    fn write_profile(&self) -> std::io::Result<()> {
        if !prof::is_enabled() {
            return Ok(());
        }
        let snap = prof::snapshot();
        let sweep_dir = results_dir().join("sweeps");
        std::fs::create_dir_all(&sweep_dir)?;
        std::fs::write(
            sweep_dir.join(format!("{}.profile.json", self.bin)),
            prof::to_json(&snap),
        )?;
        std::fs::write(
            sweep_dir.join(format!("{}.profile.txt", self.bin)),
            prof::render_sidecar(&snap),
        )
    }
}

/// Runs every spec on a fixed pool of `jobs` worker threads (`0` =
/// all available cores) and returns outcomes in spec order.
///
/// Workers claim specs through a shared atomic cursor, so a slow run
/// never blocks the queue; one stderr progress line is printed per
/// completed run (`[k/n] <label> <wall_ms>ms`). With `jobs = 1` the
/// specs execute sequentially in order, exactly like the old serial
/// harness.
pub fn run_all<'a, R: Send>(jobs: usize, specs: Vec<RunSpec<'a, R>>) -> Vec<RunOutcome<R>> {
    let n = specs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = effective_jobs(jobs).min(n);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunSpec<'a, R>>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let results: Vec<Mutex<Option<RunOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = slots[i]
                    .lock()
                    .expect("sweep slot poisoned")
                    .take()
                    .expect("sweep spec claimed twice");
                let t0 = Instant::now();
                tracer::begin_run();
                let result = (spec.job)();
                let (trace, run_metrics) = split_harvest(tracer::take_run());
                let wall_ms = t0.elapsed().as_millis() as u64;
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{k}/{n}] {} {wall_ms}ms", spec.label);
                *results[i].lock().expect("sweep result poisoned") = Some(RunOutcome {
                    label: spec.label,
                    result,
                    trace,
                    metrics: run_metrics,
                });
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result poisoned")
                .expect("sweep worker died before storing a result")
        })
        .collect()
}

/// Splits one run's harvested event stream into its trace and metrics
/// views. Metric ops ride the tracer's buffers (that is what gives them
/// deterministic ids and merge order), so with both planes armed the
/// harvest interleaves them; each consumer only sees its own events.
/// The fold runs here — on the sweep worker — so `--jobs` parallelism
/// covers it.
fn split_harvest(
    harvest: Option<tracer::RunTrace>,
) -> (Option<tracer::RunTrace>, Option<metrics::RunMetrics>) {
    let Some(events) = harvest else {
        return (None, None);
    };
    let want_trace = tracer::is_enabled();
    if !metrics::is_enabled() {
        return (want_trace.then_some(events), None);
    }
    let (metric_events, trace_events): (Vec<_>, Vec<_>) = events
        .into_iter()
        .partition(|e| matches!(e.data, tracer::TraceData::Metric { .. }));
    let folded = metrics::fold(&metric_events, metrics::cadence_ns());
    (want_trace.then_some(trace_events), Some(folded))
}

/// Creates `path` (and its parent directories) for buffered writing.
fn create(path: &std::path::Path) -> std::io::Result<BufWriter<std::fs::File>> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(BufWriter::new(std::fs::File::create(path)?))
}

/// Incremental trace writer: each run is rendered, appended to both
/// files, and flushed immediately, so the harness never holds more than
/// one run's events beyond the executor's own buffers — a sweep of
/// hundreds of traced runs streams to disk instead of accumulating.
/// The Chrome array's comma state (`first`) lives here so the streamed
/// bytes are identical to a whole-buffer render.
struct TraceStream {
    chrome: BufWriter<std::fs::File>,
    jsonl: BufWriter<std::fs::File>,
    run: usize,
    first: bool,
}

impl TraceStream {
    fn open(path: &str) -> std::io::Result<Self> {
        let mut chrome = create(path.as_ref())?;
        chrome.write_all(tracer::CHROME_HEADER.as_bytes())?;
        let jsonl = create(format!("{path}.jsonl").as_ref())?;
        Ok(TraceStream {
            chrome,
            jsonl,
            run: 0,
            first: true,
        })
    }

    fn append(&mut self, label: &str, events: &tracer::RunTrace) -> std::io::Result<()> {
        self.chrome
            .write_all(tracer::chrome_run(self.run, label, events, &mut self.first).as_bytes())?;
        self.jsonl
            .write_all(tracer::jsonl_run(self.run, label, events).as_bytes())?;
        self.run += 1;
        self.chrome.flush()?;
        self.jsonl.flush()
    }

    /// Writes the Chrome footer. A traced sweep that harvested zero
    /// runs still produces valid empty files.
    fn close(mut self) -> std::io::Result<()> {
        self.chrome.write_all(tracer::CHROME_FOOTER.as_bytes())?;
        self.chrome.flush()?;
        self.jsonl.flush()
    }
}

/// Incremental metrics writer: sampled points stream to `<path>` as
/// JSONL per run; the folded runs are retained (they are tiny next to
/// the raw event stream) so [`MetricsStream::close`] can render the
/// OpenMetrics-style final snapshot to `<path>.om`.
struct MetricsStream {
    jsonl: BufWriter<std::fs::File>,
    om_path: String,
    runs: Vec<(String, metrics::RunMetrics)>,
}

impl MetricsStream {
    fn open(path: &str) -> std::io::Result<Self> {
        Ok(MetricsStream {
            jsonl: create(path.as_ref())?,
            om_path: format!("{path}.om"),
            runs: Vec::new(),
        })
    }

    fn append(&mut self, label: &str, m: &metrics::RunMetrics) -> std::io::Result<()> {
        self.jsonl
            .write_all(metrics::jsonl_run(self.runs.len(), label, m).as_bytes())?;
        self.runs.push((label.to_string(), m.clone()));
        self.jsonl.flush()
    }

    /// Writes the `.om` snapshot. A metered sweep that harvested zero
    /// runs still produces valid empty files.
    fn close(mut self) -> std::io::Result<()> {
        self.jsonl.flush()?;
        std::fs::write(&self.om_path, metrics::openmetrics(&self.runs))
    }
}

fn results_dir() -> std::path::PathBuf {
    std::env::var_os("ITASK_BENCH_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench_results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer and metrics arming flags are process-global and the
    /// test harness runs tests on parallel threads: every test that
    /// flips one holds this lock for its whole body. The guarded value
    /// is `()`, so a lock poisoned by a failed test is still good.
    static ARMING: Mutex<()> = Mutex::new(());

    fn arming_lock() -> std::sync::MutexGuard<'static, ()> {
        ARMING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A harness for `bin` with the given instrument flags, parsed and
    /// with its dump files open.
    fn armed(bin: &str, flags: &[String]) -> Harness {
        let mut h = parse_harness(bin, &mut flags.to_vec());
        h.end_flags();
        h
    }

    #[test]
    fn outcomes_keep_spec_order() {
        let specs: Vec<RunSpec<'_, usize>> = (0..16usize)
            .map(|i| {
                spec(format!("job{i}"), move || {
                    // Vary the work so completion order scrambles.
                    let mut acc = i;
                    for _ in 0..((16 - i) * 1000) {
                        acc = acc.wrapping_mul(31).wrapping_add(7);
                    }
                    std::hint::black_box(acc);
                    i
                })
            })
            .collect();
        let out = run_all(4, specs);
        let got: Vec<usize> = out.iter().map(|o| o.result).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(out[3].label, "job3");
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            (0..8)
                .map(|i: u64| spec(format!("r{i}"), move || i * i))
                .collect::<Vec<_>>()
        };
        let a: Vec<u64> = run_all(1, mk()).into_iter().map(|o| o.result).collect();
        let b = armed("agree", &["--jobs=4".into()]).run(mk());
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_flag_parsing() {
        let mut args = vec!["--quick".to_string(), "--jobs".into(), "3".into()];
        assert_eq!(take_jobs_flag(&mut args), 3);
        assert_eq!(args, vec!["--quick".to_string()]);
        let mut args = vec!["--jobs=7".to_string(), "wc".into()];
        assert_eq!(take_jobs_flag(&mut args), 7);
        assert_eq!(args, vec!["wc".to_string()]);
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_jobs_flag(&mut args), 0);
    }

    #[test]
    fn trace_flag_parsing() {
        // Note: a hit arms the global tracer; disarm before leaving so
        // other tests in this binary see the default-off state.
        let _arming = arming_lock();
        let mut args = vec!["--quick".to_string(), "--trace".into(), "out.json".into()];
        assert_eq!(take_trace_flag(&mut args).as_deref(), Some("out.json"));
        assert_eq!(args, vec!["--quick".to_string()]);
        let mut args = vec!["--trace=t/a.json".to_string(), "wc".into()];
        assert_eq!(take_trace_flag(&mut args).as_deref(), Some("t/a.json"));
        assert_eq!(args, vec!["wc".to_string()]);
        tracer::disable();
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_trace_flag(&mut args), None);
        assert!(!tracer::is_enabled());
    }

    #[test]
    fn traced_sweep_writes_chrome_and_jsonl() {
        use simcore::{SimDuration, SimTime};
        let _arming = arming_lock();
        let dir = std::env::temp_dir().join(format!("itask_sweeptrace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let mut h = armed(
            "tracebin",
            &["--trace".into(), trace_path.to_string_lossy().into_owned()],
        );
        let mk = |i: u64| {
            spec(format!("run{i}"), move || {
                tracer::emit(
                    None,
                    None,
                    SimTime::from_nanos(i),
                    SimDuration::ZERO,
                    tracer::TraceData::NodeCrash,
                );
            })
        };
        // Run one batch at a time: the stream must flush per run, so
        // the JSONL grows on disk before finish() is ever called.
        let mut out = h.run_outcomes(vec![mk(0)]);
        let partial = std::fs::read_to_string(dir.join("trace.json.jsonl")).unwrap();
        assert_eq!(partial.lines().count(), 2, "first batch on disk already");
        out.extend(h.run_outcomes(vec![mk(1)]));
        h.finish();
        tracer::disable();
        assert!(out
            .iter()
            .all(|o| o.trace.as_ref().is_some_and(|t| !t.is_empty())));
        let chrome = std::fs::read_to_string(&trace_path).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"run1\""));
        // The streamed bytes must equal a whole-buffer render.
        let whole: Vec<(String, tracer::RunTrace)> = out
            .iter()
            .map(|o| (o.label.clone(), o.trace.clone().unwrap()))
            .collect();
        assert_eq!(chrome, tracer::chrome_json(&whole));
        let jsonl = std::fs::read_to_string(dir.join("trace.json.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 4); // 2 headers + 2 events
        assert_eq!(jsonl, tracer::jsonl(&whole));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flag_parsing() {
        // Note: a hit arms the global registry; disarm before leaving
        // so other tests in this binary see the default-off state.
        let _arming = arming_lock();
        let mut args = vec![
            "--quick".to_string(),
            "--metrics".into(),
            "m.jsonl".into(),
            "--metrics-cadence-ms=5".into(),
        ];
        assert_eq!(take_metrics_flag(&mut args).as_deref(), Some("m.jsonl"));
        assert_eq!(args, vec!["--quick".to_string()]);
        assert!(metrics::is_enabled());
        assert_eq!(metrics::cadence_ns(), 5_000_000);
        metrics::disable();
        metrics::set_cadence_ns(metrics::DEFAULT_CADENCE_NS);
        let mut args = vec!["--metrics=x/y.jsonl".to_string(), "wc".into()];
        assert_eq!(take_metrics_flag(&mut args).as_deref(), Some("x/y.jsonl"));
        assert_eq!(args, vec!["wc".to_string()]);
        metrics::disable();
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_metrics_flag(&mut args), None);
        assert!(!metrics::is_enabled());
    }

    #[test]
    fn harness_takes_common_and_custom_flags() {
        let mut args = vec!["--jobs=2".to_string(), "--quick".into(), "wc".into()];
        let mut h = parse_harness("fig9", &mut args);
        assert_eq!(h.jobs, 2);
        assert_eq!(h.trace_path, None);
        assert_eq!(h.metrics_path, None);
        assert!(h.flag("--quick"));
        assert!(!h.flag("--quick"), "flag consumed on first take");
        assert_eq!(h.args, vec!["wc".to_string()]);
        assert_eq!(h.leftover_flag(), None);
        assert!(h.wants("wc") && !h.wants("hs"));
        h.args.clear();
        assert!(h.wants("hs"), "no positional argument selects everything");
    }

    #[test]
    fn harness_reports_flags_nobody_consumed() {
        // A stale `--shards 2` must not decay into a positional `2`.
        for stale in [&["--shards", "2"][..], &["--no-such-flag"], &["--help"]] {
            let mut args = vec!["--quick".to_string(), "wc".into(), "--csv=out".into()];
            args.extend(stale.iter().map(|a| a.to_string()));
            let mut h = parse_harness("fig9", &mut args);
            assert!(h.flag("--quick"));
            assert_eq!(h.value("--csv").as_deref(), Some("out"));
            assert_eq!(h.leftover_flag(), Some(stale[0]));
        }
        let mut h = parse_harness("fig9", &mut vec!["wc".to_string()]);
        assert!(!h.flag("--quick") && h.value("--csv").is_none());
        assert_eq!(h.leftover_flag(), None);
        let usage = h.usage();
        assert!(usage.starts_with("usage: fig9 [--jobs N]"), "{usage}");
        assert!(usage.ends_with("[--quick] [--csv V] [ARGS...]"), "{usage}");
    }

    #[test]
    fn trace_and_metrics_compose_in_one_sweep() {
        use simcore::{NodeId, SimDuration, SimTime};
        // Arms both global planes: serialize against the other arming
        // tests in this binary.
        let _arming = arming_lock();
        let dir = std::env::temp_dir().join(format!("itask_sweepboth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.jsonl");
        let mut h = armed(
            "bothbin",
            &[
                "--trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--metrics".into(),
                metrics_path.to_string_lossy().into_owned(),
            ],
        );
        let cadence = metrics::cadence_ns();
        let specs: Vec<RunSpec<'_, ()>> = (0..2u64)
            .map(|i| {
                spec(format!("run{i}"), move || {
                    tracer::emit(
                        None,
                        None,
                        SimTime::from_nanos(i),
                        SimDuration::ZERO,
                        tracer::TraceData::NodeCrash,
                    );
                    metrics::counter_add(
                        Some(NodeId(0)),
                        metrics::Metric::MemGcCount,
                        SimTime::from_nanos(cadence / 2),
                        3,
                    );
                })
            })
            .collect();
        let out = h.run_outcomes(specs);
        h.finish();
        tracer::disable();
        metrics::disable();
        for o in &out {
            let trace = o.trace.as_ref().expect("trace harvested");
            assert_eq!(trace.len(), 1, "metric ops must not leak into the trace");
            assert!(matches!(trace[0].data, tracer::TraceData::NodeCrash));
            let m = o.metrics.as_ref().expect("metrics folded");
            assert_eq!(m.points.len(), 1);
            assert_eq!(m.points[0].at, cadence);
            assert_eq!(m.points[0].value, 3);
        }
        let chrome = std::fs::read_to_string(&trace_path).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        let mj = std::fs::read_to_string(&metrics_path).unwrap();
        assert_eq!(mj.lines().count(), 4); // 2 run headers + 2 points
        assert!(mj.contains("\"metric\":\"mem.gc_count\""));
        let om = std::fs::read_to_string(dir.join("metrics.jsonl.om")).unwrap();
        assert!(om.contains("# TYPE mem_gc_count counter"));
        assert!(om.ends_with("# EOF\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<RunOutcome<()>> = run_all(4, Vec::new());
        assert!(out.is_empty());
    }
}
