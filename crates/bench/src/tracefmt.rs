//! Trace-file parsing and analysis for `tracectl`.
//!
//! Consumes the compact JSONL twin written next to every `--trace`
//! Chrome dump (one run-header line per run, one line per event) and
//! computes the derived reports the paper reads off its timelines: GC
//! time share per node, the signal → victim → interrupt → re-activation
//! latency chain (via the deterministic [`QuantileSketch`]), per-tenant
//! queue/run breakdowns, and an A/B diff between two traces.
//!
//! The JSON reader, the line-by-line loader skeleton and the
//! label-matched run pairing are [`crate::dumpfmt`]'s, shared with
//! `metricsctl`'s reader.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simcore::sketch::{fmt_ms, QuantileSketch};

use crate::dumpfmt::{diff_runs, for_each_record, header_label, node_name, Json};

/// One event from a JSONL trace line.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Per-run unique event id (`stream << 32 | seq`; stream 0 = driver,
    /// stream n+1 = node n).
    pub id: u64,
    /// Event kind (the stable `TraceData::kind()` names).
    pub kind: String,
    /// Node id, `-1` for cluster-wide events.
    pub node: i64,
    /// Allocation scope / service job id, if any.
    pub scope: Option<u64>,
    /// Virtual start time, nanoseconds.
    pub ts: u64,
    /// Virtual duration, nanoseconds (0 = instantaneous).
    pub dur: u64,
    /// The typed payload fields, as parsed JSON.
    pub payload: Json,
}

impl TraceEvent {
    /// A u64 payload field (0 when absent — trace payloads are total).
    pub fn num(&self, key: &str) -> u64 {
        self.payload.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// A bool payload field (false when absent).
    pub fn flag(&self, key: &str) -> bool {
        self.payload
            .get(key)
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }

    /// The causal link (0 = none).
    pub fn cause(&self) -> u64 {
        self.num("cause")
    }
}

/// One run's worth of a trace file.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// The sweep label of the run.
    pub label: String,
    /// Events in merged `(time, node, seq)` order.
    pub events: Vec<TraceEvent>,
}

/// Loads a JSONL trace (the `<path>.jsonl` twin of a Chrome dump).
pub fn load_jsonl(text: &str) -> Result<Vec<TraceRun>, String> {
    for_each_record(
        text,
        |header| {
            Ok(TraceRun {
                label: header_label(header),
                events: Vec::new(),
            })
        },
        |run, kind, v| {
            run.events.push(TraceEvent {
                id: v.need_u64("id")?,
                kind,
                node: v.get("node").and_then(Json::as_i64).unwrap_or(-1),
                scope: v.get("scope").and_then(Json::as_u64),
                ts: v.need_u64("ts")?,
                dur: v.get("dur").and_then(Json::as_u64).unwrap_or(0),
                payload: v,
            });
            Ok(())
        },
    )
}

fn sketch_line(s: &QuantileSketch) -> String {
    s.snapshot().mid_line()
}

/// Like [`sketch_line`] but with the tail quantiles an SLO lens needs:
/// commit latencies are judged at p99/p99.9, not p90.
fn tail_line(s: &QuantileSketch) -> String {
    s.snapshot().tail_line()
}

/// Aggregates a run computes once and both `report` and `diff` read.
#[derive(Default)]
struct RunSummary {
    counts: BTreeMap<String, u64>,
    /// Per node: (GC time, minor count, full count, useless count,
    /// last event timestamp).
    gc: BTreeMap<i64, (u64, u64, u64, u64, u64)>,
    victim_latency: Option<QuantileSketch>,
    interrupt_latency: Option<QuantileSketch>,
    reactivate_latency: Option<QuantileSketch>,
    /// Per tenant: submitted, admitted, completed, failed, oom,
    /// wait sketch, latency sketch.
    tenants: BTreeMap<u64, TenantSummary>,
    /// Shed jobs by reason label.
    sheds: BTreeMap<String, u64>,
    /// Circuit-breaker transitions by state label.
    breaker: BTreeMap<String, u64>,
    /// Brownout windows: count, total rounds, total virtual time.
    brownout_windows: u64,
    brownout_rounds: u64,
    brownout_ns: u64,
    /// SMR propose→commit latencies (`latency_ns` on `commit` events).
    commit_latency: Option<QuantileSketch>,
    /// SMR view changes observed.
    view_changes: u64,
}

#[derive(Default)]
struct TenantSummary {
    submitted: u64,
    admitted: u64,
    completed: u64,
    failed: u64,
    oom: u64,
    wait: Option<QuantileSketch>,
    latency: Option<QuantileSketch>,
}

fn sk() -> QuantileSketch {
    QuantileSketch::new(QuantileSketch::DEFAULT_K)
}

fn summarize(run: &TraceRun) -> RunSummary {
    let mut s = RunSummary::default();
    // id → ts for causal latency lookups.
    let ts_of: BTreeMap<u64, u64> = run.events.iter().map(|e| (e.id, e.ts)).collect();
    let lat = |slot: &mut Option<QuantileSketch>, e: &TraceEvent| {
        let cause = e.cause();
        if cause != 0 {
            if let Some(&start) = ts_of.get(&cause) {
                slot.get_or_insert_with(sk)
                    .insert(e.ts.saturating_sub(start));
            }
        }
    };
    for e in &run.events {
        *s.counts.entry(e.kind.clone()).or_insert(0) += 1;
        let g = s.gc.entry(e.node).or_default();
        g.4 = g.4.max(e.ts + e.dur);
        match e.kind.as_str() {
            "gc" => {
                g.0 += e.dur;
                if e.flag("full") {
                    g.2 += 1;
                } else {
                    g.1 += 1;
                }
                if e.flag("useless") {
                    g.3 += 1;
                }
            }
            "victim" => lat(&mut s.victim_latency, e),
            "interrupt" => lat(&mut s.interrupt_latency, e),
            "activate" => lat(&mut s.reactivate_latency, e),
            "submit" => {
                s.tenants.entry(e.num("tenant")).or_default().submitted += 1;
            }
            "admit" => {
                let t = s.tenants.entry(e.num("tenant")).or_default();
                t.admitted += 1;
                t.wait.get_or_insert_with(sk).insert(e.num("wait_ns"));
            }
            "complete" => {
                let t = s.tenants.entry(e.num("tenant")).or_default();
                t.completed += 1;
                t.latency.get_or_insert_with(sk).insert(e.num("latency_ns"));
            }
            "fail" => {
                let t = s.tenants.entry(e.num("tenant")).or_default();
                t.failed += 1;
                if e.flag("oom") {
                    t.oom += 1;
                }
            }
            "shed" => {
                let reason = e
                    .payload
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                *s.sheds.entry(reason).or_insert(0) += 1;
            }
            "breaker" => {
                let state = e
                    .payload
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                *s.breaker.entry(state).or_insert(0) += 1;
            }
            "brownout" => {
                s.brownout_windows += 1;
                s.brownout_rounds += e.num("rounds");
                s.brownout_ns += e.dur;
            }
            "commit" => {
                s.commit_latency
                    .get_or_insert_with(sk)
                    .insert(e.num("latency_ns"));
            }
            "view_change" => s.view_changes += 1,
            _ => {}
        }
    }
    s
}

/// Renders the Figure-3-style sequencing: every complete
/// signal → victim-mark → interrupt → re-activation chain in the run,
/// as one arrow line each (capped at `max_chains`, earliest first).
fn render_chains(run: &TraceRun, out: &mut String, max_chains: usize) {
    let by_id: BTreeMap<u64, &TraceEvent> = run.events.iter().map(|e| (e.id, e)).collect();
    let mut chains = 0usize;
    let mut truncated = 0usize;
    for e in &run.events {
        if e.kind != "activate" || e.cause() == 0 {
            continue;
        }
        let Some(interrupt) = by_id.get(&e.cause()) else {
            continue;
        };
        let mark = by_id.get(&interrupt.cause());
        let signal = mark.and_then(|m| by_id.get(&m.cause()));
        if chains >= max_chains {
            truncated += 1;
            continue;
        }
        chains += 1;
        let mut line = String::new();
        if let (Some(sig), Some(m)) = (signal, mark) {
            let _ = write!(
                line,
                "signal@{} -> mark@{} -> ",
                fmt_ms(sig.ts),
                fmt_ms(m.ts)
            );
        } else if interrupt.flag("emergency") {
            let _ = write!(line, "allocation failure -> ");
        }
        let _ = writeln!(
            out,
            "    {line}interrupt@{} ({}, task{}) -> reactivate@{} ({}, {} partition{})",
            fmt_ms(interrupt.ts),
            node_name(interrupt.node),
            interrupt.num("task"),
            fmt_ms(e.ts),
            node_name(e.node),
            e.num("partitions"),
            if e.num("partitions") == 1 { "" } else { "s" },
        );
    }
    if chains == 0 {
        let _ = writeln!(out, "    (no interrupt -> re-activation chains)");
    } else if truncated > 0 {
        let _ = writeln!(out, "    ... and {truncated} more chains");
    }
}

/// Renders the full `tracectl report` for a loaded trace.
pub fn report(runs: &[TraceRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} run(s)", runs.len());
    // Commit latencies merged across every SMR run in the trace (one
    // sketch per run, folded with the deterministic sketch merge).
    let mut all_commits: Option<QuantileSketch> = None;
    let mut smr_runs = 0usize;
    let mut all_view_changes = 0u64;
    for (i, run) in runs.iter().enumerate() {
        let s = summarize(run);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "== run {i}: {} ({} events)",
            run.label,
            run.events.len()
        );
        let counts: Vec<String> = s.counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
        let _ = writeln!(out, "  events: {}", counts.join(" "));
        let gc_nodes: Vec<&i64> =
            s.gc.iter()
                .filter(|(n, g)| **n >= 0 && (g.1 + g.2 > 0 || g.0 > 0))
                .map(|(n, _)| n)
                .collect();
        if !gc_nodes.is_empty() {
            let _ = writeln!(out, "  gc time share per node:");
            for n in gc_nodes {
                let (gc_ns, minor, full, useless, end) = s.gc[n];
                // Comparison ("ctime") sub-runs restart a node's clock,
                // so summed pause time can exceed the final timestamp;
                // a percentage would be meaningless there.
                let share = if end > 0 && gc_ns <= end {
                    format!(
                        "({:5.1}% of {})",
                        100.0 * gc_ns as f64 / end as f64,
                        fmt_ms(end)
                    )
                } else {
                    "(restarted timeline)".to_string()
                };
                let _ = writeln!(
                    out,
                    "    {:<8} {:>10} {share} minor={minor} full={full} useless={useless}",
                    node_name(*n),
                    fmt_ms(gc_ns),
                );
            }
        }
        let _ = writeln!(out, "  interrupt chain latencies:");
        let _ = writeln!(
            out,
            "    signal->mark        {}",
            sketch_line(s.victim_latency.as_ref().unwrap_or(&sk()))
        );
        let _ = writeln!(
            out,
            "    mark->interrupt     {}",
            sketch_line(s.interrupt_latency.as_ref().unwrap_or(&sk()))
        );
        let _ = writeln!(
            out,
            "    interrupt->activate {}",
            sketch_line(s.reactivate_latency.as_ref().unwrap_or(&sk()))
        );
        let _ = writeln!(out, "  interrupt/re-activation sequencing:");
        render_chains(run, &mut out, 8);
        if !s.tenants.is_empty() {
            let _ = writeln!(out, "  tenants:");
            // Scale traces carry 10^5+ tenants: cap the rollup at the
            // first 16 ids so the summary stays a summary. Pre-existing
            // traces (<= a handful of tenants) render unchanged.
            const MAX_TENANT_ROWS: usize = 16;
            for (t, ts) in s.tenants.iter().take(MAX_TENANT_ROWS) {
                let _ = writeln!(
                    out,
                    "    t{t}: submitted={} admitted={} completed={} failed={} oom={} wait[{}] latency[{}]",
                    ts.submitted,
                    ts.admitted,
                    ts.completed,
                    ts.failed,
                    ts.oom,
                    sketch_line(ts.wait.as_ref().unwrap_or(&sk())),
                    sketch_line(ts.latency.as_ref().unwrap_or(&sk())),
                );
            }
            if s.tenants.len() > MAX_TENANT_ROWS {
                let _ = writeln!(
                    out,
                    "    ... and {} more tenants",
                    s.tenants.len() - MAX_TENANT_ROWS
                );
            }
        }
        // Only runs that actually armed the overload controls emit
        // these kinds, so pre-existing traces render unchanged.
        if !s.sheds.is_empty() || !s.breaker.is_empty() || s.brownout_windows > 0 {
            let _ = writeln!(out, "  overload:");
            if !s.sheds.is_empty() {
                let parts: Vec<String> = s.sheds.iter().map(|(k, n)| format!("{k}={n}")).collect();
                let _ = writeln!(out, "    sheds: {}", parts.join(" "));
            }
            if !s.breaker.is_empty() {
                let parts: Vec<String> =
                    s.breaker.iter().map(|(k, n)| format!("{k}={n}")).collect();
                let _ = writeln!(out, "    breaker: {}", parts.join(" "));
            }
            if s.brownout_windows > 0 {
                let _ = writeln!(
                    out,
                    "    brownout: windows={} rounds={} time={}",
                    s.brownout_windows,
                    s.brownout_rounds,
                    fmt_ms(s.brownout_ns)
                );
            }
        }
        // Only SMR runs emit commit/view_change kinds, so pre-existing
        // traces render unchanged.
        if s.commit_latency.is_some() || s.view_changes > 0 {
            let _ = writeln!(out, "  smr:");
            let _ = writeln!(
                out,
                "    commit latency (propose->commit): {}",
                tail_line(s.commit_latency.as_ref().unwrap_or(&sk()))
            );
            let _ = writeln!(out, "    view changes: {}", s.view_changes);
            smr_runs += 1;
            all_view_changes += s.view_changes;
            if let Some(c) = &s.commit_latency {
                all_commits.get_or_insert_with(sk).merge(c);
            }
        }
    }
    if smr_runs > 1 {
        if let Some(all) = &all_commits {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "smr commit latency across {smr_runs} runs: {}",
                tail_line(all)
            );
            let _ = writeln!(
                out,
                "smr view changes across {smr_runs} runs: {all_view_changes}"
            );
        }
    }
    out
}

/// Renders one matched run pair of the diff: kind counts, total GC time
/// and chain medians, side by side with deltas.
fn diff_pair(out: &mut String, ra: &TraceRun, rb: &TraceRun) {
    let sa = summarize(ra);
    let sb = summarize(rb);
    let mut kinds: Vec<&String> = sa.counts.keys().chain(sb.counts.keys()).collect();
    kinds.sort();
    kinds.dedup();
    for k in kinds {
        let ca = sa.counts.get(k).copied().unwrap_or(0);
        let cb = sb.counts.get(k).copied().unwrap_or(0);
        if ca == cb {
            let _ = writeln!(out, "  {k:<10} {ca:>8}  (unchanged)");
        } else {
            let _ = writeln!(
                out,
                "  {k:<10} {ca:>8} -> {cb:<8} ({:+})",
                cb as i64 - ca as i64
            );
        }
    }
    let gc_a: u64 = sa.gc.values().map(|g| g.0).sum();
    let gc_b: u64 = sb.gc.values().map(|g| g.0).sum();
    let _ = writeln!(
        out,
        "  total gc   {} -> {} ({:+.3}ms)",
        fmt_ms(gc_a),
        fmt_ms(gc_b),
        (gc_b as f64 - gc_a as f64) / 1e6
    );
    for (name, qa, qb) in [
        (
            "mark->interrupt",
            &sa.interrupt_latency,
            &sb.interrupt_latency,
        ),
        (
            "interrupt->activate",
            &sa.reactivate_latency,
            &sb.reactivate_latency,
        ),
    ] {
        let p50 = |s: &Option<QuantileSketch>| {
            s.as_ref()
                .filter(|s| !s.is_empty())
                .map(|s| s.quantile(0.5))
        };
        match (p50(qa), p50(qb)) {
            (Some(ma), Some(mb)) => {
                let _ = writeln!(
                    out,
                    "  p50 {name:<19} {} -> {} ({:+.3}ms)",
                    fmt_ms(ma),
                    fmt_ms(mb),
                    (mb as f64 - ma as f64) / 1e6
                );
            }
            (None, None) => {}
            (ma, mb) => {
                let show = |m: Option<u64>| m.map_or("absent".to_string(), fmt_ms);
                let _ = writeln!(out, "  p50 {name:<19} {} -> {}", show(ma), show(mb));
            }
        }
    }
}

/// Renders the two-trace A/B diff, runs matched by *label*
/// ([`diff_runs`]).
pub fn diff(a: &[TraceRun], b: &[TraceRun]) -> String {
    diff_runs(a, b, "traces", |r| &r.label, diff_pair)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jsonl() -> String {
        concat!(
            "{\"run\":0,\"kind\":\"run\",\"label\":\"wc t4\",\"events\":5}\n",
            "{\"run\":0,\"id\":1,\"kind\":\"signal\",\"node\":0,\"scope\":null,\"ts\":100,\"dur\":0,\"reduce\":true}\n",
            "{\"run\":0,\"id\":2,\"kind\":\"victim\",\"node\":0,\"scope\":null,\"ts\":150,\"dur\":0,\"task\":1,\"cause\":1}\n",
            "{\"run\":0,\"id\":3,\"kind\":\"interrupt\",\"node\":0,\"scope\":null,\"ts\":400,\"dur\":0,\"task\":1,\"emergency\":false,\"cause\":2}\n",
            "{\"run\":0,\"id\":4,\"kind\":\"gc\",\"node\":0,\"scope\":null,\"ts\":500,\"dur\":250,\"full\":true,\"reclaimed\":10,\"free_after\":90,\"useless\":false}\n",
            "{\"run\":0,\"id\":5,\"kind\":\"activate\",\"node\":1,\"scope\":null,\"ts\":900,\"dur\":0,\"task\":1,\"partitions\":2,\"cause\":3}\n",
        )
        .to_string()
    }

    #[test]
    fn loader_parses_runs_and_events() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "wc t4");
        assert_eq!(runs[0].events.len(), 5);
        assert_eq!(runs[0].events[3].dur, 250);
        assert_eq!(runs[0].events[4].cause(), 3);
    }

    #[test]
    fn loader_rejects_orphan_events() {
        let text = "{\"run\":0,\"id\":1,\"kind\":\"gc\",\"ts\":1,\"dur\":1}\n";
        assert!(load_jsonl(text).is_err());
    }

    #[test]
    fn report_shows_chains_gc_and_latencies() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        let r = report(&runs);
        assert!(r.contains("signal@0.000ms -> mark@0.000ms"), "{r}");
        assert!(r.contains("interrupt@0.000ms (node0, task1)"), "{r}");
        assert!(
            r.contains("reactivate@0.001ms (node1, 2 partitions)"),
            "{r}"
        );
        assert!(r.contains("full=1"), "{r}");
        assert!(r.contains("mark->interrupt     n=1"), "{r}");
    }

    #[test]
    fn diff_reports_count_deltas() {
        let a = load_jsonl(&sample_jsonl()).unwrap();
        let mut b = a.clone();
        b[0].events.pop(); // drop the re-activation
        let d = diff(&a, &b);
        assert!(d.contains("activate          1 -> 0        (-1)"), "{d}");
        assert!(d.contains("gc                1  (unchanged)"), "{d}");
    }

    #[test]
    fn diff_matches_runs_by_label_not_position() {
        let base = load_jsonl(&sample_jsonl()).unwrap();
        let mut ra = base[0].clone();
        ra.label = "alpha".to_string();
        let mut rb = base[0].clone();
        rb.label = "beta".to_string();
        rb.events.pop(); // make beta distinguishable in counts
                         // A lists [alpha, beta]; B lists them reversed, plus a run only B has.
        let mut rc = base[0].clone();
        rc.label = "gamma".to_string();
        let a = vec![ra.clone(), rb.clone()];
        let b = vec![rb, ra, rc];
        let d = diff(&a, &b);
        assert!(
            d.contains("warning: run labels differ between traces"),
            "{d}"
        );
        // alpha matched against alpha (B run 1), so every kind is unchanged.
        assert!(d.contains("== run 0: A=alpha | B=alpha (B run 1)"), "{d}");
        assert!(d.contains("activate          1  (unchanged)"), "{d}");
        assert!(d.contains("== run 1: A=beta | B=beta (B run 0)"), "{d}");
        assert!(d.contains("== run 2: only in B (gamma)"), "{d}");
    }

    #[test]
    fn diff_with_aligned_labels_has_no_warning() {
        let a = load_jsonl(&sample_jsonl()).unwrap();
        let d = diff(&a, &a);
        assert!(!d.contains("warning:"), "{d}");
        assert!(d.contains("== run 0: A=wc t4 | B=wc t4\n"), "{d}");
    }

    #[test]
    fn report_rolls_up_overload_events() {
        let text = concat!(
            "{\"run\":0,\"kind\":\"run\",\"label\":\"ctl\",\"events\":4}\n",
            "{\"run\":0,\"id\":1,\"kind\":\"shed\",\"node\":-1,\"scope\":null,\"ts\":1,\"dur\":0,\"tenant\":0,\"reason\":\"deadline\"}\n",
            "{\"run\":0,\"id\":2,\"kind\":\"shed\",\"node\":-1,\"scope\":null,\"ts\":2,\"dur\":0,\"tenant\":1,\"reason\":\"deadline\"}\n",
            "{\"run\":0,\"id\":3,\"kind\":\"breaker\",\"node\":0,\"scope\":null,\"ts\":3,\"dur\":0,\"state\":\"open\",\"cause\":0}\n",
            "{\"run\":0,\"id\":4,\"kind\":\"brownout\",\"node\":-1,\"scope\":null,\"ts\":4,\"dur\":2000000,\"rounds\":3,\"cause\":0}\n",
        );
        let runs = load_jsonl(text).unwrap();
        let r = report(&runs);
        assert!(r.contains("overload:"), "{r}");
        assert!(r.contains("sheds: deadline=2"), "{r}");
        assert!(r.contains("breaker: open=1"), "{r}");
        assert!(
            r.contains("brownout: windows=1 rounds=3 time=2.000ms"),
            "{r}"
        );
    }

    #[test]
    fn report_without_overload_events_omits_section() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        let r = report(&runs);
        assert!(!r.contains("overload:"), "{r}");
    }

    fn smr_run_jsonl(run: usize, lat_a: u64, lat_b: u64) -> String {
        format!(
            concat!(
                "{{\"run\":{r},\"kind\":\"run\",\"label\":\"smr{r}\",\"events\":5}}\n",
                "{{\"run\":{r},\"id\":1,\"kind\":\"propose\",\"node\":0,\"scope\":null,\"ts\":0,\"dur\":0,\"index\":1,\"view\":0}}\n",
                "{{\"run\":{r},\"id\":2,\"kind\":\"replicate\",\"node\":0,\"scope\":null,\"ts\":0,\"dur\":100,\"index\":1,\"to\":1,\"cause\":1}}\n",
                "{{\"run\":{r},\"id\":3,\"kind\":\"commit\",\"node\":0,\"scope\":null,\"ts\":{a},\"dur\":0,\"index\":1,\"latency_ns\":{a},\"cause\":1}}\n",
                "{{\"run\":{r},\"id\":4,\"kind\":\"commit\",\"node\":0,\"scope\":null,\"ts\":{b},\"dur\":0,\"index\":2,\"latency_ns\":{b},\"cause\":1}}\n",
                "{{\"run\":{r},\"id\":5,\"kind\":\"view_change\",\"node\":1,\"scope\":null,\"ts\":{b},\"dur\":50,\"view\":1,\"leader\":1,\"cause\":0}}\n",
            ),
            r = run,
            a = lat_a,
            b = lat_b,
        )
    }

    #[test]
    fn report_rolls_up_smr_commit_tail() {
        let runs = load_jsonl(&smr_run_jsonl(0, 2_000_000, 40_000_000)).unwrap();
        let r = report(&runs);
        assert!(r.contains("smr:"), "{r}");
        assert!(r.contains("commit latency (propose->commit): n=2"), "{r}");
        assert!(r.contains("p99.9=40.000ms"), "{r}");
        assert!(r.contains("view changes: 1"), "{r}");
        // A single SMR run gets no cross-run aggregate line.
        assert!(!r.contains("across"), "{r}");
    }

    #[test]
    fn report_merges_smr_sketches_across_runs() {
        let text = format!(
            "{}{}",
            smr_run_jsonl(0, 2_000_000, 3_000_000),
            smr_run_jsonl(1, 4_000_000, 50_000_000)
        );
        let runs = load_jsonl(&text).unwrap();
        let r = report(&runs);
        assert!(r.contains("smr commit latency across 2 runs: n=4"), "{r}");
        assert!(r.contains("max=50.000ms"), "{r}");
        assert!(r.contains("smr view changes across 2 runs: 2"), "{r}");
    }

    #[test]
    fn report_without_smr_events_omits_section() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        let r = report(&runs);
        assert!(!r.contains("smr:"), "{r}");
    }

    #[test]
    fn tenant_rollup_counts_lifecycle() {
        let text = concat!(
            "{\"run\":0,\"kind\":\"run\",\"label\":\"svc\",\"events\":3}\n",
            "{\"run\":0,\"id\":1,\"kind\":\"submit\",\"node\":-1,\"scope\":null,\"ts\":1,\"dur\":0,\"tenant\":2}\n",
            "{\"run\":0,\"id\":2,\"kind\":\"admit\",\"node\":-1,\"scope\":1,\"ts\":5,\"dur\":0,\"tenant\":2,\"wait_ns\":4}\n",
            "{\"run\":0,\"id\":3,\"kind\":\"complete\",\"node\":-1,\"scope\":1,\"ts\":9,\"dur\":0,\"tenant\":2,\"latency_ns\":8}\n",
        );
        let runs = load_jsonl(text).unwrap();
        let r = report(&runs);
        assert!(
            r.contains("t2: submitted=1 admitted=1 completed=1 failed=0 oom=0"),
            "{r}"
        );
    }
}
