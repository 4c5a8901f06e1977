//! Metrics-dump parsing and analysis for `metricsctl`.
//!
//! Consumes the JSONL written by `--metrics` (one run-header line per
//! run, one line per sampled gridpoint, one line per final histogram
//! summary) and computes the rollups an operator reads off a metrics
//! plane: per-metric finals and peaks, memory-pressure windows
//! (live/heap ratio crossing a threshold), the pressure-vs-interrupt
//! phase alignment the paper's Figure 3 narrative asserts, and a
//! label-matched A/B diff between two dumps.
//!
//! The JSON reader, loader skeleton and run pairing are
//! [`crate::dumpfmt`]'s, shared with `tracectl`'s reader; histogram
//! lines reconstruct a [`SketchSnapshot`] so the rendering is exactly
//! the shared `mid_line`/`tail_line` every other latency consumer uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simcore::metrics::{Metric, MetricKind};
use simcore::sketch::{fmt_ms, SketchSnapshot};

use crate::dumpfmt::{diff_runs, for_each_record, header_label, node_name, Json};

/// One sampled gridpoint of a dump.
#[derive(Clone, Debug)]
pub struct MetricsPoint {
    /// Gridpoint timestamp, virtual nanoseconds.
    pub ts: u64,
    /// Node id, `-1` for cluster-wide metrics.
    pub node: i64,
    /// Dotted metric name.
    pub metric: String,
    /// Sampled value (counters cumulative, gauges instantaneous).
    pub value: i64,
}

/// One final histogram summary of a dump.
#[derive(Clone, Debug)]
pub struct MetricsHist {
    /// Node id, `-1` for cluster-wide metrics.
    pub node: i64,
    /// Dotted metric name.
    pub metric: String,
    /// Sum of all observed samples.
    pub sum: u64,
    /// Count, extrema and reporting quantiles.
    pub snap: SketchSnapshot,
}

/// One run's worth of a metrics dump.
#[derive(Clone, Debug)]
pub struct MetricsRun {
    /// The sweep label of the run.
    pub label: String,
    /// Sampling cadence, virtual nanoseconds.
    pub cadence_ns: u64,
    /// Points in `(ts, node, metric)` order, as dumped.
    pub points: Vec<MetricsPoint>,
    /// Histogram summaries in `(node, metric)` order, as dumped.
    pub hists: Vec<MetricsHist>,
}

/// Loads a `--metrics` JSONL dump.
pub fn load_jsonl(text: &str) -> Result<Vec<MetricsRun>, String> {
    for_each_record(
        text,
        |header| {
            Ok(MetricsRun {
                label: header_label(header),
                cadence_ns: header.need_u64("cadence_ns")?,
                points: Vec::new(),
                hists: Vec::new(),
            })
        },
        |run, kind, v| {
            let node = v.get("node").and_then(Json::as_i64).unwrap_or(-1);
            match kind.as_str() {
                "point" => run.points.push(MetricsPoint {
                    ts: v.need_u64("ts")?,
                    node,
                    metric: v.need_str("metric")?.to_string(),
                    value: v
                        .get("value")
                        .and_then(Json::as_i64)
                        .ok_or("missing value")?,
                }),
                "hist" => run.hists.push(MetricsHist {
                    node,
                    metric: v.need_str("metric")?.to_string(),
                    sum: v.need_u64("sum")?,
                    snap: SketchSnapshot {
                        count: v.need_u64("count")?,
                        min: v.need_u64("min")?,
                        max: v.need_u64("max")?,
                        p50: v.need_u64("p50")?,
                        p90: v.need_u64("p90")?,
                        p99: v.need_u64("p99")?,
                        p999: v.need_u64("p999")?,
                    },
                }),
                other => return Err(format!("unknown kind {other:?}")),
            }
            Ok(())
        },
    )
}

/// Per-series (node-keyed) rollup of one metric within a run.
#[derive(Default)]
struct SeriesRollup {
    finals: BTreeMap<i64, i64>,
    peak: i64,
    points: usize,
}

/// A contiguous stretch where a node's live/heap ratio sat at or above
/// the pressure threshold: `[start, end]` gridpoint timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PressureWindow {
    /// Node the window belongs to.
    pub node: i64,
    /// First gridpoint at or above the threshold.
    pub start: u64,
    /// Last gridpoint still at or above (== `start` for one-cell
    /// windows; the next sample below the threshold closes the window).
    pub end: u64,
}

/// Detects per-node memory-pressure windows: walking the sampled points
/// in dump order, a window opens at the first gridpoint where
/// `mem.live_bytes / mem.heap_bytes >= threshold` and closes at the
/// last gridpoint before the ratio drops back below. Nodes that never
/// report both gauges contribute no windows.
pub fn pressure_windows(run: &MetricsRun, threshold: f64) -> Vec<PressureWindow> {
    #[derive(Default)]
    struct NodeState {
        live: Option<i64>,
        heap: Option<i64>,
        open: Option<u64>,
        last_hot: u64,
    }
    let mut states: BTreeMap<i64, NodeState> = BTreeMap::new();
    let mut windows = Vec::new();
    for p in &run.points {
        let slot = match p.metric.as_str() {
            "mem.live_bytes" => 0,
            "mem.heap_bytes" => 1,
            _ => continue,
        };
        let st = states.entry(p.node).or_default();
        if slot == 0 {
            st.live = Some(p.value);
        } else {
            st.heap = Some(p.value);
        }
        let (Some(live), Some(heap)) = (st.live, st.heap) else {
            continue;
        };
        let hot = heap > 0 && live as f64 / heap as f64 >= threshold;
        match (hot, st.open) {
            (true, None) => {
                st.open = Some(p.ts);
                st.last_hot = p.ts;
            }
            (true, Some(_)) => st.last_hot = p.ts,
            (false, Some(start)) => {
                windows.push(PressureWindow {
                    node: p.node,
                    start,
                    end: st.last_hot,
                });
                st.open = None;
            }
            (false, None) => {}
        }
    }
    for (node, st) in states {
        if let Some(start) = st.open {
            windows.push(PressureWindow {
                node,
                start,
                end: st.last_hot,
            });
        }
    }
    windows.sort_by_key(|w| (w.node, w.start));
    windows
}

/// The gridpoints at which a node's `irs.interrupts` counter increased.
fn interrupt_increases(run: &MetricsRun) -> Vec<(i64, u64)> {
    let mut last: BTreeMap<i64, i64> = BTreeMap::new();
    let mut increases = Vec::new();
    for p in &run.points {
        if p.metric != "irs.interrupts" {
            continue;
        }
        let prev = last.insert(p.node, p.value).unwrap_or(0);
        if p.value > prev {
            increases.push((p.node, p.ts));
        }
    }
    increases
}

/// Fraction of interrupt increases that land inside a pressure window
/// on the same node: `(inside, total)`. The paper's claim is that
/// interrupts fire *because of* pressure, so a healthy run aligns
/// nearly all of them.
pub fn phase_alignment(run: &MetricsRun, windows: &[PressureWindow]) -> (usize, usize) {
    let increases = interrupt_increases(run);
    let inside = increases
        .iter()
        .filter(|(node, ts)| {
            windows
                .iter()
                .any(|w| w.node == *node && w.start <= *ts && *ts <= w.end)
        })
        .count();
    (inside, increases.len())
}

fn kind_of(name: &str) -> MetricKind {
    Metric::from_name(name).map_or(MetricKind::Gauge, Metric::kind)
}

fn kind_tag(name: &str) -> &'static str {
    match kind_of(name) {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

/// Renders the full `metricsctl report` for a loaded dump.
pub fn report(runs: &[MetricsRun], threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "metrics: {} run(s)", runs.len());
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "== run {i}: {} (cadence {}, {} points, {} hists)",
            run.label,
            fmt_ms(run.cadence_ns),
            run.points.len(),
            run.hists.len(),
        );
        // Rollup: per metric, the final value per series and the peak
        // sampled value, in name order.
        let mut rollups: BTreeMap<&str, SeriesRollup> = BTreeMap::new();
        for p in &run.points {
            let r = rollups.entry(&p.metric).or_default();
            r.finals.insert(p.node, p.value);
            r.peak = r.peak.max(p.value);
            r.points += 1;
        }
        if !rollups.is_empty() {
            let _ = writeln!(out, "  rollup:");
            for (name, r) in &rollups {
                let total: i64 = r.finals.values().sum();
                let _ = writeln!(
                    out,
                    "    {name:<24} {:<9} series={:<3} points={:<5} final={total} peak={}",
                    kind_tag(name),
                    r.finals.len(),
                    r.points,
                    r.peak,
                );
            }
        }
        if !run.hists.is_empty() {
            let _ = writeln!(out, "  distributions:");
            for h in &run.hists {
                let _ = writeln!(
                    out,
                    "    {:<24} {:<8} {}",
                    h.metric,
                    node_name(h.node),
                    h.snap.tail_line(),
                );
            }
        }
        // Pressure windows and the pressure/interrupt phase alignment.
        let windows = pressure_windows(run, threshold);
        if !windows.is_empty() {
            let _ = writeln!(out, "  pressure (live/heap >= {threshold:.2}):");
            let mut by_node: BTreeMap<i64, Vec<&PressureWindow>> = BTreeMap::new();
            for w in &windows {
                by_node.entry(w.node).or_default().push(w);
            }
            for (node, ws) in by_node {
                let total: u64 = ws.iter().map(|w| w.end - w.start).sum();
                let _ = writeln!(
                    out,
                    "    {:<8} {} window(s), total {}, first @{}",
                    node_name(node),
                    ws.len(),
                    fmt_ms(total),
                    fmt_ms(ws[0].start),
                );
            }
        }
        let (inside, total) = phase_alignment(run, &windows);
        if let Some(pct) = (inside * 100).checked_div(total) {
            let _ = writeln!(
                out,
                "  phase alignment: {inside}/{total} interrupt increases inside pressure windows ({pct}%)",
            );
        }
    }
    out
}

/// Renders one matched run pair of the diff: per-series final values
/// and histogram tails side by side, changed series only (unchanged
/// ones are counted, not listed).
fn diff_pair(out: &mut String, ra: &MetricsRun, rb: &MetricsRun) {
    let finals = |r: &MetricsRun| {
        let mut m: BTreeMap<(String, i64), i64> = BTreeMap::new();
        for p in &r.points {
            m.insert((p.metric.clone(), p.node), p.value);
        }
        m
    };
    let fa = finals(ra);
    let fb = finals(rb);
    let mut keys: Vec<&(String, i64)> = fa.keys().chain(fb.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut unchanged = 0usize;
    for key in keys {
        let (name, node) = key;
        let series = format!("{name}[{}]", node_name(*node));
        match (fa.get(key), fb.get(key)) {
            (Some(a), Some(b)) if a == b => unchanged += 1,
            (Some(a), Some(b)) => {
                let _ = writeln!(out, "  {series:<34} {a:>12} -> {b:<12} ({:+})", b - a);
            }
            (Some(a), None) => {
                let _ = writeln!(out, "  {series:<34} {a:>12} -> absent");
            }
            (None, Some(b)) => {
                let _ = writeln!(out, "  {series:<34} {:>12} -> {b}", "absent");
            }
            (None, None) => unreachable!(),
        }
    }
    if unchanged > 0 {
        let _ = writeln!(out, "  ({unchanged} series unchanged)");
    }
    fn hists(r: &MetricsRun) -> BTreeMap<(String, i64), &MetricsHist> {
        let mut m = BTreeMap::new();
        for h in &r.hists {
            m.insert((h.metric.clone(), h.node), h);
        }
        m
    }
    let ha = hists(ra);
    let hb = hists(rb);
    let mut keys: Vec<&(String, i64)> = ha.keys().chain(hb.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let (name, node) = key;
        let series = format!("{name}[{}]", node_name(*node));
        let show = |h: Option<&&MetricsHist>| match h {
            Some(h) => format!("n={} p99={}", h.snap.count, fmt_ms(h.snap.p99)),
            None => "absent".to_string(),
        };
        let (a, b) = (ha.get(key), hb.get(key));
        let same = match (a, b) {
            (Some(x), Some(y)) => x.snap == y.snap && x.sum == y.sum,
            _ => false,
        };
        if same {
            let _ = writeln!(out, "  {series:<34} {} (unchanged)", show(a));
        } else {
            let _ = writeln!(out, "  {series:<34} {} -> {}", show(a), show(b));
        }
    }
}

/// Renders the two-dump A/B diff, runs matched by *label*
/// ([`diff_runs`]) — the same pairing rule as `tracectl diff`.
pub fn diff(a: &[MetricsRun], b: &[MetricsRun]) -> String {
    diff_runs(a, b, "dumps", |r| &r.label, diff_pair)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jsonl() -> String {
        concat!(
            "{\"run\":0,\"kind\":\"run\",\"label\":\"wc t4\",\"cadence_ns\":10000000,\"points\":8,\"hists\":1}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":10000000,\"node\":0,\"metric\":\"mem.heap_bytes\",\"value\":1000}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":10000000,\"node\":0,\"metric\":\"mem.live_bytes\",\"value\":500}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":20000000,\"node\":0,\"metric\":\"mem.live_bytes\",\"value\":950}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":20000000,\"node\":0,\"metric\":\"irs.interrupts\",\"value\":1}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":30000000,\"node\":0,\"metric\":\"mem.live_bytes\",\"value\":920}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":40000000,\"node\":0,\"metric\":\"mem.live_bytes\",\"value\":300}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":50000000,\"node\":0,\"metric\":\"irs.interrupts\",\"value\":2}\n",
            "{\"run\":0,\"kind\":\"point\",\"ts\":50000000,\"node\":1,\"metric\":\"mem.gc_count\",\"value\":3}\n",
            "{\"run\":0,\"kind\":\"hist\",\"node\":-1,\"metric\":\"serve.latency_ns\",\"count\":2,\"sum\":30000000,\"min\":10000000,\"max\":20000000,\"p50\":10000000,\"p90\":20000000,\"p99\":20000000,\"p999\":20000000}\n",
        )
        .to_string()
    }

    #[test]
    fn loader_parses_runs_points_and_hists() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "wc t4");
        assert_eq!(runs[0].cadence_ns, 10_000_000);
        assert_eq!(runs[0].points.len(), 8);
        assert_eq!(runs[0].hists.len(), 1);
        assert_eq!(runs[0].hists[0].snap.count, 2);
    }

    #[test]
    fn loader_rejects_orphans_and_garbage() {
        assert!(load_jsonl("{\"run\":0,\"kind\":\"point\",\"ts\":1}\n").is_err());
        assert!(
            load_jsonl("{\"run\":1,\"kind\":\"run\",\"label\":\"x\",\"cadence_ns\":1}\n").is_err()
        );
        assert!(load_jsonl("not json\n").is_err());
    }

    #[test]
    fn pressure_windows_open_and_close_on_threshold() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        // live/heap: 0.5 @10ms, 0.95 @20ms, 0.92 @30ms, 0.3 @40ms.
        let w = pressure_windows(&runs[0], 0.9);
        assert_eq!(
            w,
            vec![PressureWindow {
                node: 0,
                start: 20_000_000,
                end: 30_000_000
            }]
        );
        // A lower threshold widens the window to the whole trace.
        let w = pressure_windows(&runs[0], 0.25);
        assert_eq!((w[0].start, w[0].end), (10_000_000, 40_000_000));
    }

    #[test]
    fn phase_alignment_counts_increases_inside_windows() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        let w = pressure_windows(&runs[0], 0.9);
        // Interrupt increases at 20ms (inside) and 50ms (outside).
        assert_eq!(phase_alignment(&runs[0], &w), (1, 2));
    }

    #[test]
    fn report_renders_rollups_pressure_and_alignment() {
        let runs = load_jsonl(&sample_jsonl()).unwrap();
        let r = report(&runs, 0.9);
        assert!(
            r.contains("== run 0: wc t4 (cadence 10.000ms, 8 points, 1 hists)"),
            "{r}"
        );
        assert!(r.contains("mem.gc_count"), "{r}");
        assert!(r.contains("counter"), "{r}");
        assert!(r.contains("serve.latency_ns"), "{r}");
        assert!(r.contains("n=2"), "{r}");
        assert!(r.contains("pressure (live/heap >= 0.90):"), "{r}");
        assert!(
            r.contains("node0    1 window(s), total 10.000ms, first @20.000ms"),
            "{r}"
        );
        assert!(
            r.contains("phase alignment: 1/2 interrupt increases inside pressure windows (50%)"),
            "{r}"
        );
        // Same input, same bytes.
        assert_eq!(r, report(&runs, 0.9));
    }

    #[test]
    fn diff_reports_final_deltas_and_unchanged_counts() {
        let a = load_jsonl(&sample_jsonl()).unwrap();
        let mut b = a.clone();
        // Bump node1's gc count and drop the histogram.
        b[0].points.last_mut().unwrap().value = 5;
        b[0].hists.clear();
        let d = diff(&a, &b);
        assert!(d.contains("== run 0: A=wc t4 | B=wc t4"), "{d}");
        assert!(d.contains("mem.gc_count[node1]"), "{d}");
        assert!(d.contains("(+2)"), "{d}");
        assert!(d.contains("series unchanged)"), "{d}");
        assert!(d.contains("serve.latency_ns[cluster]"), "{d}");
        assert!(d.contains("-> absent"), "{d}");
    }

    #[test]
    fn diff_matches_runs_by_label_not_position() {
        let base = load_jsonl(&sample_jsonl()).unwrap();
        let mut ra = base[0].clone();
        ra.label = "alpha".to_string();
        let mut rb = base[0].clone();
        rb.label = "beta".to_string();
        let a = vec![ra.clone(), rb.clone()];
        let b = vec![rb, ra];
        let d = diff(&a, &b);
        assert!(d.contains("warning: run labels differ"), "{d}");
        assert!(d.contains("== run 0: A=alpha | B=alpha (B run 1)"), "{d}");
        assert!(d.contains("== run 1: A=beta | B=beta (B run 0)"), "{d}");
    }
}
