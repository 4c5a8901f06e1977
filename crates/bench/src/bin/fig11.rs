//! Figure 11: (a) WC and (b) II on the 10GB dataset under 12/10/8/6 GB
//! heaps — regular (8 threads) vs ITask; (c) active ITask instances
//! over time for WC on the 14GB dataset, read off that run's trace
//! stream (the binary arms the tracer itself).
//!
//! Usage: `fig11 [--jobs N]`.

use apps::hyracks_apps::HyracksParams;
use itask_bench::programs::{params, Dataset, PROGRAMS};
use itask_bench::{print_table, sweep, Cell, Series};
use simcore::tracer::{self, TraceData};
use simcore::{ByteSize, NodeId, SimTime, SCALE};
use workloads::webmap::WebmapSize;

const HEAPS_MIB: [u64; 4] = [12, 10, 8, 6];

/// 8 threads on a `heap_mib` heap per node.
fn heap(heap_mib: u64) -> HyracksParams {
    HyracksParams {
        heap_per_node: ByteSize::mib(heap_mib),
        ..params(8)
    }
}

/// Buckets on the time grid of the four fig 11(c) digit lines.
const BUCKETS: usize = 60;

fn digits(series: &Series, end: SimTime) -> String {
    series
        .bucket_max(BUCKETS, end)
        .iter()
        .map(|&v| char::from_digit((v as u32).min(9), 10).unwrap_or('9'))
        .collect()
}

/// Live instances of `task` over one phase, replayed from the phase's
/// `Activated` (+1) and `Retired` (−1) events; the series spans the
/// whole phase so every operator's mean is over the same window.
fn instances(phase: &[&tracer::Event], task: u32) -> Series {
    let mut s = Series::default();
    let (Some(first), Some(last)) = (phase.first(), phase.last()) else {
        return s;
    };
    let mut live = 0i64;
    s.push(first.at, 0.0);
    for e in phase {
        match e.data {
            TraceData::Activated { task: t, .. } if t == task => live += 1,
            TraceData::Retired { task: t } if t == task => live -= 1,
            _ => continue,
        }
        s.push(e.at, live as f64);
    }
    s.push(last.at, live as f64);
    s
}

fn render_heap_sweep(name: &str, cells: &mut impl Iterator<Item = Cell>) {
    let header: Vec<String> = ["heap", "regular (8 thr)", "ITask", "peak reg", "peak ITask"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for h in HEAPS_MIB {
        let reg = cells.next().expect("regular cell");
        let it = cells.next().expect("itask cell");
        rows.push(vec![
            format!("{}GB", h),
            reg.show(),
            it.show(),
            format!("{}", reg.peak),
            format!("{}", it.peak),
        ]);
    }
    print_table(
        &format!("Figure 11: {name} on the 10GB dataset under shrinking heaps"),
        &header,
        &rows,
    );
}

fn main() {
    let mut h = sweep::harness("fig11");
    h.end_flags();
    // (c) is read off its run's trace stream.
    tracer::enable();
    let [wc, _, ii, _, _] = &PROGRAMS;
    let g10 = Dataset::Webmap(WebmapSize::G10);

    // (a)/(b): 4 heaps × {regular, itask} × {WC, II}; (c): one full run.
    // All independent — one batch.
    let mut specs: Vec<sweep::RunSpec<Cell>> = Vec::new();
    for p in [wc, ii] {
        for mib in HEAPS_MIB {
            specs.push(sweep::spec(
                format!("fig11 {} {mib}GB reg", p.key),
                move || p.run(g10, false, &heap(mib)),
            ));
            specs.push(sweep::spec(
                format!("fig11 {} {mib}GB itask", p.key),
                move || p.run(g10, true, &heap(mib)),
            ));
        }
    }
    specs.push(sweep::spec("fig11 wc G14 itask (c)", || {
        wc.run(Dataset::Webmap(WebmapSize::G14), true, &heap(12))
    }));
    let mut out = h.run_outcomes(specs);
    let timeline = out.pop().expect("fig11(c) run");
    let mut results = out.into_iter().map(|o| o.result);

    render_heap_sweep("(a) WC", &mut results);
    render_heap_sweep("(b) II", &mut results);

    // (c) Active ITask instances over time, WC on 14GB.
    let cell = timeline.result;
    let trace = timeline.trace.expect("fig11 arms the tracer");
    println!("\n=== Figure 11(c): active ITask instances over time (WC, 14GB) ===");
    println!(
        "finished in {:.1} paper-equivalent seconds; {}",
        cell.paper_secs(),
        if cell.ok { "completed" } else { "FAILED" }
    );
    // The runnable-thread curve is change-driven: the same step
    // function per-round sampling would describe, closed by the node's
    // last round (where it drops to 0).
    let mut threads = Series::default();
    let mut lifecycle = Vec::new();
    for e in trace.iter().filter(|e| e.node == Some(NodeId(0))) {
        match e.data {
            TraceData::ThreadQuantum { running } => threads.push(e.at, running as f64),
            TraceData::Activated { .. } | TraceData::Retired { .. } => lifecycle.push(e),
            _ => {}
        }
    }
    let end = threads.end();
    println!(
        "node 0: mean active instances {:.2}, peak {:.0}",
        threads.time_weighted_mean(),
        threads.max_value()
    );
    // Padded to the per-operator rows' prefix: all four lines share one grid.
    println!(
        "{:<36}{}",
        "instances (per time bucket, 0-9):",
        digits(&threads, end)
    );
    println!(
        "x axis: 0 .. {:.1} paper-equivalent seconds",
        end.as_secs_f64() * SCALE as f64
    );
    // The paper's per-operator decomposition (Map / Reduce / Merge), on
    // the same time grid. Task ids restart per phase, so split at the
    // run's shuffle: before it task 0 is map; after it 0 is reduce and
    // 1 is merge.
    let shuffle = trace
        .iter()
        .find(|e| matches!(e.data, TraceData::Shuffle { .. }))
        .map_or(end, |e| e.at);
    let (map_phase, reduce_phase): (Vec<_>, Vec<_>) =
        lifecycle.into_iter().partition(|e| e.at <= shuffle);
    for (name, phase, task) in [
        ("map", &map_phase, 0),
        ("reduce", &reduce_phase, 0),
        ("merge", &reduce_phase, 1),
    ] {
        let series = instances(phase, task);
        println!(
            "{name:<14} mean {:>5.2}, peak {:>2.0}: {}",
            series.time_weighted_mean(),
            series.max_value(),
            digits(&series, end)
        );
    }
    h.finish();
}
