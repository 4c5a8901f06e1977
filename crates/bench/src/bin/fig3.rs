//! Figure 3: memory footprint over time, with and without ITasks, on a
//! workload that drives the regular execution into an OME. Prints the
//! node-0 heap-occupancy curve of both executions on one shared time
//! grid, the OME point of the regular run, and the ITask run's
//! interrupt count.
//!
//! The curve is read off each run's trace stream (the binary arms the
//! tracer itself): every collection contributes its peak and its
//! trough, and the OME its final occupancy.
//!
//! Usage: `fig3 [--jobs N]`.

use apps::hyracks_apps::{wc, HyracksParams};
use itask_bench::{print_table, sweep, Series};
use simcore::tracer::{self, TraceData};
use simcore::{NodeId, SimDuration, SimTime, SCALE};
use workloads::webmap::WebmapSize;

/// Buckets on the shared time grid (table rows, sparkline glyphs).
const BUCKETS: usize = 40;

/// Node 0's heap sawtooth, in MiB: `used_before` at each pause's
/// start, `used_after` at its end, and the occupancy at an OME.
fn heap_series(trace: &[tracer::Event], capacity: u64) -> Series {
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let mut s = Series::default();
    for e in trace.iter().filter(|e| e.node == Some(NodeId(0))) {
        match e.data {
            TraceData::Gc {
                reclaimed,
                free_after,
                ..
            } => {
                let used_after = capacity - free_after;
                s.push(e.at, mib(used_after + reclaimed));
                s.push(e.at + e.dur, mib(used_after));
            }
            TraceData::Oom { free, .. } => s.push(e.at, mib(capacity - free)),
            _ => {}
        }
    }
    s
}

fn sparkline(mib: &[f64], cap_mib: f64) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    mib.iter()
        .map(|v| RAMP[((v / cap_mib) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

fn paper_secs(d: SimDuration) -> f64 {
    d.as_secs_f64() * SCALE as f64
}

fn main() {
    let mut h = sweep::harness("fig3");
    h.end_flags();
    tracer::enable();

    let size = WebmapSize::G27; // regular WC dies here; ITask survives
    let params = HyracksParams {
        threads: 8,
        ..HyracksParams::default()
    };
    let capacity = params.heap_per_node.as_u64();
    let cap_mib = capacity as f64 / (1 << 20) as f64;

    println!(
        "Figure 3: heap occupancy over time, WC on the {} dataset",
        size.label()
    );
    println!(
        "(node 0, heap capacity {} ≙ 12GB; x = paper-equivalent seconds)\n",
        params.heap_per_node
    );

    let params_ref = &params;
    let out = h.run_outcomes(vec![
        sweep::spec("fig3 wc regular", move || {
            wc::run_regular(size, params_ref).report
        }),
        sweep::spec("fig3 wc itask", move || {
            wc::run_itask(size, params_ref).report
        }),
    ]);
    let end = out
        .iter()
        .map(|o| o.result.elapsed)
        .max()
        .expect("two runs");
    // One grid for both runs; a run's curve stops at the bucket its
    // last instant falls in.
    let mut it = out.into_iter().map(|o| {
        let trace = o.trace.expect("fig3 arms the tracer");
        let mut mib = heap_series(&trace, capacity).bucket_max(BUCKETS, SimTime::ZERO + end);
        let live = (o.result.elapsed.as_nanos() as u128 * BUCKETS as u128)
            .div_ceil(end.as_nanos() as u128);
        mib.truncate(live as usize);
        (o.result, mib)
    });
    let (regular, regular_mib) = it.next().expect("regular run");
    let (itask, itask_mib) = it.next().expect("itask run");

    println!(
        "regular ({}): {}",
        if regular.outcome.ok() {
            "completed".into()
        } else {
            format!("OME at {:.1}s", paper_secs(regular.elapsed))
        },
        sparkline(&regular_mib, cap_mib)
    );
    println!(
        "ITask   ({}): {}",
        if itask.outcome.ok() {
            format!("completed at {:.1}s", paper_secs(itask.elapsed))
        } else {
            "OME".into()
        },
        sparkline(&itask_mib, cap_mib)
    );
    println!(
        "\nITask pressure handling: {} interrupts, {} serializations, {} LUGCs observed",
        itask.counter("itask.interrupts") + itask.counter("itask.emergency_interrupts"),
        itask.counter("itask.serializations"),
        itask.counter("monitor.lugcs"),
    );

    // Numeric tail for EXPERIMENTS.md: each row is one bucket of the
    // shared grid, labelled by its right edge.
    let header = vec![
        "t (paper s)".to_string(),
        "regular MiB".to_string(),
        "ITask MiB".to_string(),
    ];
    let show = |mib: &[f64], i: usize| mib.get(i).map(|v| format!("{v:6.2}")).unwrap_or_default();
    let rows: Vec<Vec<String>> = (0..BUCKETS)
        .map(|i| {
            let edge = paper_secs(end) * (i + 1) as f64 / BUCKETS as f64;
            vec![
                format!("{edge:8.1}"),
                show(&regular_mib, i),
                show(&itask_mib, i),
            ]
        })
        .collect();
    print_table("Figure 3 series (peak per time bucket)", &header, &rows);
    h.finish();
}
