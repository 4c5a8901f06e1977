//! Table 5: scalability of the *regular* programs under 12GB heaps —
//! the largest dataset each program can process, with the thread count
//! and task granularity that give the best performance there.
//!
//! Usage: `table5 [--jobs N] [program ...]`; `--quick` narrows the
//! granularity sweep to 16/32KB.

use apps::hyracks_apps::HyracksParams;
use itask_bench::programs::{params, Program, PROGRAMS, THREADS};
use itask_bench::sweep::{self, Harness};
use itask_bench::{cols, print_table};
use simcore::{ByteSize, SimDuration, SCALE};

const GRANS_KIB: [u64; 5] = [8, 16, 32, 64, 128];

/// Finds the largest dataset with any successful (threads, gran)
/// configuration, plus the best configuration there.
///
/// Datasets stay sequential (the serial harness stops at the first one
/// with no viable configuration, and we do no extra work either), but
/// each dataset's whole (threads × granularity) grid fans out across
/// the worker pool. Selection replays outcomes in grid order, so the
/// winner — and the printed row — matches a serial sweep exactly.
fn scalability(h: &mut Harness, p: &'static Program, grans: &[u64]) -> Vec<String> {
    let mut best: Option<(&str, usize, u64, SimDuration)> = None;
    for &(ds, _) in p.datasets {
        let mut specs = Vec::new();
        for t in THREADS {
            for &g in grans {
                specs.push(sweep::spec(
                    format!("table5 {} {} t{t} g{g}KiB", p.name, ds.label()),
                    move || {
                        let params = HyracksParams {
                            granularity: ByteSize::kib(g),
                            ..params(t)
                        };
                        p.run(ds, false, &params)
                    },
                ));
            }
        }
        let mut cells = h.run(specs).into_iter();
        let mut best_here: Option<(usize, u64, SimDuration)> = None;
        for t in THREADS {
            for &g in grans {
                let cell = cells.next().expect("grid outcome");
                if cell.ok && best_here.map(|b| cell.elapsed < b.2).unwrap_or(true) {
                    best_here = Some((t, g, cell.elapsed));
                }
            }
        }
        match best_here {
            Some((t, g, e)) => best = Some((ds.label(), t, g, e)),
            None => break, // larger datasets will not fare better
        }
    }
    match best {
        Some((label, t, g, e)) => vec![
            p.name.to_string(),
            label.to_string(),
            t.to_string(),
            format!("{g}KB"),
            format!("{:.1}s", e.as_secs_f64() * SCALE as f64),
        ],
        None => vec![
            p.name.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
    }
}

fn main() {
    let mut h = sweep::harness("table5");
    let quick = h.flag("--quick");
    h.end_flags(&PROGRAMS.each_ref().map(|p| p.key));
    let grans: &[u64] = if quick { &[16, 32] } else { &GRANS_KIB };

    let mut rows = Vec::new();
    for p in &PROGRAMS {
        if h.wants(p.key) {
            rows.push(scalability(&mut h, p, grans));
        }
    }

    let header = cols(&[
        "Name",
        "DS (largest scaled)",
        "#K (threads)",
        "#T (granularity)",
        "best time",
    ]);
    print_table(
        "Table 5: scalability of the regular programs (12GB heap)",
        &header,
        &rows,
    );
    h.finish();
}
