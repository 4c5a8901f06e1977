//! Table 3: the webmap datasets — paper-reported sizes vs the scaled
//! synthetic graphs actually generated (exact counts from iterating
//! every block).
//!
//! Usage: `table3 [--jobs N]`.

use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table};
use simcore::ByteSize;
use workloads::webmap::{WebmapConfig, WebmapSize};

fn main() {
    let mut h = sweep::harness("table3");
    h.end_flags();

    let header = cols(&[
        "dataset",
        "paper #V",
        "paper #E",
        "scaled #V (target)",
        "generated #V",
        "generated #E",
        "generated bytes",
    ]);
    let specs: Vec<RunSpec<Vec<String>>> = WebmapSize::ALL
        .into_iter()
        .map(|size| {
            sweep::spec(format!("table3 {}", size.label()), move || {
                let cfg = WebmapConfig::preset(size, 42);
                let (v, e, bytes) = cfg.exact_stats(ByteSize::kib(128));
                let (pv, pe) = size.paper_counts();
                vec![
                    size.label().to_string(),
                    format!("{pv}"),
                    format!("{pe}"),
                    format!("{}", cfg.vertices),
                    format!("{v}"),
                    format!("{e}"),
                    format!("{bytes}"),
                ]
            })
        })
        .collect();
    let rows = h.run(specs);
    print_table(
        "Table 3: webmap inputs (Yahoo! Webmap, scaled 1/1024)",
        &header,
        &rows,
    );
    h.finish();
}
