//! Table 4: the TPC-H datasets — paper-reported sizes and row counts vs
//! the scaled generators.
//!
//! Usage: `table4 [--jobs N]`.

use itask_bench::programs::TPCH;
use itask_bench::{cols, print_table, sweep};
use workloads::tpch::TpchConfig;

fn main() {
    let mut h = sweep::harness("table4");
    h.end_flags(&[]);

    let specs = TPCH
        .iter()
        .map(|&(dataset, _)| {
            let scale = dataset.tpch();
            sweep::spec(format!("table4 {}", scale.label()), move || {
                TpchConfig::preset(scale, 42)
            })
        })
        .collect();
    let rows: Vec<Vec<String>> = TPCH
        .iter()
        .zip(h.run(specs))
        .map(|(&(_, gb), cfg)| {
            let (pc, po, pl) = cfg.scale.paper_counts();
            vec![
                cfg.scale.label().to_string(),
                format!("{gb}GB"),
                format!("{pc:.3e}"),
                format!("{po:.3e}"),
                format!("{pl:.3e}"),
                format!("{}", cfg.customers),
                format!("{}", cfg.orders),
                format!("{}", cfg.lineitems),
                format!("{}", cfg.total_bytes()),
            ]
        })
        .collect();

    let header = cols(&[
        "scale",
        "paper size",
        "paper #Cust",
        "paper #Order",
        "paper #LineItem",
        "scaled #Cust",
        "scaled #Order",
        "scaled #LineItem",
        "scaled bytes",
    ]);
    print_table("Table 4: TPC-H inputs (scaled 1/1024)", &header, &rows);
    h.finish();
}
