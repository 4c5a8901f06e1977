//! Table 4: the TPC-H datasets — paper-reported row counts vs the
//! scaled generators.
//!
//! Usage: `table4 [--jobs N]`.

use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table};
use workloads::tpch::{TpchConfig, TpchScale};

fn main() {
    let mut h = sweep::harness("table4");
    h.end_flags();

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
    let paper_sizes = ["9.8GB", "19.7GB", "29.7GB", "49.6GB", "99.8GB", "150.4GB"];
    let specs: Vec<RunSpec<Vec<String>>> = TpchScale::TABLE4
        .iter()
        .enumerate()
        .map(|(i, scale)| {
            let scale = *scale;
            sweep::spec(format!("table4 {}", scale.label()), move || {
                let cfg = TpchConfig::preset(scale, 42);
                let (pc, po, pl) = scale.paper_counts();
                vec![
                    scale.label().to_string(),
                    paper_sizes[i].to_string(),
                    format!("{pc:.3e}"),
                    format!("{po:.3e}"),
                    format!("{pl:.3e}"),
                    format!("{}", cfg.customers),
                    format!("{}", cfg.orders),
                    format!("{}", cfg.lineitems),
                    format!("{}", cfg.total_bytes()),
                ]
            })
        })
        .collect();
    let rows = h.run(specs);
    print_table("Table 4: TPC-H inputs (scaled 1/1024)", &header, &rows);
    h.finish();
}
