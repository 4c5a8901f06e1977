//! The §4.3 future-work direction, implemented: a declarative query is
//! *compiled* into an interruptible ITask pipeline — interrupt handling
//! (flush partial results, tag partial aggregates, re-queue partial
//! merges) is generated, not hand-written.
//!
//! ```sh
//! cargo run --release --example declarative_query
//! ```

use itask_repro::apps::hyracks_apps::HyracksParams;
use planner::{Query, RunnableQuery};
use workloads::tpch::{LineItem, TpchConfig, TpchScale};

fn main() {
    let params = HyracksParams::default(); // 10 nodes x 12GB heaps
    let cfg = TpchConfig::preset(TpchScale::X100, params.seed);
    println!(
        "declarative query: TPC-H lineitem, {} rows (≙ 99.8GB)",
        cfg.lineitems
    );

    // The whole program: a logical plan. No interrupt code anywhere.
    // `collect` materializes each group before reducing it — the
    // memory-hungry collect-then-aggregate shape that kills the regular
    // GR at this scale (Figure 9e).
    let mut q = Query::<LineItem>::named("revenue_by_order")
        .flat_map(|li, out| out.push((li.orderkey, li.extendedprice as u64 * li.quantity as u64)))
        .collect(|vals| vals.iter().sum());
    // Model each collected value as a full Java row object (as GR does).
    q.item_bytes = 150;

    // Load the table as per-node frames.
    let mut blocks = Vec::new();
    let mut k = 0;
    while k < cfg.lineitems {
        blocks.push(cfg.lineitem_block(k, 1_200));
        k += 1_200;
    }
    let inputs = hyracks::distribute_blocks(apps::hyracks_apps::NODES, blocks, params.granularity);

    let mut run = q.run_itask(&params, inputs);
    let outs = std::mem::replace(&mut run.result, Ok(Vec::new()))
        .expect("the generated pipeline survives");
    let groups = outs.len();
    let revenue: u64 = outs.iter().map(|o| o.value).sum();
    println!("  groups:      {groups} orders");
    println!("  revenue:     {revenue} (total)");
    println!(
        "  time:        {:.1}s paper-equivalent, gc {:.0}%",
        run.paper_seconds(),
        run.gc_fraction() * 100.0
    );
    println!(
        "  pressure:    {} interrupts, {} partitions serialized, peak heap {}",
        run.report.counter("itask.interrupts") + run.report.counter("itask.emergency_interrupts"),
        run.report.counter("itask.serializations"),
        run.peak_heap(),
    );
    println!("  all of it handled by generated code: the query never mentions memory");
}
