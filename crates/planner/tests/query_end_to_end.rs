//! End-to-end planner tests: compiled queries run through the real
//! engines and must agree with direct computation — with and without
//! memory pressure, in both regular and generated-ITask form.

use std::collections::BTreeMap;

use apps::hyracks_apps::HyracksParams;
use planner::{Query, RunnableQuery};
use simcore::ByteSize;
use workloads::tpch::{LineItem, TpchConfig, TpchScale};
use workloads::webmap::{AdjRecord, WebmapConfig, WebmapSize};

fn lineitem_inputs(params: &HyracksParams) -> (Vec<Vec<Vec<LineItem>>>, Vec<LineItem>) {
    let cfg = TpchConfig::preset(TpchScale::X10, params.seed);
    let mut blocks = Vec::new();
    let mut all = Vec::new();
    let mut k = 0;
    while k < cfg.lineitems {
        let b = cfg.lineitem_block(k, 1_200);
        all.extend(b.iter().copied());
        blocks.push(b);
        k += 1_200;
    }
    (
        hyracks::distribute_blocks(apps::hyracks_apps::NODES, blocks, params.granularity),
        all,
    )
}

fn as_map(outs: &[apps::OutKv]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for o in outs {
        assert!(m.insert(o.key, o.value).is_none(), "duplicate key");
    }
    m
}

#[test]
fn sum_query_matches_direct_computation() {
    let params = HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..Default::default()
    };
    let (inputs, all) = lineitem_inputs(&params);
    let q = Query::<LineItem>::named("revenue_by_order")
        .flat_map(|li, out| out.push((li.orderkey, li.extendedprice as u64 * li.quantity as u64)))
        .sum();

    let mut expected = BTreeMap::new();
    for li in &all {
        *expected.entry(li.orderkey).or_insert(0u64) +=
            li.extendedprice as u64 * li.quantity as u64;
    }

    let reg = q.run_regular(&params, inputs.clone());
    assert_eq!(as_map(&reg.result.unwrap()), expected);
    let it = q.run_itask(&params, inputs);
    assert_eq!(as_map(&it.result.unwrap()), expected);
}

#[test]
fn collect_query_computes_group_maxima() {
    let params = HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..Default::default()
    };
    let (inputs, all) = lineitem_inputs(&params);
    let q = Query::<LineItem>::named("max_price_by_supplier")
        .flat_map(|li, out| out.push((li.suppkey, li.extendedprice as u64)))
        .collect(|vals| vals.iter().copied().max().unwrap_or(0));

    let mut expected = BTreeMap::new();
    for li in &all {
        let e = expected.entry(li.suppkey).or_insert(0u64);
        *e = (*e).max(li.extendedprice as u64);
    }

    let it = q.run_itask(&params, inputs);
    assert_eq!(as_map(&it.result.unwrap()), expected);
}

#[test]
fn generated_pipeline_survives_pressure_the_regular_one_may_not() {
    // A degree-count query over the 10GB webmap on default (12MiB)
    // heaps: the generated ITask pipeline must complete exactly.
    let params = HyracksParams::default();
    let cfg = WebmapConfig::preset(WebmapSize::G10, params.seed);
    let blocks: Vec<Vec<AdjRecord>> = (0..cfg.num_blocks(ByteSize::kib(128)))
        .map(|b| cfg.block(b, ByteSize::kib(128)))
        .collect();
    let expected_total: u64 = blocks
        .iter()
        .flatten()
        .map(|r| 1 + r.neighbors.len() as u64)
        .sum();
    let inputs = hyracks::distribute_blocks(apps::hyracks_apps::NODES, blocks, params.granularity);

    let q = Query::<AdjRecord>::named("token_count")
        .flat_map(|rec, out| {
            out.push((rec.vertex, 1));
            for &n in &rec.neighbors {
                out.push((n, 1));
            }
        })
        .count();
    let it = q.run_itask(&params, inputs);
    assert!(it.ok(), "generated ITask pipeline must survive");
    let total: u64 = it.result.unwrap().iter().map(|o| o.value).sum();
    assert_eq!(total, expected_total);
}

#[test]
fn queries_are_deterministic() {
    let params = HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..Default::default()
    };
    let (inputs, _) = lineitem_inputs(&params);
    let q = Query::<LineItem>::named("qty")
        .flat_map(|li, out| out.push((li.orderkey % 97, li.quantity as u64)));
    let q = q.sum();
    let a = q.run_itask(&params, inputs.clone());
    let b = q.run_itask(&params, inputs);
    assert_eq!(a.report.elapsed, b.report.elapsed);
    assert_eq!(as_map(&a.result.unwrap()), as_map(&b.result.unwrap()));
}
