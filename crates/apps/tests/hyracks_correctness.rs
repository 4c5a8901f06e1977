//! Correctness of the five Hyracks programs on the smallest datasets:
//! regular and ITask versions must both complete under ample memory and
//! satisfy the per-app invariants; where outputs are directly
//! comparable, the two versions must agree exactly.

use std::collections::BTreeMap;

use apps::hyracks_apps::{gr, hj, hs, ii, wc, HyracksParams};
use apps::OutKv;
use simcore::ByteSize;
use workloads::tpch::TpchScale;
use workloads::webmap::WebmapSize;

fn ample() -> HyracksParams {
    HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..HyracksParams::default()
    }
}

fn kv_map(outs: &[OutKv]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for o in outs {
        assert!(
            m.insert(o.key, o.value).is_none(),
            "duplicate key {}",
            o.key
        );
    }
    m
}

#[test]
fn wc_regular_and_itask_agree() {
    let p = ample();
    let reg = wc::run_regular(WebmapSize::G3, &p);
    let it = wc::run_itask(WebmapSize::G3, &p);
    let reg_out = reg.result.expect("regular WC");
    let it_out = it.result.expect("ITask WC");
    assert!(wc::verify(&reg_out, WebmapSize::G3, p.seed));
    assert_eq!(kv_map(&reg_out), kv_map(&it_out));
}

#[test]
fn hs_outputs_are_sorted_and_complete() {
    let p = ample();
    let reg = hs::run_regular(WebmapSize::G3, &p);
    let out = reg.result.expect("regular HS");
    assert!(
        hs::verify(&out, WebmapSize::G3, p.seed, true),
        "regular output must be sorted"
    );

    let it = hs::run_itask(WebmapSize::G3, &p);
    let out = it.result.expect("ITask HS");
    assert!(
        hs::verify(&out, WebmapSize::G3, p.seed, false),
        "ITask output must be a permutation"
    );
}

#[test]
fn ii_postings_cover_every_edge() {
    let p = ample();
    let reg = ii::run_regular(WebmapSize::G3, &p);
    let it = ii::run_itask(WebmapSize::G3, &p);
    let reg_out = reg.result.expect("regular II");
    let it_out = it.result.expect("ITask II");
    assert!(ii::verify(&reg_out, WebmapSize::G3, p.seed));
    assert_eq!(kv_map(&reg_out), kv_map(&it_out));
}

#[test]
fn hj_joins_every_order_exactly_once() {
    let p = ample();
    let reg = hj::run_regular(TpchScale::X10, &p);
    let it = hj::run_itask(TpchScale::X10, &p);
    let reg_out = reg.result.expect("regular HJ");
    let it_out = it.result.expect("ITask HJ");
    assert!(hj::verify(&reg_out, TpchScale::X10, p.seed));
    assert!(hj::verify(&it_out, TpchScale::X10, p.seed));
}

#[test]
fn gr_groups_and_revenue_match() {
    let p = ample();
    let reg = gr::run_regular(TpchScale::X10, &p);
    let it = gr::run_itask(TpchScale::X10, &p);
    let reg_out = reg.result.expect("regular GR");
    let it_out = it.result.expect("ITask GR");
    assert!(gr::verify(&reg_out, TpchScale::X10, p.seed));
    assert_eq!(kv_map(&reg_out), kv_map(&it_out));
}

#[test]
fn runs_are_deterministic() {
    let p = ample();
    let a = wc::run_regular(WebmapSize::G3, &p);
    let b = wc::run_regular(WebmapSize::G3, &p);
    assert_eq!(a.report.elapsed, b.report.elapsed);
    assert_eq!(a.peak_heap(), b.peak_heap());
    assert_eq!(kv_map(&a.result.unwrap()), kv_map(&b.result.unwrap()));
}

#[test]
fn webmap_inputs_conserve_every_record() {
    use workloads::webmap::{WebmapConfig, WebmapSize};
    let p = ample();
    let inputs = apps::hyracks_apps::webmap_inputs(WebmapSize::G3, &p, |r| r);
    assert_eq!(inputs.len(), apps::hyracks_apps::NODES);
    let distributed: usize = inputs.iter().flatten().map(Vec::len).sum();
    let cfg = WebmapConfig::preset(WebmapSize::G3, p.seed);
    assert_eq!(distributed as u64, cfg.vertices);
    // Every node received work (blocks round-robin).
    for node in &inputs {
        assert!(!node.is_empty());
    }
}
