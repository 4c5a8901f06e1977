//! GR — group-by over TPC-H `LINEITEM`: group by order key, collecting
//! the line items of each group before aggregating their revenue (the
//! collect-then-aggregate pattern whose intermediate results blow up —
//! §2's second root cause). The paper's regular GR dies at the 100x and
//! 150x datasets (Figure 9e).

use simcore::jbloat;
use workloads::tpch::{LineItem, TpchConfig, TpchScale};

use crate::agg::AggSpec;
use crate::mids::{ListMid, OutKv};
use crate::summary::RunSummary;

use super::{run_itask_spec, run_regular_spec, HyracksParams};

/// Group entry base: boxed key + list header.
const GR_ENTRY: u32 =
    (jbloat::hashmap_entry(jbloat::boxed(8), 0) + jbloat::array_list(0, 0)) as u32;
/// Per collected line item (the row object + list slot).
const GR_ITEM: u32 = (jbloat::object(1, 40) + jbloat::string(28) + 48) as u32;

/// The GR spec.
#[derive(Clone, Debug, Default)]
pub struct GrSpec;

impl AggSpec for GrSpec {
    type In = LineItem;
    type Mid = ListMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        "gr"
    }

    fn explode(&self, rec: &LineItem, out: &mut Vec<ListMid>) {
        let revenue = rec.extendedprice as u64 * rec.quantity as u64;
        out.push(ListMid::one(rec.orderkey, revenue, GR_ENTRY, GR_ITEM));
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.items().iter().sum(),
        }
    }
}

/// Loads the lineitem table as per-node frame lists.
pub fn inputs(scale: TpchScale, params: &HyracksParams) -> Vec<Vec<Vec<LineItem>>> {
    let cfg = TpchConfig::preset(scale, params.seed);
    let per_block = 1_200u64;
    let mut blocks: Vec<Vec<LineItem>> = Vec::new();
    let mut k = 0;
    while k < cfg.lineitems {
        blocks.push(cfg.lineitem_block(k, per_block));
        k += per_block;
    }
    hyracks::distribute_blocks(super::NODES, blocks, params.granularity)
}

/// Runs the regular GR.
pub fn run_regular(scale: TpchScale, params: &HyracksParams) -> RunSummary<OutKv> {
    run_regular_spec(&GrSpec, params, inputs(scale, params))
}

/// Runs the ITask GR.
pub fn run_itask(scale: TpchScale, params: &HyracksParams) -> RunSummary<OutKv> {
    run_itask_spec(&GrSpec, params, inputs(scale, params))
}

/// Invariant check: one group per order, total revenue matches a direct
/// recomputation over the generator.
pub fn verify(outs: &[OutKv], scale: TpchScale, seed: u64) -> bool {
    let cfg = TpchConfig::preset(scale, seed);
    if outs.len() as u64 != cfg.orders {
        return false;
    }
    let mut expected = 0u64;
    let mut k = 0;
    while k < cfg.lineitems {
        for li in cfg.lineitem_block(k, 10_000) {
            expected += li.extendedprice as u64 * li.quantity as u64;
        }
        k += 10_000;
    }
    let got: u64 = outs.iter().map(|o| o.value).sum();
    got == expected
}
