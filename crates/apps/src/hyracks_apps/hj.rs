//! HJ — hash join `Customer ⋈ Order` on `custkey` (TPC-H). The
//! reduce-side join cell holds the build row, buffers early probes, and
//! retains joined rows until output; the paper's regular HJ is the most
//! scalable of the five but still dies at the 150x dataset (Figure 9d).

use simcore::jbloat;
use workloads::tpch::{Customer, Order, TpchConfig, TpchScale};

use crate::agg::AggSpec;
use crate::mids::{JoinMid, OutKv};
use crate::summary::RunSummary;
use itask_core::Tuple;

use super::{run_itask_spec, run_regular_spec, HyracksParams};

/// `(cell, pending probe, joined row)` byte sizes.
const SIZES: (u32, u32, u32) = (
    (jbloat::hashmap_entry(jbloat::boxed(8), jbloat::object(3, 20) + jbloat::string(46))) as u32,
    (jbloat::object(2, 28) + 16) as u32,
    640,
);

/// One input record of the join: a build row or a probe row.
#[derive(Clone, Copy, Debug)]
pub enum JoinIn {
    /// Build side.
    C(Customer),
    /// Probe side.
    O(Order),
}

impl Tuple for JoinIn {
    fn heap_bytes(&self) -> u64 {
        match self {
            JoinIn::C(c) => c.heap_bytes(),
            JoinIn::O(o) => o.heap_bytes(),
        }
    }

    fn ser_bytes(&self) -> u64 {
        match self {
            JoinIn::C(c) => c.ser_bytes(),
            JoinIn::O(o) => o.ser_bytes(),
        }
    }
}

/// The HJ spec.
#[derive(Clone, Debug, Default)]
pub struct HjSpec;

impl AggSpec for HjSpec {
    type In = JoinIn;
    type Mid = JoinMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        "hj"
    }

    fn explode(&self, rec: &JoinIn, out: &mut Vec<JoinMid>) {
        match rec {
            JoinIn::C(c) => out.push(JoinMid::customer(c.custkey, c.nationkey, SIZES)),
            JoinIn::O(o) => out.push(JoinMid::order(o.custkey, o.totalprice as u64, SIZES)),
        }
    }

    fn finish(&self, mid: JoinMid) -> OutKv {
        OutKv {
            key: mid.custkey,
            value: mid.joined,
        }
    }
}

/// Loads customers then orders as per-node frame lists.
pub fn inputs(scale: TpchScale, params: &HyracksParams) -> Vec<Vec<Vec<JoinIn>>> {
    let cfg = TpchConfig::preset(scale, params.seed);
    let per_block = 1_000u64;
    let mut blocks: Vec<Vec<JoinIn>> = Vec::new();
    let mut k = 0;
    while k < cfg.customers {
        blocks.push(
            cfg.customer_block(k, per_block)
                .into_iter()
                .map(JoinIn::C)
                .collect(),
        );
        k += per_block;
    }
    let mut k = 0;
    while k < cfg.orders {
        blocks.push(
            cfg.order_block(k, per_block)
                .into_iter()
                .map(JoinIn::O)
                .collect(),
        );
        k += per_block;
    }
    hyracks::distribute_blocks(super::NODES, blocks, params.granularity)
}

/// Runs the regular HJ.
pub fn run_regular(scale: TpchScale, params: &HyracksParams) -> RunSummary<OutKv> {
    run_regular_spec(&HjSpec, params, inputs(scale, params))
}

/// Runs the ITask HJ.
pub fn run_itask(scale: TpchScale, params: &HyracksParams) -> RunSummary<OutKv> {
    run_itask_spec(&HjSpec, params, inputs(scale, params))
}

/// Invariant check: every order joins exactly once.
pub fn verify(outs: &[OutKv], scale: TpchScale, seed: u64) -> bool {
    let cfg = TpchConfig::preset(scale, seed);
    let joined: u64 = outs.iter().map(|o| o.value).sum();
    joined == cfg.orders
}
