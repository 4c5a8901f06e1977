#![warn(missing_docs)]

//! A declarative query layer over the ITask runtime.
//!
//! The paper closes §4.3 with: *"an important and promising future
//! direction is to modify the compilers of those high-level languages to
//! make them automatically generate ITask code."* This crate implements
//! that direction at small scale: a logical plan — flat-map into keyed
//! contributions, then an aggregation — is compiled into the same
//! interruptible map / reduce / merge pipeline the hand-written
//! applications use, with the interrupt logic (flush on map interrupts,
//! tag-and-queue on reduce interrupts, self-requeue on merge interrupts)
//! generated for free.
//!
//! # Examples
//!
//! Revenue per order over TPC-H line items, as one expression:
//!
//! ```
//! use planner::Query;
//! use workloads::tpch::LineItem;
//!
//! let q = Query::<LineItem>::named("revenue_by_order")
//!     .flat_map(|li, out| {
//!         out.push((li.orderkey, li.extendedprice as u64 * li.quantity as u64))
//!     })
//!     .sum();
//! // q.run_itask(&params, inputs) / q.run_regular(&params, inputs)
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use apps::agg::AggSpec;
use apps::hyracks_apps::{run_itask_spec, run_regular_spec, HyracksParams};
use apps::{CountMid, ListMid, OutKv, RunSummary};
use itask_core::Tuple;

/// Emits `(key, value)` contributions for one input record.
pub type FlatMapFn<In> = Rc<dyn Fn(&In, &mut Vec<(u64, u64)>)>;

/// Reduces a group's collected values to one output value.
pub type FinishFn = Rc<dyn Fn(&[u64]) -> u64>;

/// A named logical query over records of type `In`.
pub struct Query<In> {
    name: &'static str,
    _marker: std::marker::PhantomData<fn(&In)>,
}

impl<In: Tuple> Query<In> {
    /// Starts a query plan.
    pub fn named(name: &'static str) -> Self {
        Query {
            name,
            _marker: std::marker::PhantomData,
        }
    }

    /// Adds the keying stage: `f` turns each record into zero or more
    /// `(key, value)` contributions.
    pub fn flat_map(self, f: impl Fn(&In, &mut Vec<(u64, u64)>) + 'static) -> KeyedQuery<In> {
        KeyedQuery {
            name: self.name,
            flat_map: Rc::new(f),
        }
    }
}

/// A keyed plan awaiting its aggregation.
pub struct KeyedQuery<In> {
    name: &'static str,
    flat_map: FlatMapFn<In>,
}

impl<In: Tuple> KeyedQuery<In> {
    /// Counts contributions per key (values are ignored).
    pub fn count(self) -> FoldQuery<In> {
        FoldQuery {
            name: self.name,
            flat_map: self.flat_map,
            count_only: true,
            entry_bytes: FOLD_ENTRY,
            kvs: RefCell::default(),
        }
    }

    /// Sums contribution values per key.
    pub fn sum(self) -> FoldQuery<In> {
        FoldQuery {
            name: self.name,
            flat_map: self.flat_map,
            count_only: false,
            entry_bytes: FOLD_ENTRY,
            kvs: RefCell::default(),
        }
    }

    /// Collects each key's values and reduces them with `finish` at the
    /// very end (the collect-then-aggregate pattern — the memory-hungry
    /// shape of §2's "large intermediate results").
    pub fn collect(self, finish: impl Fn(&[u64]) -> u64 + 'static) -> CollectQuery<In> {
        CollectQuery {
            name: self.name,
            flat_map: self.flat_map,
            finish: Rc::new(finish),
            entry_bytes: COLLECT_ENTRY,
            item_bytes: COLLECT_ITEM,
            kvs: RefCell::default(),
        }
    }
}

/// Simulated footprint of a fold entry (`key → running value`).
const FOLD_ENTRY: u32 = 136;
/// Simulated footprint of a collect entry base.
const COLLECT_ENTRY: u32 = 176;
/// Simulated footprint per collected value.
const COLLECT_ITEM: u32 = 40;

/// One record's `(key, value)` contributions, kept between records so
/// `explode` allocates nothing once it has seen the widest record. Each
/// clone of a plan gets its own, empty.
type Contributions = RefCell<Vec<(u64, u64)>>;

/// Runs `flat_map` on `rec` into the reused buffer and hands each
/// contribution, in emission order, to `push`.
fn contributions<In>(
    flat_map: &FlatMapFn<In>,
    kvs: &Contributions,
    rec: &In,
    mut push: impl FnMut(u64, u64),
) {
    let mut kvs = kvs.borrow_mut();
    kvs.clear();
    flat_map(rec, &mut kvs);
    for &(k, v) in kvs.iter() {
        push(k, v);
    }
}

/// A compiled additive-aggregation plan (count / sum).
pub struct FoldQuery<In> {
    name: &'static str,
    flat_map: FlatMapFn<In>,
    count_only: bool,
    /// Simulated bytes per aggregation-table entry.
    pub entry_bytes: u32,
    kvs: Contributions,
}

impl<In> Clone for FoldQuery<In> {
    fn clone(&self) -> Self {
        FoldQuery {
            name: self.name,
            flat_map: self.flat_map.clone(),
            count_only: self.count_only,
            entry_bytes: self.entry_bytes,
            kvs: RefCell::default(),
        }
    }
}

impl<In: Tuple + Clone> AggSpec for FoldQuery<In> {
    type In = In;
    type Mid = CountMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        self.name
    }

    fn explode(&self, rec: &In, out: &mut Vec<CountMid>) {
        contributions(&self.flat_map, &self.kvs, rec, |k, v| {
            let count = if self.count_only { 1 } else { v };
            out.push(CountMid {
                key: k,
                count,
                entry_bytes: self.entry_bytes,
            });
        });
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.count,
        }
    }
}

/// A compiled collect-then-reduce plan.
pub struct CollectQuery<In> {
    name: &'static str,
    flat_map: FlatMapFn<In>,
    finish: FinishFn,
    /// Simulated bytes per group entry.
    pub entry_bytes: u32,
    /// Simulated bytes per collected value.
    pub item_bytes: u32,
    kvs: Contributions,
}

impl<In> Clone for CollectQuery<In> {
    fn clone(&self) -> Self {
        CollectQuery {
            name: self.name,
            flat_map: self.flat_map.clone(),
            finish: self.finish.clone(),
            entry_bytes: self.entry_bytes,
            item_bytes: self.item_bytes,
            kvs: RefCell::default(),
        }
    }
}

impl<In: Tuple + Clone> AggSpec for CollectQuery<In> {
    type In = In;
    type Mid = ListMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        self.name
    }

    fn explode(&self, rec: &In, out: &mut Vec<ListMid>) {
        contributions(&self.flat_map, &self.kvs, rec, |k, v| {
            out.push(ListMid::one(k, v, self.entry_bytes, self.item_bytes))
        });
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: (self.finish)(mid.items()),
        }
    }
}

/// Execution entry points shared by both compiled plan kinds.
pub trait RunnableQuery: AggSpec<Out = OutKv> + Sized {
    /// Runs the generated *ITask* pipeline on a Hyracks cluster.
    fn run_itask(
        &self,
        params: &HyracksParams,
        inputs: Vec<Vec<Vec<Self::In>>>,
    ) -> RunSummary<OutKv> {
        run_itask_spec(self, params, inputs)
    }

    /// Runs the equivalent regular (non-interruptible) pipeline.
    fn run_regular(
        &self,
        params: &HyracksParams,
        inputs: Vec<Vec<Vec<Self::In>>>,
    ) -> RunSummary<OutKv> {
        run_regular_spec(self, params, inputs)
    }
}

impl<In: Tuple + Clone> RunnableQuery for FoldQuery<In> {}
impl<In: Tuple + Clone> RunnableQuery for CollectQuery<In> {}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::MergeableTuple;

    #[derive(Clone, Copy)]
    struct R(u64);

    impl Tuple for R {
        fn heap_bytes(&self) -> u64 {
            32
        }
    }

    #[test]
    fn count_plan_emits_unit_contributions() {
        let q = Query::<R>::named("c")
            .flat_map(|r, out| out.push((r.0 % 4, 99)))
            .count();
        let mut out = Vec::new();
        q.explode(&R(6), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key(), 2);
        assert_eq!(out[0].count, 1, "count ignores the value");
    }

    #[test]
    fn sum_plan_accumulates_values() {
        let q = Query::<R>::named("s")
            .flat_map(|r, out| out.push((0, r.0)))
            .sum();
        let mut a = Vec::new();
        q.explode(&R(5), &mut a);
        let mut b = Vec::new();
        q.explode(&R(7), &mut b);
        let mut acc = a.pop().unwrap();
        acc.merge(&b.pop().unwrap());
        assert_eq!(q.finish(acc).value, 12);
    }

    #[test]
    fn collect_plan_applies_the_finisher() {
        let q = Query::<R>::named("max")
            .flat_map(|r, out| out.push((1, r.0)))
            .collect(|vals| vals.iter().copied().max().unwrap_or(0));
        let mut acc = Vec::new();
        q.explode(&R(3), &mut acc);
        let mut more = Vec::new();
        q.explode(&R(11), &mut more);
        let mut mid = acc.pop().unwrap();
        mid.merge(&more.pop().unwrap());
        let out = q.finish(mid);
        assert_eq!(out.value, 11);
    }

    #[test]
    fn flat_map_may_emit_many_or_none() {
        let q = Query::<R>::named("fan")
            .flat_map(|r, out| {
                for i in 0..r.0 {
                    out.push((i, 1));
                }
            })
            .count();
        let mut out = Vec::new();
        q.explode(&R(0), &mut out);
        assert!(out.is_empty());
        q.explode(&R(5), &mut out);
        assert_eq!(out.len(), 5);
    }
}
