//! Property tests over the generic aggregation machinery: fold order
//! must never matter, byte accounting must balance, and every app
//! spec's explode/finish pair must conserve its invariant quantity.

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use apps::agg::{AggSpec, AggState, MergeableTuple};
use apps::hyracks_apps::hj::JoinIn;
use apps::hyracks_apps::{gr::GrSpec, hj::HjSpec, hs::HsSpec, ii::IiSpec, wc::WcSpec};
use apps::hyracks_apps::{run_itask_spec, HyracksParams};
use apps::{CountMid, JoinMid, ListMid, StripeMid};
use itask_core::Tuple;
use workloads::tpch::{Customer, Order};
use workloads::webmap::AdjRecord;

/// Folds items through AggState, tracking the charge ledger.
fn fold_all<M: MergeableTuple>(items: Vec<M>) -> (Vec<M>, i64) {
    let mut state = AggState::new();
    let mut ledger = 0i64;
    for it in items {
        state
            .add(it, &mut |d| {
                ledger += d;
                Ok(())
            })
            .unwrap();
    }
    (state.drain(), ledger)
}

/// A flush's tuples and its `(bucket, len)` runs.
type Grouped<M> = (Vec<M>, Vec<(u32, u32)>);

/// Folds `mids` twice and drains one state grouped, the other the way
/// the ITask map flush used to: key-ordered drain, stable sort on the
/// bucket, one run per stretch of equal buckets.
fn both_drains<M: MergeableTuple>(
    mids: &[M],
    buckets: u32,
    bucket: impl Fn(u64) -> u32,
) -> (Grouped<M>, Grouped<M>) {
    let fold = || {
        let mut state = AggState::new();
        for m in mids {
            state.add(m.clone(), &mut |_| Ok(())).unwrap();
        }
        state
    };
    let grouped = fold().drain_grouped(buckets, &bucket);
    let mut tuples = fold().drain();
    tuples.sort_by_key(|m| bucket(m.key()));
    let runs = tuples
        .chunk_by(|a, b| bucket(a.key()) == bucket(b.key()))
        .map(|run| (bucket(run[0].key()), run.len() as u32))
        .collect();
    (grouped, (tuples, runs))
}

/// Key sets of size 0, 1 and up to a few thousand, over key ranges
/// narrow enough to repeat keys and wide enough to leave buckets empty.
fn flush_keys() -> impl Strategy<Value = Vec<u64>> {
    let key = || prop_oneof![0u64..50, 0u64..100_000, any::<u64>()];
    prop_oneof![
        1 => proptest::collection::vec(key(), 0..1),
        1 => proptest::collection::vec(key(), 1..2),
        6 => proptest::collection::vec(key(), 2..3000),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The grouped drain is the key-ordered drain stably sorted by
    /// bucket — tuple for tuple and run for run — under both bucket
    /// functions (modulo, and `hs`'s clamped range split, which puts
    /// every key past `vertices` in the last bucket), with a fixed-size
    /// and a variable-size accumulator, from one bucket to more buckets
    /// than keys.
    #[test]
    fn drain_grouped_equals_key_drain_stably_sorted_by_bucket(
        keys in flush_keys(),
        buckets in 1u32..=400,
        vertices in 1u64..200_000,
    ) {
        let counts: Vec<CountMid> = keys.iter().map(|&k| CountMid::one(k, 136)).collect();
        let lists: Vec<ListMid> =
            keys.iter().enumerate().map(|(i, &k)| ListMid::one(k, i as u64, 176, 40)).collect();
        let modulo = |k| WcSpec.bucket(k, buckets);
        let hs = HsSpec { vertices };
        let range = |k| hs.bucket(k, buckets);

        let (got, want) = both_drains(&counts, buckets, modulo);
        prop_assert_eq!(got, want);
        let (got, want) = both_drains(&counts, buckets, range);
        prop_assert_eq!(got, want);
        let (got, want) = both_drains(&lists, buckets, modulo);
        prop_assert_eq!(got, want);
        let (got, want) = both_drains(&lists, buckets, range);
        prop_assert_eq!(&got, &want);

        // The shape `ShuffleBatch::from_runs` asserts, in release too.
        let (tuples, runs) = got;
        prop_assert_eq!(runs.iter().map(|r| r.1 as usize).sum::<usize>(), tuples.len());
        prop_assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(runs.iter().all(|&(b, len)| b < buckets && len > 0));
    }
}

/// A counter spec whose `bucket` counts its own calls.
#[derive(Clone)]
struct CountingBuckets(Rc<Cell<u64>>);

impl AggSpec for CountingBuckets {
    type In = CountMid;
    type Mid = CountMid;
    type Out = CountMid;

    fn name(&self) -> &'static str {
        "counting-buckets"
    }

    fn explode(&self, rec: &CountMid, out: &mut Vec<CountMid>) {
        out.push(*rec);
    }

    fn finish(&self, mid: CountMid) -> CountMid {
        mid
    }

    fn bucket(&self, key: u64, buckets: u32) -> u32 {
        self.0.set(self.0.get() + 1);
        (key % buckets as u64) as u32
    }
}

/// The ITask map flush is linear in `bucket` evaluations: one ITask job
/// whose only input frame holds `n = 4096` distinct keys flushes them
/// once (nothing interrupts it under a 12 MiB heap) and may call
/// `bucket` at most `2 n = 8192` times. It calls it 4 096 times — once
/// per tuple. When the flush stably comparison-sorted the drain by
/// bucket it made 102 922 calls for this same job (`2 n log2 n` =
/// 98 304 from the comparator, the rest from the run scan) and fails
/// this bound.
#[test]
fn itask_map_flush_calls_bucket_at_most_twice_per_tuple() {
    const N: u64 = 4096;
    let calls = Rc::new(Cell::new(0));
    let params = HyracksParams::default();
    let mut inputs = vec![Vec::new(); apps::hyracks_apps::NODES];
    // Scrambled so neither the fold nor the drain sees sorted keys.
    inputs[0].push(
        (0..N)
            .map(|i| CountMid::one(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 136))
            .collect(),
    );
    let run = run_itask_spec(&CountingBuckets(calls.clone()), &params, inputs);
    let outs = run.result.expect("4096 counters fit a 12 MiB heap");
    assert_eq!(outs.len() as u64, N, "keys are distinct");
    assert!(
        calls.get() <= 2 * N,
        "{} bucket calls to flush {N} tuples",
        calls.get()
    );
}

proptest! {
    /// Counts: any permutation folds to the same result, and the ledger
    /// equals the drained entries' footprint.
    #[test]
    fn count_fold_is_order_insensitive(keys in proptest::collection::vec(0u64..50, 1..300)) {
        let mids: Vec<CountMid> = keys.iter().map(|&k| CountMid::one(k, 136)).collect();
        let mut rev = mids.clone();
        rev.reverse();
        let (a, ledger_a) = fold_all(mids);
        let (b, _) = fold_all(rev);
        prop_assert_eq!(a.clone(), b);
        let held: i64 = a.iter().map(|m| m.heap_bytes() as i64).sum();
        prop_assert_eq!(ledger_a, held);
        // Total count conserved.
        let total: u64 = a.iter().map(|m| m.count).sum();
        prop_assert_eq!(total, keys.len() as u64);
    }

    /// Lists: items conserved across folding, ledger balances.
    #[test]
    fn list_fold_conserves_items(pairs in proptest::collection::vec((0u64..20, 0u64..1000), 1..200)) {
        let mids: Vec<ListMid> =
            pairs.iter().map(|&(k, v)| ListMid::one(k, v, 176, 40)).collect();
        let (folded, ledger) = fold_all(mids);
        let total: usize = folded.iter().map(|m| m.items().len()).sum();
        prop_assert_eq!(total, pairs.len());
        let held: i64 = folded.iter().map(|m| m.heap_bytes() as i64).sum();
        prop_assert_eq!(ledger, held);
    }

    /// Stripes: pair observations conserved; cells unique per neighbour.
    #[test]
    fn stripe_fold_conserves_pairs(
        pairs in proptest::collection::vec((0u64..10, 0u32..30), 1..200)
    ) {
        let mids: Vec<StripeMid> =
            pairs.iter().map(|&(k, n)| StripeMid::pair(k, n, 196, 48)).collect();
        let (folded, ledger) = fold_all(mids);
        let total: u64 = folded
            .iter()
            .flat_map(|s| s.neighbors.values())
            .map(|&c| c as u64)
            .sum();
        prop_assert_eq!(total, pairs.len() as u64);
        let held: i64 = folded.iter().map(|m| m.heap_bytes() as i64).sum();
        prop_assert_eq!(ledger, held);
    }

    /// Joins: regardless of arrival order (build rows interleaved with
    /// probes), every probe joins exactly once once its build row is in.
    #[test]
    fn join_fold_joins_each_probe_once(
        probes in proptest::collection::vec((0u64..8, 1u64..1000), 1..150),
        build_first in any::<bool>(),
    ) {
        let sizes = (200, 64, 450);
        let mut mids: Vec<JoinMid> = Vec::new();
        let builds: Vec<JoinMid> =
            (0u64..8).map(|k| JoinMid::customer(k, k as u32, sizes)).collect();
        if build_first {
            mids.extend(builds.clone());
        }
        mids.extend(probes.iter().map(|&(k, p)| JoinMid::order(k, p, sizes)));
        if !build_first {
            mids.extend(builds);
        }
        let (folded, ledger) = fold_all(mids);
        let joined: u64 = folded.iter().map(|m| m.joined).sum();
        prop_assert_eq!(joined, probes.len() as u64);
        let pending: u64 = folded.iter().map(|m| m.pending).sum();
        prop_assert_eq!(pending, 0, "all probes must settle");
        let revenue: u64 = folded.iter().map(|m| m.revenue).sum();
        let expected: u64 = probes.iter().map(|&(_, p)| p).sum();
        prop_assert_eq!(revenue, expected);
        let held: i64 = folded.iter().map(|m| m.heap_bytes() as i64).sum();
        prop_assert_eq!(ledger, held);
    }

    /// WC explode emits one contribution per token, keyed in range.
    #[test]
    fn wc_explode_covers_all_tokens(
        vertex in 0u64..1000,
        neighbors in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let rec = AdjRecord { vertex, neighbors: neighbors.clone() };
        let mut out = Vec::new();
        WcSpec.explode(&rec, &mut out);
        prop_assert_eq!(out.len(), neighbors.len() + 1);
        let total: u64 = out.iter().map(|m| m.count).sum();
        prop_assert_eq!(total, (neighbors.len() + 1) as u64);
    }

    /// II explode emits exactly one posting per edge.
    #[test]
    fn ii_explode_covers_all_edges(
        vertex in 0u64..1000,
        neighbors in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let rec = AdjRecord { vertex, neighbors: neighbors.clone() };
        let mut out = Vec::new();
        IiSpec.explode(&rec, &mut out);
        prop_assert_eq!(out.len(), neighbors.len());
        for m in &out {
            prop_assert_eq!(m.items(), &[vertex]);
        }
    }

    /// GR's finish sums collected revenues exactly.
    #[test]
    fn gr_finish_sums_revenue(values in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut mid = ListMid::one(7, values[0], 176, 150);
        for &v in &values[1..] {
            mid.merge(&ListMid::one(7, v, 176, 150));
        }
        let out = GrSpec.finish(mid);
        prop_assert_eq!(out.key, 7);
        prop_assert_eq!(out.value, values.iter().sum::<u64>());
    }

    /// HJ spec buckets both sides of a key identically.
    #[test]
    fn hj_buckets_are_side_agnostic(key in 0u64..100_000, buckets in 1u32..512) {
        let c = JoinIn::C(Customer { custkey: key, nationkey: 1, acctbal: 0 });
        let o = JoinIn::O(Order { orderkey: 1, custkey: key, totalprice: 5, orderdate: 9000 });
        let mut out = Vec::new();
        HjSpec.explode(&c, &mut out);
        HjSpec.explode(&o, &mut out);
        let bc = HjSpec.bucket(out[0].key(), buckets);
        let bo = HjSpec.bucket(out[1].key(), buckets);
        prop_assert_eq!(bc, bo);
        prop_assert!(bc < buckets);
    }
}

/// Folds `steps`, each a contribution, its model and whether it is
/// folded borrowed, two ways. Entry by entry with `merge`, `agree`
/// compares each touched accumulator with its model after every step;
/// through [`AggState::add`], owned or borrowed, each step's charge must
/// equal the model's heap delta, and the drained state must equal the
/// entry-by-entry one.
fn fold_against_model<M, Model: Clone>(
    steps: &[(M, Model, bool)],
    merge_model: impl Fn(&mut Model, &Model),
    heap_model: impl Fn(&Model) -> u64,
    agree: impl Fn(&M, &Model) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError>
where
    M: MergeableTuple + PartialEq + std::fmt::Debug,
{
    let mut accs: BTreeMap<u64, (M, Model)> = BTreeMap::new();
    let mut state = AggState::new();
    for (c, model, borrowed) in steps {
        let key = c.key();
        let before = accs.get(&key).map_or(0, |(_, m)| heap_model(m)) as i64;
        let (acc, m) = match accs.entry(key) {
            Entry::Vacant(v) => v.insert((c.clone(), model.clone())),
            Entry::Occupied(o) => {
                let entry = o.into_mut();
                entry.0.merge(c);
                merge_model(&mut entry.1, model);
                entry
            }
        };
        agree(acc, m)?;
        let mut charged = 0i64;
        let mut ledger = |d| {
            charged += d;
            Ok(())
        };
        if *borrowed {
            state.add(c, &mut ledger).unwrap();
        } else {
            state.add(c.clone(), &mut ledger).unwrap();
        }
        prop_assert_eq!(charged, heap_model(m) as i64 - before);
    }
    let drained = state.drain();
    prop_assert_eq!(drained.len(), accs.len());
    for (got, (acc, m)) in drained.iter().zip(accs.values()) {
        prop_assert_eq!(got, acc);
        agree(got, m)?;
    }
    Ok(())
}

/// The `JoinMid` of before probes became a count and a sum: a cell that
/// kept every pending probe's price in a `Vec`.
#[derive(Clone, Debug, Default)]
struct VecProbeJoin {
    nation: Option<u32>,
    pending: Vec<u64>,
    joined: u64,
    revenue: u64,
}

impl VecProbeJoin {
    const SIZES: (u32, u32, u32) = (200, 64, 450);

    fn merge(&mut self, other: &Self) {
        self.nation = self.nation.or(other.nation);
        self.pending.extend(&other.pending);
        self.joined += other.joined;
        self.revenue += other.revenue;
        if self.nation.is_some() {
            for p in self.pending.drain(..) {
                self.joined += 1;
                self.revenue += p;
            }
        }
    }

    fn heap_bytes(&self) -> u64 {
        let (cell, pending, joined) = Self::SIZES;
        cell as u64 + self.pending.len() as u64 * pending as u64 + self.joined * joined as u64
    }

    fn ser_bytes(&self) -> u64 {
        24 + 8 * self.pending.len() as u64 + 16 * self.joined
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `ListMid` keeps a lone value inline and moves to a `Vec` on its
    /// first merge; under any sequence of owned and borrowed folds of
    /// one- and many-value partials its `items()`, `heap_bytes()` and
    /// `ser_bytes()` are a plain `Vec<u64>`'s at every step.
    #[test]
    fn list_mid_matches_a_vec_model(
        folds in proptest::collection::vec(
            (0u64..6, proptest::collection::vec(0u64..1000, 1..5), any::<bool>()),
            1..150,
        ),
    ) {
        let (entry, item) = (176u32, 40u32);
        let steps: Vec<(ListMid, Vec<u64>, bool)> = folds
            .into_iter()
            .map(|(key, values, borrowed)| {
                let mut partial = ListMid::one(key, values[0], entry, item);
                for &v in &values[1..] {
                    partial.merge(&ListMid::one(key, v, entry, item));
                }
                (partial, values, borrowed)
            })
            .collect();
        fold_against_model(
            &steps,
            |m, more| m.extend(more),
            |m| entry as u64 + m.len() as u64 * item as u64,
            |acc, m| {
                prop_assert_eq!(acc.items(), m.as_slice());
                prop_assert_eq!(acc.heap_bytes(), entry as u64 + m.len() as u64 * item as u64);
                prop_assert_eq!(acc.ser_bytes(), 12 + 8 * m.len() as u64);
                Ok(())
            },
        )?;
    }

    /// `JoinMid`'s pending probes are a count and a sum; under any
    /// sequence of owned and borrowed folds of partials mixing probes
    /// and build rows, its `joined`, `revenue`, `heap_bytes()` and
    /// `ser_bytes()` are those of the cell that kept the probes in a
    /// `Vec`, at every step.
    #[test]
    fn join_mid_matches_the_vec_of_probes_model(
        folds in proptest::collection::vec(
            (0u64..6, proptest::collection::vec((any::<bool>(), 1u64..1000), 1..4), any::<bool>()),
            1..150,
        ),
    ) {
        let sizes = VecProbeJoin::SIZES;
        let atom = |key, (build, v): (bool, u64)| {
            if build {
                let nation = v as u32;
                let row = VecProbeJoin { nation: Some(nation), ..Default::default() };
                (JoinMid::customer(key, nation, sizes), row)
            } else {
                let row = VecProbeJoin { pending: vec![v], ..Default::default() };
                (JoinMid::order(key, v, sizes), row)
            }
        };
        let steps: Vec<(JoinMid, VecProbeJoin, bool)> = folds
            .into_iter()
            .map(|(key, atoms, borrowed)| {
                let (mut partial, mut model) = atom(key, atoms[0]);
                for &a in &atoms[1..] {
                    let (more, more_model) = atom(key, a);
                    partial.merge(&more);
                    model.merge(&more_model);
                }
                (partial, model, borrowed)
            })
            .collect();
        fold_against_model(&steps, VecProbeJoin::merge, VecProbeJoin::heap_bytes, |acc, m| {
            prop_assert_eq!(acc.joined, m.joined);
            prop_assert_eq!(acc.revenue, m.revenue);
            prop_assert_eq!(acc.pending, m.pending.len() as u64);
            prop_assert_eq!(acc.heap_bytes(), m.heap_bytes());
            prop_assert_eq!(acc.ser_bytes(), m.ser_bytes());
            Ok(())
        })?;
    }
}
