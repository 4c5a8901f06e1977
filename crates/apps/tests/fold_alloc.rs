//! The fold allocates nothing per tuple unless a list grows. A map
//! task's one-value contributions (`ListMid::one`, `JoinMid::order`,
//! `JoinMid::customer`) own no heap buffer, and a reduce or merge task
//! folds the partial at its partition's cursor by reference: it clones
//! one only when the key is new, never to merge it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::agg::AggState;
use apps::{CountMid, JoinMid, ListMid, MergeableTuple};

thread_local! {
    /// This thread's count while it measures, `None` otherwise. The
    /// count is per thread because the tests run side by side.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts `alloc` calls. A `Vec` growth is one too: `GlobalAlloc`'s
/// provided `realloc` allocates the new block through `alloc`.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get().map(|n| n + 1)));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = std::hint::black_box(f());
    let n = ALLOCS
        .with(|n| n.take())
        .expect("counting since the start of f");
    (n, out)
}

const SIZES: (u32, u32, u32) = (200, 64, 450);

#[test]
fn map_side_contributions_allocate_nothing() {
    let (n, list) = allocs(|| ListMid::one(1, 7, 176, 40));
    assert_eq!(n, 0, "ListMid::one");
    assert_eq!(list.items(), &[7]);
    let (n, _) = allocs(|| JoinMid::order(1, 100, SIZES));
    assert_eq!(n, 0, "JoinMid::order");
    let (n, _) = allocs(|| JoinMid::customer(1, 3, SIZES));
    assert_eq!(n, 0, "JoinMid::customer");
}

/// A two-value list partial.
fn two(key: u64, a: u64, b: u64) -> ListMid {
    let mut p = ListMid::one(key, a, 176, 40);
    p.merge(&ListMid::one(key, b, 176, 40));
    p
}

/// A reduce task's partition: `KEYS` partials of each kind, every one
/// already present in the state it is folded into. The lists already
/// have room for the values merged in, so only a copy of the partial
/// could allocate.
#[test]
fn borrowed_partials_fold_into_occupied_entries_without_allocating() {
    const KEYS: u64 = 1_000;
    let mut counts = AggState::new();
    let mut joins = AggState::new();
    let mut lists = AggState::new();
    for k in 0..KEYS {
        counts.add(CountMid::one(k, 136), &mut |_| Ok(())).unwrap();
        joins
            .add(JoinMid::order(k, k, SIZES), &mut |_| Ok(()))
            .unwrap();
        // Five values in eight slots: `Vec`'s growth from four.
        lists
            .add(ListMid::one(k, 0, 176, 40), &mut |_| Ok(()))
            .unwrap();
        lists.add(two(k, 1, 2), &mut |_| Ok(())).unwrap();
        lists.add(two(k, 3, 4), &mut |_| Ok(())).unwrap();
    }
    let count_partials: Vec<CountMid> = (0..KEYS)
        .map(|k| CountMid {
            key: k,
            count: 5,
            entry_bytes: 136,
        })
        .collect();
    // Probes pending on one partial, a build row on the next.
    let join_partials: Vec<JoinMid> = (0..KEYS)
        .map(|k| {
            let mut p = JoinMid::order(k, 10, SIZES);
            p.merge(&JoinMid::order(k, 20, SIZES));
            if k % 2 == 1 {
                p.merge(&JoinMid::customer(k, 4, SIZES));
            }
            p
        })
        .collect();
    let list_partials: Vec<ListMid> = (0..KEYS).map(|k| two(k, 5, 6)).collect();

    let (n, ()) = allocs(|| {
        for p in &count_partials {
            counts.add(p, &mut |_| Ok(())).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "{KEYS} borrowed CountMid partials into occupied entries"
    );
    let (n, ()) = allocs(|| {
        for p in &join_partials {
            joins.add(p, &mut |_| Ok(())).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "{KEYS} borrowed JoinMid partials into occupied entries"
    );

    let (n, ()) = allocs(|| {
        for p in &list_partials {
            lists.add(p, &mut |_| Ok(())).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "{KEYS} borrowed two-value ListMid partials into lists with room"
    );

    let counted: u64 = counts.drain().iter().map(|m| m.count).sum();
    assert_eq!(counted, KEYS * 6);
    let joined = joins.drain();
    let probes: u64 = joined.iter().map(|m| m.joined + m.pending).sum();
    assert_eq!(probes, KEYS * 3, "one probe per key, two per partial");
    assert!(lists
        .drain()
        .iter()
        .all(|m| m.items() == [0, 1, 2, 3, 4, 5, 6]));
}

/// 10 000 single-value contributions over 2 500 keys, four per key: the
/// first value of a key stays inline and its second merge allocates the
/// list, which the third and fourth fit. What else may allocate is the
/// hash map's own growth, a doubling at a time.
#[test]
fn single_item_lists_allocate_one_list_per_key() {
    const KEYS: u64 = 2_500;
    const TUPLES: u64 = 10_000;
    let (n, mut state) = allocs(|| {
        let mut state = AggState::new();
        for i in 0..TUPLES {
            state
                .add(ListMid::one(i % KEYS, i, 176, 40), &mut |_| Ok(()))
                .unwrap();
        }
        state
    });
    let map_growth = 64 - KEYS.leading_zeros() as u64 + 2;
    assert!(
        n <= KEYS + map_growth,
        "{n} allocations to fold {TUPLES} one-value lists over {KEYS} keys"
    );
    let lists = state.drain();
    assert_eq!(lists.len() as u64, KEYS);
    assert_eq!(lists[3].items(), &[3, 2_503, 5_003, 7_503]);
}
