//! Literal fence on the testbed prices.
//!
//! Every virtual nanosecond the simulator charges comes from one of these
//! prices, so each is pinned as literal nanoseconds at seven byte counts
//! from zero to 2^40. A refactor of the cost model must leave every
//! number here where it is; only the call syntax may change.

use itask_core::{live_budget_for_pause, predicted_full_pause};
use simcore::{ByteSize, CostModel, SimDuration, SimTime};
use simmem::{Heap, HeapConfig};

const SIZES: [u64; 7] = [0, 1, 64, 8 << 10, 128 << 10, 1 << 20, 1 << 40];

fn at_every_size(price: impl Fn(ByteSize) -> SimDuration) -> [u64; 7] {
    SIZES.map(|b| price(ByteSize(b)).as_nanos())
}

#[test]
fn tuple_cost() {
    assert_eq!(
        at_every_size(CostModel::tuple_cost),
        [120, 121, 184, 8312, 131192, 1048696, 1099511627896]
    );
}

#[test]
fn minor_gc_pause() {
    assert_eq!(
        at_every_size(CostModel::minor_gc_pause),
        [30000, 30001, 30032, 34096, 95536, 554288, 549755843888]
    );
}

#[test]
fn full_gc_pause() {
    // Live and used bytes priced together, then the used-bytes term alone.
    assert_eq!(
        at_every_size(|b| CostModel::full_gc_pause(b, b)),
        [
            150000,
            150001,
            150072,
            159175,
            296801,
            1324405,
            1231453173109
        ]
    );
    assert_eq!(
        at_every_size(|b| CostModel::full_gc_pause(ByteSize::ZERO, b)),
        [150000, 150000, 150008, 150983, 165729, 275829, 131941545333]
    );
}

#[test]
fn disk_write() {
    assert_eq!(
        at_every_size(CostModel::disk_write),
        [
            100000,
            100002,
            100153,
            119531,
            412500,
            2600000,
            2621440100000
        ]
    );
}

#[test]
fn disk_read() {
    assert_eq!(
        at_every_size(CostModel::disk_read),
        [
            100000,
            100002,
            100122,
            115625,
            350000,
            2100000,
            2097152100000
        ]
    );
}

#[test]
fn serialize_cpu() {
    assert_eq!(
        at_every_size(CostModel::serialize_cpu),
        [0, 1, 51, 6554, 104858, 838861, 879609302221]
    );
}

#[test]
fn deserialize_cpu() {
    assert_eq!(
        at_every_size(CostModel::deserialize_cpu),
        [0, 1, 90, 11469, 183501, 1468006, 1539316278886]
    );
}

#[test]
fn net_transfer() {
    assert_eq!(
        at_every_size(CostModel::net_transfer),
        [50000, 50001, 50049, 56250, 150000, 850000, 838860850000]
    );
}

/// A 1 MiB heap holding 600 KiB live and 100 KiB of garbage.
fn fixed_heap() -> Heap {
    let mut heap = Heap::new(HeapConfig::with_capacity(ByteSize::mib(1)));
    let space = heap.create_space("state");
    heap.alloc(space, ByteSize::kib(700), SimTime::ZERO)
        .expect("700 KiB fits a 1 MiB heap");
    heap.free(space, ByteSize::kib(100));
    heap
}

#[test]
fn pause_prediction_on_a_fixed_heap() {
    let heap = fixed_heap();
    assert_eq!(
        (heap.live().as_u64(), heap.used().as_u64()),
        (614_400, 716_800)
    );
    assert_eq!(predicted_full_pause(&heap).as_nanos(), 850_416);
    let budgets = [0, 100_000, 500_000, 2_000_000, 1 << 40];
    assert_eq!(
        budgets.map(|ns| { live_budget_for_pause(&heap, SimDuration::from_nanos(ns)).as_u64() }),
        [0, 0, 263_984, 1_763_984, 1_099_511_391_760]
    );
}
