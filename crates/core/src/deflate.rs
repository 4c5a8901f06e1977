//! IRS hooks for long-lived *applied* state (paper §5.2 carried over to
//! replicated state machines).
//!
//! A batch job's intermediate partitions can be interrupted and retired
//! wholesale — the REDUCE path serializes them and the task re-reads the
//! bytes later. An SMR node's aggregation state is different: it lives
//! for the whole run and every future command may touch it, so the
//! runtime cannot retire it. Instead it **deflates** it — spills a slice
//! of the live set into serialized form and frees the heap bytes —
//! before the old generation fills and the next full collection turns
//! into a tail-latency cliff.
//!
//! Two policies are expressed here:
//!
//! * reactive: [`StateGuard::poll`] feeds GC records through the IRS
//!   [`Monitor`] and converts REDUCE signals (and hover-target deficits)
//!   into deflation byte counts;
//! * predictive: [`predicted_full_pause`] prices the *next* full
//!   collection from current occupancy, so an election-aware runtime can
//!   keep the leader's worst pause under its heartbeat timeout.

use simcore::{cost, ByteSize, CostModel, SimDuration};
use simmem::{GcRecord, Heap};

use crate::monitor::{MemSignal, Monitor};

/// Per-node deflation guard: wraps the IRS [`Monitor`] and turns its
/// signals into deflation targets for applied state.
#[derive(Clone, Debug)]
pub struct StateGuard {
    monitor: Monitor,
}

impl StateGuard {
    /// Creates a guard whose monitor hovers at `serialize_free_pct`
    /// percent free.
    ///
    /// For latency-SLO state machines, `serialize_free_pct` doubles as
    /// the *hover* target: the guard asks for deflation whenever
    /// effective free memory sinks below it, which bounds the live set
    /// — and with it the worst full-collection pause — long before the
    /// LUGC detector would fire.
    pub fn new(serialize_free_pct: u8) -> Self {
        StateGuard {
            monitor: Monitor::new(serialize_free_pct),
        }
    }

    /// Observes a window's GC records and the current heap state;
    /// returns the bytes of applied state to deflate, if any.
    ///
    /// A REDUCE signal (an LUGC) asks for enough to
    /// lift effective free memory to the hover target; otherwise a
    /// hover-target deficit alone asks for the shortfall. `None` means
    /// the heap has slack and the state should be left inflated.
    pub fn poll(&mut self, records: &[GcRecord], heap: &Heap) -> Option<ByteSize> {
        let signal = self.monitor.observe(records, heap);
        let deficit = self.hover_deficit(heap);
        match signal {
            MemSignal::Reduce => Some(deficit.max(self.monitor.reduce_target(heap))),
            _ if !deficit.is_zero() => Some(deficit),
            _ => None,
        }
    }

    /// Bytes of deflation needed to lift effective free memory to the
    /// hover (background-serialization) target; zero when already there.
    pub fn hover_deficit(&self, heap: &Heap) -> ByteSize {
        self.monitor
            .serialize_target(heap)
            .saturating_sub(heap.effective_free())
    }
}

/// The pause the *next* full collection would cost at the heap's current
/// occupancy. Election-aware runtimes compare this against their
/// heartbeat timeout and deflate the leader pre-emptively when a
/// collection could outlast it.
pub fn predicted_full_pause(heap: &Heap) -> SimDuration {
    CostModel::full_gc_pause(heap.live(), heap.used())
}

/// Live bytes the heap may hold if the next full collection must stay
/// under `budget`. Zero when even an empty heap would blow the budget.
pub fn live_budget_for_pause(heap: &Heap, budget: SimDuration) -> ByteSize {
    let fixed = CostModel::full_gc_pause(ByteSize::ZERO, heap.used());
    let headroom = budget.saturating_sub(fixed).as_nanos();
    ByteSize((headroom as f64 / cost::GC_FULL_NS_PER_LIVE_BYTE) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::SERIALIZE_FREE_PCT;
    use simcore::SimTime;
    use simmem::HeapConfig;

    /// A heap holding `live_kib` of applied state in one space.
    fn heap_with_blob(cap_kib: u64, live_kib: u64) -> (Heap, simcore::SpaceId) {
        let mut h = Heap::new(HeapConfig::with_capacity(ByteSize::kib(cap_kib)));
        let blob = h.create_space("blob");
        h.alloc(blob, ByteSize::kib(live_kib), SimTime::ZERO)
            .unwrap();
        (h, blob)
    }

    #[test]
    fn slack_heap_asks_for_nothing() {
        let (heap, _) = heap_with_blob(1000, 100);
        let mut g = StateGuard::new(SERIALIZE_FREE_PCT);
        assert_eq!(g.poll(&[], &heap), None);
    }

    #[test]
    fn hover_deficit_requests_the_shortfall() {
        let (heap, _) = heap_with_blob(1000, 700); // 30% free < 40% hover
        let mut g = StateGuard::new(SERIALIZE_FREE_PCT);
        let ask = g.poll(&[], &heap).expect("hover deficit");
        assert_eq!(ask, ByteSize::kib(100));
    }

    #[test]
    fn deflating_restores_the_hover_target() {
        let (mut heap, blob) = heap_with_blob(1000, 700);
        let mut g = StateGuard::new(SERIALIZE_FREE_PCT);
        let ask = g.poll(&[], &heap).unwrap();
        let freed = heap.free(blob, ask);
        assert_eq!(freed, ask);
        assert_eq!(g.hover_deficit(&heap), ByteSize::ZERO);
        assert_eq!(g.poll(&[], &heap), None);
    }

    #[test]
    fn pause_prediction_shrinks_with_deflation() {
        let (mut heap, blob) = heap_with_blob(1000, 900);
        let before = predicted_full_pause(&heap);
        heap.free(blob, ByteSize::kib(600));
        assert!(predicted_full_pause(&heap) < before);
    }

    #[test]
    fn live_budget_inverts_the_pause_model() {
        let (heap, _) = heap_with_blob(1000, 900);
        let budget = SimDuration::from_millis(2);
        let allowed = live_budget_for_pause(&heap, budget);
        let pause = CostModel::full_gc_pause(allowed, heap.used());
        assert!(pause <= budget + SimDuration::from_nanos(2));
    }
}
