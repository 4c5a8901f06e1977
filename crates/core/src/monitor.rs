//! The IRS monitor (paper §5.2): watches GC behaviour and tells the
//! scheduler when to shrink (`REDUCE`) or grow (`GROW`) the set of
//! running task instances.

use simcore::ByteSize;
use simmem::{GcRecord, Heap, LUGC_FREE_PCT};

/// A signal from the monitor to the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSignal {
    /// A long-and-useless GC was observed: serialize and interrupt until
    /// free memory rises above `M%` of the heap.
    Reduce,
    /// Free memory is at or above `N%` of the heap: more instances fit.
    Grow,
    /// Neither threshold crossed.
    Steady,
}

/// `N`: grow when free heap is at least this percentage of capacity
/// (the paper's value, 20).
const GROW_FREE_PCT: u64 = 20;

/// The batch jobs' background-serialization hover target, percent of
/// capacity effectively free.
pub(crate) const SERIALIZE_FREE_PCT: u8 = 40;

/// Monitor statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorStats {
    /// REDUCE signals sent.
    pub reduce_signals: u64,
    /// GROW signals sent.
    pub grow_signals: u64,
    /// LUGCs observed.
    pub lugcs_seen: u64,
}

/// The monitor itself. The paper's thresholds are fixed: grow at `N` =
/// 20% free, and a REDUCE restores `M` = [`LUGC_FREE_PCT`], the same
/// line below which the heap records a full collection as useless.
#[derive(Clone, Debug)]
pub struct Monitor {
    /// Background-serialization hover target: parked intermediate
    /// partitions are written behind until effective free memory reaches
    /// this percentage of capacity, keeping the old generation slack so
    /// full collections stay rare (the "safe zone" of the paper's
    /// Figure 3).
    serialize_free_pct: u8,
    stats: MonitorStats,
    /// The most recent signal emitted by [`Monitor::observe`]. External
    /// policies (e.g. a service admission controller) read this without
    /// perturbing the stats.
    last_signal: Option<MemSignal>,
}

impl Monitor {
    /// Creates a monitor hovering at `serialize_free_pct` percent free.
    pub fn new(serialize_free_pct: u8) -> Self {
        Monitor {
            serialize_free_pct,
            stats: MonitorStats::default(),
            last_signal: None,
        }
    }

    /// The most recent signal emitted, if any observation has happened.
    pub fn last_signal(&self) -> Option<MemSignal> {
        self.last_signal
    }

    /// Statistics so far.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// The absolute free-byte target a REDUCE aims for (`M%`).
    pub fn reduce_target(&self, heap: &Heap) -> ByteSize {
        heap.capacity().mul_ratio(LUGC_FREE_PCT, 100)
    }

    /// The absolute free-byte threshold for growth (`N%`).
    pub fn grow_threshold(&self, heap: &Heap) -> ByteSize {
        heap.capacity().mul_ratio(GROW_FREE_PCT, 100)
    }

    /// The background-serialization hover target.
    pub fn serialize_target(&self, heap: &Heap) -> ByteSize {
        heap.capacity()
            .mul_ratio(self.serialize_free_pct as u64, 100)
    }

    /// Digests the GC records observed since the last call plus the
    /// current heap state, and emits a signal.
    pub fn observe(&mut self, records: &[GcRecord], heap: &Heap) -> MemSignal {
        let lugcs = records.iter().filter(|r| r.useless).count() as u64;
        self.stats.lugcs_seen += lugcs;
        let signal = if lugcs > 0 {
            self.stats.reduce_signals += 1;
            MemSignal::Reduce
        } else if heap.effective_free() >= self.grow_threshold(heap) {
            self.stats.grow_signals += 1;
            MemSignal::Grow
        } else {
            MemSignal::Steady
        };
        self.last_signal = Some(signal);
        signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimDuration, SimTime};
    use simmem::{GcKind, HeapConfig};

    fn heap_with_live(capacity_kib: u64, live_kib: u64) -> Heap {
        let mut h = Heap::new(HeapConfig::with_capacity(ByteSize::kib(capacity_kib)));
        let s = h.create_space("x");
        if live_kib > 0 {
            h.alloc(s, ByteSize::kib(live_kib), SimTime::ZERO).unwrap();
        }
        h
    }

    fn lugc() -> GcRecord {
        GcRecord {
            at: SimTime::ZERO,
            kind: GcKind::Full,
            used_before: ByteSize::kib(95),
            used_after: ByteSize::kib(95),
            free_after: ByteSize::kib(5),
            pause: SimDuration::from_millis(1),
            useless: true,
        }
    }

    #[test]
    fn lugc_triggers_reduce() {
        let mut m = Monitor::new(SERIALIZE_FREE_PCT);
        let heap = heap_with_live(100, 95);
        assert_eq!(m.observe(&[lugc()], &heap), MemSignal::Reduce);
        assert_eq!(m.stats().reduce_signals, 1);
        assert_eq!(m.stats().lugcs_seen, 1);
    }

    #[test]
    fn ample_free_memory_triggers_grow() {
        let mut m = Monitor::new(SERIALIZE_FREE_PCT);
        let heap = heap_with_live(100, 10); // 90% free >= 20%
        assert_eq!(m.observe(&[], &heap), MemSignal::Grow);
        assert_eq!(m.stats().grow_signals, 1);
    }

    #[test]
    fn middling_occupancy_is_steady() {
        let mut m = Monitor::new(SERIALIZE_FREE_PCT);
        let heap = heap_with_live(100, 85); // 15% free: between M and N
        assert_eq!(m.observe(&[], &heap), MemSignal::Steady);
    }

    #[test]
    fn last_signal_mirrors_the_latest_observation() {
        let mut m = Monitor::new(SERIALIZE_FREE_PCT);
        assert_eq!(m.last_signal(), None);
        let tight = heap_with_live(100, 95);
        m.observe(&[lugc()], &tight);
        assert_eq!(m.last_signal(), Some(MemSignal::Reduce));
        let roomy = heap_with_live(100, 10);
        m.observe(&[], &roomy);
        assert_eq!(m.last_signal(), Some(MemSignal::Grow));
    }

    #[test]
    fn thresholds_scale_with_capacity() {
        let m = Monitor::new(SERIALIZE_FREE_PCT);
        let heap = heap_with_live(1000, 0);
        assert_eq!(m.reduce_target(&heap), ByteSize::kib(100));
        assert_eq!(m.grow_threshold(&heap), ByteSize::kib(200));
    }
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use simmem::HeapConfig;

    #[test]
    fn serialize_target_sits_between_m_and_capacity() {
        let m = Monitor::new(SERIALIZE_FREE_PCT);
        let heap = Heap::new(HeapConfig::with_capacity(ByteSize::kib(1000)));
        let reduce = m.reduce_target(&heap);
        let grow = m.grow_threshold(&heap);
        let ser = m.serialize_target(&heap);
        assert!(reduce < grow, "M% < N%");
        assert!(grow < ser, "the hover target overshoots the grow gate");
        assert_eq!(ser, ByteSize::kib(400));
    }

    #[test]
    fn custom_thresholds_are_respected() {
        let m = Monitor::new(55);
        let heap = Heap::new(HeapConfig::with_capacity(ByteSize::kib(200)));
        assert_eq!(m.grow_threshold(&heap), ByteSize::kib(40));
        assert_eq!(m.reduce_target(&heap), ByteSize::kib(20));
        assert_eq!(m.serialize_target(&heap), ByteSize::kib(110));
    }
}
