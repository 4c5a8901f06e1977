//! Job reports: everything the tables and figures are computed from.

use std::collections::BTreeMap;

use simcore::{ByteSize, NodeId, SimDuration, SimError};

/// How a job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Crashed (usually with an OME).
    Failed(SimError),
}

impl JobOutcome {
    /// Whether the job completed.
    pub fn ok(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }

    /// Whether the job died of memory exhaustion.
    pub fn is_oom(&self) -> bool {
        matches!(self, JobOutcome::Failed(e) if e.is_oom())
    }
}

/// Per-node accounting extracted at the end of a run.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// The node's clock at the end of the run.
    pub elapsed: SimDuration,
    /// Total stop-the-world GC time.
    pub gc_time: SimDuration,
    /// Wall-clock compute time (excludes GC).
    pub compute_time: SimDuration,
    /// Wall-clock time stalled on blocking disk reads.
    pub io_stall_time: SimDuration,
    /// Heap high-water mark.
    pub peak_heap: ByteSize,
    /// Minor collections.
    pub minor_gcs: u64,
    /// Full collections.
    pub full_gcs: u64,
    /// Collections flagged useless (LUGCs).
    pub useless_gcs: u64,
}

/// The result of one job execution.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Completed or failed.
    pub outcome: JobOutcome,
    /// End-to-end job time (the slowest node's clock).
    pub elapsed: SimDuration,
    /// Per-node details.
    pub nodes: Vec<NodeReport>,
    /// Free-form named counters (memory-savings breakdown, tuple counts,
    /// interrupt counts, ...). Keys are stable strings used by harnesses.
    pub counters: BTreeMap<String, f64>,
}

impl JobReport {
    /// GC time on the slowest node (what a stacked time-breakdown bar
    /// shows for the job).
    pub fn critical_path_gc(&self) -> SimDuration {
        self.nodes
            .iter()
            .max_by_key(|n| n.elapsed)
            .map(|n| n.gc_time)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Fraction of end-to-end time spent in GC on the slowest node.
    pub fn gc_fraction(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.critical_path_gc().as_secs_f64() / self.elapsed.as_secs_f64()
    }

    /// The highest per-node heap peak (Figure 10's "peak memory" line).
    pub fn peak_heap(&self) -> ByteSize {
        self.nodes
            .iter()
            .map(|n| n.peak_heap)
            .max()
            .unwrap_or(ByteSize::ZERO)
    }

    /// Total LUGCs observed.
    pub fn useless_gcs(&self) -> u64 {
        self.nodes.iter().map(|n| n.useless_gcs).sum()
    }

    /// Reads a counter (0.0 if absent).
    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Adds to a counter.
    pub fn bump_counter(&mut self, key: &str, by: f64) {
        *self.counters.entry(key.to_string()).or_insert(0.0) += by;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_report(id: u32, elapsed_s: u64, gc_s: u64, peak_mib: u64) -> NodeReport {
        NodeReport {
            node: NodeId(id),
            elapsed: SimDuration::from_secs(elapsed_s),
            gc_time: SimDuration::from_secs(gc_s),
            compute_time: SimDuration::from_secs(elapsed_s - gc_s),
            io_stall_time: SimDuration::ZERO,
            peak_heap: ByteSize::mib(peak_mib),
            minor_gcs: 2,
            full_gcs: 1,
            useless_gcs: if gc_s > 5 { 3 } else { 0 },
        }
    }

    #[test]
    fn aggregates_follow_the_slowest_node() {
        let report = JobReport {
            outcome: JobOutcome::Completed,
            elapsed: SimDuration::from_secs(20),
            nodes: vec![node_report(0, 10, 2, 5), node_report(1, 20, 10, 9)],
            counters: BTreeMap::new(),
        };
        assert_eq!(report.critical_path_gc(), SimDuration::from_secs(10));
        assert!((report.gc_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(report.peak_heap(), ByteSize::mib(9));
        assert_eq!(report.useless_gcs(), 3);
    }

    #[test]
    fn outcome_classification() {
        assert!(JobOutcome::Completed.ok());
        let oom = JobOutcome::Failed(SimError::OutOfMemory {
            node: NodeId(0),
            requested: ByteSize(1),
            free: ByteSize(0),
        });
        assert!(oom.is_oom());
        assert!(!oom.ok());
        let other = JobOutcome::Failed(SimError::Config("x".into()));
        assert!(!other.is_oom());
    }

    #[test]
    fn counters_default_to_zero() {
        let mut r = JobReport {
            outcome: JobOutcome::Completed,
            elapsed: SimDuration::ZERO,
            nodes: vec![],
            counters: BTreeMap::new(),
        };
        assert_eq!(r.counter("missing"), 0.0);
        r.bump_counter("x", 2.0);
        r.bump_counter("x", 3.0);
        assert_eq!(r.counter("x"), 5.0);
        assert_eq!(r.gc_fraction(), 0.0);
    }
}
