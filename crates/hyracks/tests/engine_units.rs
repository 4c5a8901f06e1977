//! Engine-level unit tests: framing, block distribution and shuffle
//! routing invariants.

use hyracks::{chunk_by, chunk_into_frames, distribute_blocks};
use itask_core::Tuple;
use simcore::ByteSize;

#[derive(Clone, Copy, Debug, PartialEq)]
struct T(u64);

impl Tuple for T {
    fn heap_bytes(&self) -> u64 {
        self.0 * 3
    }

    fn ser_bytes(&self) -> u64 {
        self.0
    }
}

#[test]
fn frames_respect_granularity_and_preserve_order() {
    let records: Vec<T> = (1..=100).map(T).collect();
    let frames = chunk_into_frames(records.clone(), ByteSize(500));
    // Serialized payload per frame stays under the cap...
    for f in &frames {
        let ser: u64 = f.iter().map(Tuple::ser_bytes).sum();
        assert!(ser <= 500 || f.len() == 1, "frame ser {ser}");
    }
    // ...and concatenation reproduces the input exactly.
    let flat: Vec<T> = frames.into_iter().flatten().collect();
    assert_eq!(flat, records);
}

#[test]
fn chunk_by_measures_with_the_size_it_is_given() {
    let records: Vec<T> = (1..=100).map(T).collect();
    let frames = chunk_by(records.clone(), ByteSize(1500), Tuple::heap_bytes);
    for f in &frames {
        let heap: u64 = f.iter().map(Tuple::heap_bytes).sum();
        assert!(heap <= 1500 || f.len() == 1, "frame heap {heap}");
    }
    // Measured by ser_bytes, the same cap packs three times as much.
    let by_ser = chunk_by(records.clone(), ByteSize(1500), Tuple::ser_bytes);
    assert!(frames.len() > by_ser.len());
    assert_eq!(by_ser, chunk_into_frames(records.clone(), ByteSize(1500)));
    let flat: Vec<T> = frames.into_iter().flatten().collect();
    assert_eq!(flat, records);
}

#[test]
fn oversized_single_records_get_their_own_frame() {
    let frames = chunk_into_frames(vec![T(10), T(5000), T(10)], ByteSize(100));
    assert_eq!(frames.len(), 3);
    assert_eq!(frames[1], vec![T(5000)]);
}

#[test]
fn empty_input_produces_no_frames() {
    let frames = chunk_into_frames(Vec::<T>::new(), ByteSize(100));
    assert!(frames.is_empty());
}

#[test]
fn blocks_distribute_round_robin_and_conserve_tuples() {
    let blocks: Vec<Vec<T>> = (0..10).map(|b| vec![T(b + 1); 5]).collect();
    let per_node = distribute_blocks(3, blocks, ByteSize(1000));
    assert_eq!(per_node.len(), 3);
    let total: usize = per_node.iter().flatten().map(Vec::len).sum();
    assert_eq!(total, 50);
    // Every node received work.
    for node in &per_node {
        assert!(!node.is_empty());
    }
}

#[test]
fn single_node_gets_everything() {
    let blocks: Vec<Vec<T>> = vec![vec![T(1); 7], vec![T(2); 3]];
    let per_node = distribute_blocks(1, blocks, ByteSize(10_000));
    assert_eq!(per_node.len(), 1);
    let total: usize = per_node[0].iter().map(Vec::len).sum();
    assert_eq!(total, 10);
}

mod empty_and_skewed_inputs {
    use super::T;
    use hyracks::{run_regular, JobSpec, OpCx, Operator};
    use simcluster::{Cluster, ClusterConfig};
    use simcore::{ByteSize, SimResult};

    /// Sums everything into bucket 0.
    #[derive(Default)]
    struct Sum(u64);

    impl Operator for Sum {
        type In = T;
        type Out = T;

        fn next(&mut self, _cx: &mut OpCx<'_, '_, T>, t: &T) -> SimResult<()> {
            self.0 += t.0;
            Ok(())
        }

        fn close(&mut self, cx: &mut OpCx<'_, '_, T>) -> SimResult<()> {
            if self.0 > 0 {
                cx.emit(0, T(self.0))?;
            }
            Ok(())
        }
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            cores: 2,
            heap_per_node: ByteSize::mib(8),
        })
    }

    #[test]
    fn job_with_no_input_completes_empty() {
        let mut c = cluster(2);
        let spec = JobSpec::new("empty", 2);
        let inputs: Vec<Vec<Vec<T>>> = vec![Vec::new(), Vec::new()];
        let (report, result) = run_regular(&mut c, inputs, &spec, Sum::default, Sum::default);
        assert!(report.outcome.ok());
        assert!(result.unwrap().is_empty());
    }

    /// All data on one node (maximum skew): the job still completes and
    /// conserves the sum.
    #[test]
    fn fully_skewed_input_is_handled() {
        let mut c = cluster(3);
        let spec = JobSpec::new("skew", 2);
        let frames: Vec<Vec<T>> = (0..6).map(|_| (1..=50).map(T).collect()).collect();
        let inputs = vec![frames, Vec::new(), Vec::new()];
        let (report, result) = run_regular(&mut c, inputs, &spec, Sum::default, Sum::default);
        assert!(report.outcome.ok());
        let total: u64 = result.unwrap().iter().map(|t| t.0).sum();
        assert_eq!(total, 6 * (1..=50u64).sum::<u64>());
        // Only the loaded node accrued compute time in phase 1.
        assert!(report.nodes[0].compute_time > report.nodes[1].compute_time);
    }
}
