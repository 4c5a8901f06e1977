//! Property test: merged trace bytes and per-node state do not depend
//! on the order a driver visits nodes within a round.
//!
//! A driver is free to reorder nodes — hyracks' batch `drive` runs
//! each node's round on its own, between its controller tick and its
//! crash poll — and the trace must not notice: each node round emits under the
//! node's own stream, so an event's id says which node emitted it and
//! how far along that node was, and the canonical `(time, node, id)`
//! merge does the rest. Randomized workloads (seeded generator: node
//! counts, skewed thread loads, tuple counts, per-thread emission
//! cadence, and in half the cases a thread that fails part-way) run
//! with every round visiting nodes ascending, descending, and in a
//! per-round shuffle, and the serialized trace of every permuted run
//! must equal the ascending one byte for byte. A failing thread stops a
//! fail-fast round at its node, so in that one round the permuted runs
//! reorder only the nodes ahead of it: the same nodes run, then the
//! round stops.
//!
//! A single `#[test]` drives all cases because the tracer is
//! process-global; this file is its own test binary, so nothing else
//! races it.

use simcluster::{run_round, Cluster, ClusterConfig, StepOutcome, Work, WorkCx};
use simcore::{tracer, ByteSize, CostModel, NodeId, SimDuration, SimError, SpaceId};

/// Deterministic splitmix-style generator for the property cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Burns CPU over synthetic tuples and emits a trace event every
/// `emit_every` tuples — the events whose merged order the property
/// checks. Fails once `fail_after` tuples are done, if set.
struct Chatter {
    space: Option<SpaceId>,
    tuples: u64,
    emit_every: u64,
    fail_after: Option<u64>,
    processed: u64,
}

impl Work for Chatter {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        let space = match self.space {
            Some(s) => s,
            None => {
                let s = cx.create_space("chatter");
                self.space = Some(s);
                s
            }
        };
        let per_tuple = CostModel::tuple_cost(ByteSize(64));
        while self.tuples > 0 && !cx.out_of_quantum() {
            if self.fail_after.is_some_and(|n| self.processed >= n) {
                return StepOutcome::Failed(SimError::Internal("planned failure".into()));
            }
            cx.charge(per_tuple);
            if let Err(e) = cx.alloc(space, ByteSize(40)) {
                return StepOutcome::Failed(e);
            }
            self.tuples -= 1;
            self.processed += 1;
            if self.processed.is_multiple_of(self.emit_every) {
                let node = cx.node().id;
                let now = cx.now();
                tracer::emit(
                    Some(node),
                    None,
                    now,
                    SimDuration::ZERO,
                    tracer::TraceData::FrameChunk {
                        tuples: self.processed,
                    },
                );
            }
        }
        if self.tuples == 0 {
            StepOutcome::Finished
        } else {
            StepOutcome::Ran
        }
    }

    fn label(&self) -> String {
        "chatter".into()
    }
}

/// How a run orders the runnable nodes of each round.
#[derive(Clone, Copy, Debug)]
enum Visit {
    Ascending,
    Descending,
    /// A fresh Fisher–Yates shuffle per round, from this seed.
    Shuffled(u64),
}

/// What one run leaves behind: the canonical serialized trace, per-node
/// `(clock, minor GCs)`, and the `(round, node)` whose failure ended
/// it, if any.
type Outcome = (String, Vec<(u64, u64)>, Option<(usize, NodeId)>);

/// Builds one randomized cluster case and runs it fail-fast to
/// completion (or to its planned failure), visiting nodes per `visit`.
/// `stop` names the round and node the reference run failed at.
fn run_case(case_seed: u64, visit: Visit, stop: Option<(usize, NodeId)>) -> Outcome {
    let mut rng = Rng(case_seed);
    let nodes = rng.range(2, 6) as usize;
    let cfg = ClusterConfig {
        nodes,
        cores: rng.range(1, 4) as usize,
        heap_per_node: ByteSize::mib(rng.range(4, 16)),
    };
    let mut c = Cluster::new(cfg);
    let failing = (case_seed % 2 == 1).then(|| rng.range(0, nodes as u64 - 1) as usize);
    for i in 0..nodes {
        let threads = rng.range(1, 4);
        for t in 0..threads {
            c.sim(NodeId(i as u32)).spawn(Box::new(Chatter {
                space: None,
                tuples: rng.range(500, 6_000),
                emit_every: rng.range(16, 257),
                fail_after: (failing == Some(i) && t == 0).then(|| rng.range(100, 400)),
                processed: 0,
            }));
        }
    }

    let mut shuffle = match visit {
        Visit::Shuffled(seed) => Rng(seed),
        _ => Rng(0),
    };
    tracer::begin_run();
    let mut failed_at = None;
    for round in 0.. {
        let mut runnable: Vec<NodeId> = (0..nodes as u32)
            .map(NodeId)
            .filter(|&n| c.sim(n).live_count() > 0)
            .collect();
        if runnable.is_empty() {
            break;
        }
        // Everything is free to move, except that the round that fails
        // must still reach the failing node after the same nodes.
        let free = match stop {
            Some((r, node)) if r == round => runnable.iter().position(|&n| n == node).unwrap(),
            _ => runnable.len(),
        };
        match visit {
            Visit::Ascending => {}
            Visit::Descending => runnable[..free].reverse(),
            Visit::Shuffled(_) => {
                for i in (1..free).rev() {
                    runnable.swap(i, shuffle.range(0, i as u64) as usize);
                }
            }
        }
        let run = run_round(&mut c, &runnable, true);
        failed_at = run.first_failure().map(|(n, _)| (round, n));
        assert_eq!(run.aborted, failed_at.is_some());
        if run.aborted {
            break;
        }
    }
    let events = tracer::take_run().expect("trace harvested");
    let trace = tracer::jsonl_run(0, &format!("case{case_seed}"), &events);
    let state = (0..nodes as u32)
        .map(|i| {
            let n = c.sim(NodeId(i)).node();
            (n.now.as_nanos(), n.heap.stats().minor_count)
        })
        .collect();
    (trace, state, failed_at)
}

#[test]
fn merged_trace_and_state_ignore_the_visit_order() {
    tracer::enable();
    let mut failing_cases = 0;
    for case in 0..8u64 {
        let case_seed = 0xA5A5_0000 + case;
        let want = run_case(case_seed, Visit::Ascending, None);
        assert!(
            want.0.lines().count() > 1,
            "case {case_seed}: workload emitted no events — property is vacuous"
        );
        failing_cases += usize::from(want.2.is_some());
        for visit in [
            Visit::Descending,
            Visit::Shuffled(case_seed),
            Visit::Shuffled(!case_seed),
        ] {
            let got = run_case(case_seed, visit, want.2);
            assert_eq!(got.2, want.2, "case {case_seed} {visit:?}: failing round");
            assert_eq!(got.1, want.1, "case {case_seed} {visit:?}: node state");
            assert!(
                got.0 == want.0,
                "case {case_seed} {visit:?}: merged trace diverged\n\
                 first differing line: {:?}",
                got.0.lines().zip(want.0.lines()).find(|(a, b)| a != b)
            );
        }
    }
    assert_eq!(
        failing_cases, 4,
        "half the cases exercise the fail-fast stop"
    );
    tracer::disable();
}
