//! The quorum driver: proposes, replicates, collects acks, commits in
//! log order, and runs heartbeat-timeout elections — all between
//! scheduling rounds of the quorum's nodes.
//!
//! # Timing model
//!
//! Each driver iteration is one scheduling round (~one quantum) of
//! every live node. The leader proposes into its window at the global
//! clock frontier; append-entries RPCs are priced per link by
//! [`simnet::Fabric::transfer_at`] and arrive as [`Cmd::Apply`]
//! commands gated on `ready_at`. After the round the driver drains
//! acks (pricing the ack RPC back to the leader), commits entries in
//! log order once `majority` replicas — leader included — have
//! applied, and clamps commit times monotonic. A GC pause on a node
//! advances that node's clock stop-the-world, so a paused leader's
//! proposals, acks and heartbeats all slide — the pause lands in every
//! inflight commit latency, which is the phenomenon under study.
//!
//! # Elections
//!
//! The leader heartbeats every `HEARTBEAT_EVERY`; a follower that sees
//! no heartbeat for `ELECTION_TIMEOUT` starts a deterministic view
//! change: the leadership rotates to the next live replica, a
//! view-change RPC fans out, and every uncommitted entry is
//! re-replicated by the new leader (replicas that already applied one
//! re-ack without re-execution). Re-proposed entries keep their
//! *original* propose time, so election delay lands in the commit
//! tail. Both a scheduled leader crash and a full-GC pause longer than
//! the timeout take this same path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use itask_core::{live_budget_for_pause, predicted_full_pause, StateGuard};
use simcluster::{run_round, Cluster, ClusterConfig};
use simcore::sketch::QuantileSketch;
use simcore::tracer::{self, EventId, TraceData};
use simcore::{metrics, ByteSize, NodeId, SimDuration, SimError, SimResult, SimTime};
use simnet::rpc;

use crate::config::{
    RuntimeMode, SmrConfig, DEFLATE_CHUNK, ELECTION_OVERHEAD, ELECTION_TIMEOUT, HEARTBEAT_EVERY,
    SERIALIZE_FREE_PCT, WINDOW,
};
use crate::replica::{Ack, Cmd, ReplicaWork};

/// What one SMR run produced.
#[derive(Clone, Debug)]
pub struct SmrOutcome {
    /// Runtime policy that drove the run.
    pub mode: RuntimeMode,
    /// Quorum size.
    pub nodes: usize,
    /// Entries committed (equals the configured log length on success).
    pub commits: u64,
    /// Propose → commit latency samples, in nanoseconds of virtual time.
    pub latency: QuantileSketch,
    /// View changes performed.
    pub view_changes: u64,
    /// Final view number.
    pub final_view: u64,
    /// Total stop-the-world GC pause accumulated across the quorum
    /// (attributed per window via [`simmem::Heap::pause_mark`]).
    pub gc_stall: SimDuration,
    /// Virtual makespan of the run.
    pub elapsed: SimDuration,
    /// Full collections across the quorum.
    pub full_gcs: u64,
    /// Minor collections across the quorum.
    pub minor_gcs: u64,
    /// Long-and-useless collections across the quorum.
    pub lugcs: u64,
    /// Deflation rounds across the quorum (ITask modes).
    pub deflations: u64,
    /// Live bytes released by deflation.
    pub deflated: ByteSize,
    /// Peak heap occupancy as a percentage of capacity (worst node).
    pub peak_heap_pct: u64,
    /// Each node's final running digest of its *applied* sequence, and
    /// the number of entries it applied. A digest chains its
    /// predecessor, so equal finals mean equal sequences.
    pub node_digests: Vec<(u64, u64)>,
    /// `Ok` on a clean run; the first substrate error otherwise.
    pub result: SimResult<()>,
    /// Final running digest of the committed log (`0` when nothing
    /// committed).
    committed_digest: u64,
    /// Quorum-safety verdict, checked by the run on its digest chains.
    safety: Result<(), String>,
}

impl SmrOutcome {
    /// Commit-latency quantile in virtual nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Digest of the whole committed log (`0` when nothing committed).
    pub fn committed_digest(&self) -> u64 {
        self.committed_digest
    }

    /// Quorum safety: every node's applied sequence must agree with the
    /// committed log on their common prefix (and hence with every other
    /// node's). Violations would mean divergent state machines. The run
    /// checks this before it drops its per-index digest chains.
    pub fn check_safety(&self) -> Result<(), String> {
        self.safety.clone()
    }
}

/// The quorum-safety check over one run's per-index digest chains: the
/// committed log's and each node's applied sequence's.
fn check_safety(committed: &[u64], nodes: &[Vec<u64>]) -> Result<(), String> {
    for (n, digests) in nodes.iter().enumerate() {
        for (i, (d, c)) in digests.iter().zip(committed).enumerate() {
            if d != c {
                return Err(format!(
                    "node {n} diverges from the committed log at index {}",
                    i + 1
                ));
            }
        }
    }
    Ok(())
}

/// Consensus bookkeeping for one uncommitted entry.
struct Entry {
    /// Original propose time — survives view changes so election delay
    /// is charged to the commit latency.
    propose_at: SimTime,
    propose_ev: EventId,
    leader_done: Option<SimTime>,
    /// One slot per node id; only followers of the current view fill
    /// theirs.
    followers: Vec<Follower>,
}

/// What the current leader knows of one follower's copy of an entry.
#[derive(Clone, Copy)]
struct Follower {
    /// The replicate event (causal parent of the follower's ack).
    replicate_ev: EventId,
    /// Arrival time of the follower's first ack at the leader.
    ack_at: Option<SimTime>,
}

impl Follower {
    const UNSENT: Follower = Follower {
        replicate_ev: EventId::NONE,
        ack_at: None,
    };
}

/// The leader's proposal window. Uncommitted indices are contiguous —
/// `committed + 1 .. next_propose`, at most `WINDOW` of them — so
/// the entry for `index` sits at `index - (committed + 1)` and commits
/// leave from the front. A committed entry's follower slots are kept
/// for the next proposal, which makes proposing allocation-free once
/// the window has filled.
struct Window {
    nodes: usize,
    inflight: VecDeque<Entry>,
    spare: Vec<Vec<Follower>>,
}

impl Window {
    fn new(nodes: usize) -> Self {
        Window {
            nodes,
            inflight: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Opens the entry behind the last inflight one, as proposed at
    /// `at`, with nothing sent and nothing acknowledged.
    fn propose(&mut self, at: SimTime, ev: EventId) -> &mut Entry {
        let mut followers = self.spare.pop().unwrap_or_default();
        followers.resize(self.nodes, Follower::UNSENT);
        self.inflight.push_back(Entry {
            propose_at: at,
            propose_ev: ev,
            leader_done: None,
            followers,
        });
        self.inflight.back_mut().expect("just pushed")
    }

    /// Retires the front entry once it has committed.
    fn commit_front(&mut self) {
        if let Some(mut entry) = self.inflight.pop_front() {
            entry.followers.clear();
            self.spare.push(entry.followers);
        }
    }
}

impl Entry {
    /// Forgets every send and ack ahead of a new leader's
    /// re-replication; the propose time and event stay.
    fn reopen(&mut self) {
        self.leader_done = None;
        self.followers.fill(Follower::UNSENT);
    }
}

fn global_now(cluster: &mut Cluster, live: &[NodeId]) -> SimTime {
    let mut t = SimTime::ZERO;
    for &n in live {
        t = t.max(cluster.sim(n).node().now);
    }
    t
}

/// Runs one SMR configuration to completion and reports the outcome.
///
/// # Panics
///
/// Panics if the quorum size is even or below 3.
pub fn run(cfg: &SmrConfig) -> SmrOutcome {
    assert!(
        cfg.nodes >= 3 && cfg.nodes % 2 == 1,
        "quorum must be odd and at least 3"
    );
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: cfg.nodes,
        cores: 2,
        heap_per_node: cfg.heap_per_node,
    });
    if let Some(plan) = &cfg.faults {
        cluster.install_faults(plan.clone());
    }

    let stop = Rc::new(Cell::new(false));
    let mut mailboxes = Vec::with_capacity(cfg.nodes);
    for n in 0..cfg.nodes {
        let id = NodeId(n as u32);
        let space = cluster
            .sim(id)
            .node_mut()
            .heap
            .create_space(format!("smr.state{n}"));
        let (work, mailbox) = ReplicaWork::new(id, space, cfg, stop.clone());
        cluster.sim(id).spawn(Box::new(work));
        mailboxes.push(mailbox);
    }
    // Commands staged per node since the last round, delivered in one
    // batch right before the next; and the buffer acks are taken into.
    let mut staged: Vec<Vec<Cmd>> = vec![Vec::new(); cfg.nodes];
    let mut acks: Vec<Ack> = Vec::new();
    let mut arrivals: Vec<SimTime> = Vec::with_capacity(cfg.nodes);

    let majority = cfg.majority();
    let mut guards: Vec<StateGuard> = (0..cfg.nodes)
        .map(|_| StateGuard::new(SERIALIZE_FREE_PCT))
        .collect();
    let mut view = 0u64;
    let mut leader = NodeId(0);
    let mut next_propose = 1u64;
    let mut committed = 0u64;
    let mut last_commit_at = SimTime::ZERO;
    let mut window = Window::new(cfg.nodes);
    let mut last_hb = vec![SimTime::ZERO; cfg.nodes];
    let mut next_hb_due = SimTime::ZERO;
    let mut pause_marks = vec![SimDuration::ZERO; cfg.nodes];
    let mut gc_stall = SimDuration::ZERO;
    let mut latency = QuantileSketch::new(QuantileSketch::DEFAULT_K);
    let mut view_changes = 0u64;
    let log_len = cfg.entries as usize;
    let mut committed_digests: Vec<u64> = Vec::with_capacity(log_len);
    let mut node_digests: Vec<Vec<u64>> = (0..cfg.nodes)
        .map(|_| Vec::with_capacity(log_len))
        .collect();
    let mut result: SimResult<()> = Ok(());
    // Metrics cadence gate for the lease-margin gauge (one point per
    // cell, not per round).
    let mut lease_cell: Option<u64> = None;
    // Generous livelock backstop: a healthy run takes a handful of
    // rounds per committed entry plus election detours.
    let round_budget = 200_000 + cfg.entries.saturating_mul(5_000);
    let mut rounds = 0u64;

    'main: while committed < cfg.entries {
        rounds += 1;
        if rounds > round_budget {
            result = Err(SimError::Internal(
                "smr livelock: round budget exhausted".into(),
            ));
            break;
        }
        let live = cluster.live_nodes();
        if live.len() < majority {
            result = Err(SimError::Internal(format!(
                "quorum lost: {} of {} nodes live",
                live.len(),
                cfg.nodes
            )));
            break;
        }
        let now = global_now(&mut cluster, &live);

        // 1. Leader fills its proposal window.
        if !cluster.sim(leader).is_crashed() {
            while window.inflight.len() < WINDOW && next_propose <= cfg.entries {
                let index = next_propose;
                next_propose += 1;
                let ev = tracer::emit(
                    Some(leader),
                    None,
                    now,
                    SimDuration::ZERO,
                    TraceData::Propose { index, view },
                );
                let entry = window.propose(now, ev);
                staged[leader.as_usize()].push(Cmd::Apply {
                    index,
                    ready_at: now,
                });
                for &f in &live {
                    if f == leader {
                        continue;
                    }
                    let wire = match cluster.fabric().transfer_at(
                        leader,
                        f,
                        rpc::append_entries(cfg.payload),
                        now,
                    ) {
                        Ok(w) => w,
                        Err(e) => {
                            result = Err(e);
                            break 'main;
                        }
                    };
                    let rev = tracer::emit(
                        Some(leader),
                        None,
                        now,
                        wire,
                        TraceData::Replicate {
                            index,
                            to: f.0,
                            cause: ev,
                        },
                    );
                    entry.followers[f.as_usize()].replicate_ev = rev;
                    staged[f.as_usize()].push(Cmd::Apply {
                        index,
                        ready_at: now + wire,
                    });
                }
            }
        }

        // 2. One round over the live replicas, each first handed
        //    everything staged for it since the last one.
        for (mailbox, cmds) in mailboxes.iter().zip(&mut staged) {
            if !cmds.is_empty() {
                mailbox.deliver(cmds);
            }
        }
        let round = run_round(&mut cluster, &live, true);
        if let Some((node, report)) = round.first_failure() {
            result = Err(report
                .failed
                .first()
                .map(|(_, e)| e.clone())
                .unwrap_or(SimError::NodeLost { node }));
            break;
        }

        // 3. GC attribution and deflation policy, in node order.
        for &n in &live {
            let records = cluster.sim(n).node_mut().drain_gc_records();
            let ni = n.as_usize();
            {
                let heap = &cluster.sim(n).node().heap;
                gc_stall += heap.pause_since(pause_marks[ni]);
                pause_marks[ni] = heap.pause_mark();
            }
            if cfg.mode == RuntimeMode::Regular {
                continue;
            }
            let ask = {
                let heap = &cluster.sim(n).node().heap;
                guards[ni].poll(&records, heap)
            };
            if let Some(ask) = ask {
                if ask >= DEFLATE_CHUNK {
                    staged[ni].push(Cmd::Deflate { target: ask });
                }
            }
            if cfg.mode == RuntimeMode::ItaskElect && n == leader {
                // Election awareness: never let the next full collection
                // outlast half the election timeout.
                let budget = ELECTION_TIMEOUT / 2;
                let node = cluster.sim(n).node();
                if predicted_full_pause(&node.heap) > budget {
                    let target = live_budget_for_pause(&node.heap, budget * 3 / 4);
                    let ask = node.heap.live().saturating_sub(target);
                    if !ask.is_zero() {
                        staged[ni].push(Cmd::Deflate { target: ask });
                    }
                }
            }
        }

        // 4. Scheduled crashes fire on the nodes' own clocks. Crashed
        //    replicas stay down: SMR availability comes from the quorum,
        //    not from node recovery, and a replica thread has nothing
        //    to salvage.
        for &n in &live {
            let _ = cluster.poll_crash(n);
        }

        // 5. Drain acks in node order, pricing the ack RPC to the leader.
        for &n in &live {
            let ni = n.as_usize();
            mailboxes[ni].collect(&mut acks);
            if cluster.sim(n).is_crashed() {
                continue;
            }
            for ack in &acks {
                if ack.index as usize == node_digests[ni].len() + 1 {
                    node_digests[ni].push(ack.digest);
                }
                // `committed` has not moved since the last commit loop:
                // `committed + 1` is the index at the window's front.
                let Some(entry) = ack
                    .index
                    .checked_sub(committed + 1)
                    .and_then(|at| window.inflight.get_mut(at as usize))
                else {
                    continue; // already committed (re-replication dupe)
                };
                if n == leader {
                    entry.leader_done.get_or_insert(ack.done_at);
                } else {
                    let wire =
                        match cluster
                            .fabric()
                            .transfer_at(n, leader, rpc::ack(), ack.done_at)
                        {
                            Ok(w) => w,
                            Err(e) => {
                                result = Err(e);
                                break 'main;
                            }
                        };
                    let follower = &mut entry.followers[ni];
                    tracer::emit(
                        Some(n),
                        None,
                        ack.done_at,
                        wire,
                        TraceData::SmrAck {
                            index: ack.index,
                            cause: follower.replicate_ev,
                        },
                    );
                    follower.ack_at.get_or_insert(ack.done_at + wire);
                }
            }
        }

        // 6. Commit in log order once the quorum is in.
        while committed < cfg.entries {
            let index = committed + 1;
            let Some(entry) = window.inflight.front() else {
                break;
            };
            let Some(leader_done) = entry.leader_done else {
                break;
            };
            arrivals.clear();
            arrivals.extend(entry.followers.iter().filter_map(|f| f.ack_at));
            if arrivals.len() + 1 < majority {
                break;
            }
            arrivals.sort_unstable();
            let quorum_at = arrivals[majority - 2];
            let commit_at = leader_done.max(quorum_at).max(last_commit_at);
            last_commit_at = commit_at;
            let lat = commit_at.since(entry.propose_at);
            latency.insert(lat.as_nanos());
            metrics::counter_add(Some(leader), metrics::Metric::SmrCommits, commit_at, 1);
            metrics::observe(
                Some(leader),
                metrics::Metric::SmrCommitLatencyNs,
                commit_at,
                lat.as_nanos(),
            );
            tracer::emit(
                Some(leader),
                None,
                commit_at,
                SimDuration::ZERO,
                TraceData::Commit {
                    index,
                    latency_ns: lat.as_nanos(),
                    cause: entry.propose_ev,
                },
            );
            committed_digests.push(
                node_digests[leader.as_usize()]
                    .get(index as usize - 1)
                    .copied()
                    .unwrap_or(0),
            );
            window.commit_front();
            committed = index;
        }

        // 7. Advance every live clock to the common frontier (a paused
        //    node drags the frontier with it — stop-the-world shows up
        //    as group time).
        let frontier = global_now(&mut cluster, &live);
        cluster.advance_clocks_to(frontier);
        let now = frontier;

        // 8. Election check *before* this round's heartbeats: a
        //    follower times out when the gap since the last heartbeat
        //    arrival exceeds the election timeout — whether the leader
        //    crashed or just stalled through a long collection.
        let leader_crashed = cluster.sim(leader).is_crashed();
        let mut timed_out = false;
        let mut min_margin = i64::MAX;
        for &f in &live {
            if f == leader || cluster.sim(f).is_crashed() {
                continue;
            }
            let gap = now.since(last_hb[f.as_usize()]);
            min_margin = min_margin.min(ELECTION_TIMEOUT.as_nanos() as i64 - gap.as_nanos() as i64);
            if gap > ELECTION_TIMEOUT {
                timed_out = true;
            }
        }
        // Lease margin: how much election-timeout headroom the tightest
        // follower has left (negative = a timeout already due). Sampled
        // once per metrics cell so quiet stretches stay cheap.
        if metrics::is_enabled() && min_margin != i64::MAX {
            let cell = metrics::cell_of(now);
            if Some(cell) != lease_cell {
                lease_cell = Some(cell);
                metrics::gauge_set(
                    Some(leader),
                    metrics::Metric::SmrLeaseMarginNs,
                    now,
                    min_margin,
                );
            }
        }
        if timed_out {
            view_changes += 1;
            loop {
                view += 1;
                let cand = NodeId((view % cfg.nodes as u64) as u32);
                if !cluster.sim(cand).is_crashed() {
                    leader = cand;
                    break;
                }
            }
            metrics::counter_add(Some(leader), metrics::Metric::SmrViewChanges, now, 1);
            let uncommitted = window.inflight.len() as u64;
            let vc_ev = tracer::emit(
                Some(leader),
                None,
                now,
                ELECTION_OVERHEAD,
                TraceData::ViewChange {
                    view,
                    leader: leader.0,
                    cause: EventId::NONE,
                },
            );
            let mut done_at = now + ELECTION_OVERHEAD;
            for &f in &live {
                if f == leader || cluster.sim(f).is_crashed() {
                    continue;
                }
                match cluster
                    .fabric()
                    .transfer_at(leader, f, rpc::view_change(uncommitted), now)
                {
                    Ok(w) => done_at = done_at.max(now + w),
                    Err(e) => {
                        result = Err(e);
                        break 'main;
                    }
                }
            }
            // The new leader re-replicates every uncommitted entry;
            // replicas that already applied one re-ack without
            // re-executing. Original propose times are kept.
            for (index, entry) in (committed + 1..).zip(&mut window.inflight) {
                entry.reopen();
                staged[leader.as_usize()].push(Cmd::Apply {
                    index,
                    ready_at: done_at,
                });
                for &f in &live {
                    if f == leader || cluster.sim(f).is_crashed() {
                        continue;
                    }
                    let wire = match cluster.fabric().transfer_at(
                        leader,
                        f,
                        rpc::append_entries(cfg.payload),
                        done_at,
                    ) {
                        Ok(w) => w,
                        Err(e) => {
                            result = Err(e);
                            break 'main;
                        }
                    };
                    let rev = tracer::emit(
                        Some(leader),
                        None,
                        done_at,
                        wire,
                        TraceData::Replicate {
                            index,
                            to: f.0,
                            cause: vc_ev,
                        },
                    );
                    entry.followers[f.as_usize()].replicate_ev = rev;
                    staged[f.as_usize()].push(Cmd::Apply {
                        index,
                        ready_at: done_at + wire,
                    });
                }
            }
            cluster.advance_clocks_to(done_at);
            for &f in &live {
                last_hb[f.as_usize()] = done_at;
            }
            next_hb_due = done_at + HEARTBEAT_EVERY;
        } else if !leader_crashed && now >= next_hb_due {
            // 9. Heartbeats.
            for &f in &live {
                if f == leader || cluster.sim(f).is_crashed() {
                    continue;
                }
                match cluster
                    .fabric()
                    .transfer_at(leader, f, rpc::heartbeat(), now)
                {
                    Ok(w) => last_hb[f.as_usize()] = now + w,
                    Err(e) => {
                        result = Err(e);
                        break 'main;
                    }
                }
            }
            next_hb_due = now + HEARTBEAT_EVERY;
        }
    }

    // Wind down: replicas retire at their next step; late acks only
    // feed the per-node digest chains.
    stop.set(true);
    for _ in 0..16 {
        let live = cluster.live_nodes();
        let busy = live.iter().any(|&n| cluster.sim(n).live_count() > 0);
        if !busy {
            break;
        }
        run_round(&mut cluster, &live, false);
    }
    for (mailbox, digests) in mailboxes.iter().zip(&mut node_digests) {
        mailbox.collect(&mut acks);
        for ack in &acks {
            if ack.index as usize == digests.len() + 1 {
                digests.push(ack.digest);
            }
        }
    }

    let mut full_gcs = 0u64;
    let mut minor_gcs = 0u64;
    let mut lugcs = 0u64;
    let mut peak_heap_pct = 0u64;
    for (n, &mark) in pause_marks.iter().enumerate() {
        let node = cluster.sim(NodeId(n as u32)).node();
        gc_stall += node.heap.pause_since(mark);
        let stats = node.heap.stats();
        full_gcs += stats.full_count;
        minor_gcs += stats.minor_count;
        lugcs += stats.useless_count;
        peak_heap_pct = peak_heap_pct
            .max(node.heap.peak_used().as_u64() * 100 / node.heap.capacity().as_u64().max(1));
    }
    let mut deflations = 0u64;
    let mut deflated = ByteSize::ZERO;
    for mailbox in &mailboxes {
        let s = mailbox.stats();
        deflations += s.deflations;
        deflated += s.deflated;
    }

    SmrOutcome {
        mode: cfg.mode,
        nodes: cfg.nodes,
        commits: committed,
        latency,
        view_changes,
        final_view: view,
        gc_stall,
        elapsed: cluster.elapsed(),
        full_gcs,
        minor_gcs,
        lugcs,
        deflations,
        deflated,
        peak_heap_pct,
        node_digests: node_digests
            .iter()
            .map(|d| (d.last().copied().unwrap_or(0), d.len() as u64))
            .collect(),
        result,
        committed_digest: committed_digests.last().copied().unwrap_or(0),
        safety: check_safety(&committed_digests, &node_digests),
    }
}

#[cfg(test)]
mod tests {
    use super::check_safety;

    #[test]
    fn check_safety_compares_each_node_with_the_log_on_their_common_prefix() {
        let log = [11, 12, 13, 14];

        // A node that diverges at index k is named, with k (1-based).
        let nodes = vec![log.to_vec(), vec![11, 12, 99, 14]];
        assert_eq!(
            check_safety(&log, &nodes),
            Err("node 1 diverges from the committed log at index 3".into())
        );

        // A node behind the committed log (a follower still catching
        // up, or a crashed one) is checked on what it applied.
        let nodes = vec![log.to_vec(), vec![11, 12], vec![]];
        assert_eq!(check_safety(&log, &nodes), Ok(()));
        let nodes = vec![log.to_vec(), vec![11, 98]];
        assert_eq!(
            check_safety(&log, &nodes),
            Err("node 1 diverges from the committed log at index 2".into())
        );

        // A node that applied past the last commit (acks drained at wind
        // down) is compared on the committed prefix only.
        let nodes = vec![log.to_vec(), vec![11, 12, 13, 14, 77, 78]];
        assert_eq!(check_safety(&log, &nodes), Ok(()));
        let nodes = vec![vec![10, 12, 13, 14, 77], log.to_vec()];
        assert_eq!(
            check_safety(&log, &nodes),
            Err("node 0 diverges from the committed log at index 1".into())
        );
    }
}
