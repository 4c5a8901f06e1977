#![warn(missing_docs)]

//! Simulated cluster network: a uniform-bandwidth fabric with per-link
//! accounting, used by the shuffle stages of both engines.
//!
//! The paper's testbed uses EC2 "enhanced networking"; shuffle cost shapes
//! end-to-end times but is not the contribution, so a linear
//! latency-plus-bandwidth model suffices (DESIGN.md §1).
//!
//! With a [`FaultInjector`] installed (see [`Fabric::install_injector`]),
//! the time-aware [`Fabric::transfer_at`] consults the injector's link
//! state: slowdown windows dilate the wire time, finite partition windows
//! stall the sender until they heal, and a permanent partition fails the
//! transfer with [`simcore::SimError::NetPartition`].

use simcore::{
    metrics, ByteSize, CostModel, FaultInjector, FaultStats, LinkState, NodeId, SimDuration,
    SimError, SimResult, SimTime,
};

/// Wire shapes of the quorum RPCs a replicated state machine puts on
/// the fabric (`simsmr`). Centralising the byte counts here keeps the
/// leader, follower, and bench sides of a quorum priced identically.
pub mod rpc {
    use simcore::ByteSize;

    /// Fixed header every quorum RPC carries: view, log index, commit
    /// watermark, and a checksum.
    pub const HEADER: ByteSize = ByteSize(64);

    /// An `append-entries` RPC replicating one log entry of `payload`
    /// serialized bytes.
    pub fn append_entries(payload: ByteSize) -> ByteSize {
        HEADER + payload
    }

    /// A follower's acknowledgement (header only).
    pub fn ack() -> ByteSize {
        HEADER
    }

    /// A leader heartbeat (header only).
    pub fn heartbeat() -> ByteSize {
        HEADER
    }

    /// A view-change announcement: the new view plus a 16-byte
    /// (index, digest) summary for each of `entries` uncommitted
    /// entries the new leader re-replicates.
    pub fn view_change(entries: u64) -> ByteSize {
        HEADER + ByteSize(16 * entries)
    }
}

/// Aggregate transfer statistics.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Total bytes moved between distinct nodes.
    pub bytes_remote: ByteSize,
    /// Total bytes "moved" node-locally (free).
    pub bytes_local: ByteSize,
    /// Number of remote transfers.
    pub remote_transfers: u64,
    /// Total virtual time spent on the wire.
    pub wire_time: SimDuration,
    /// Transfers that waited out a partition window or ran slowed.
    pub degraded_transfers: u64,
}

/// The cluster fabric.
#[derive(Clone, Debug)]
pub struct Fabric {
    nodes: usize,
    stats: NetStats,
    injector: Option<Box<FaultInjector>>,
    /// The last two distinct sizes priced and their healthy wire times.
    /// A quorum alternates between two RPC sizes (append-entries out,
    /// acks and heartbeats back), so this turns the float division in
    /// `CostModel::net_transfer` into two compares on that path.
    priced: [(ByteSize, SimDuration); 2],
}

impl Fabric {
    /// Creates a fabric connecting `nodes` nodes, priced by
    /// [`CostModel::net_transfer`].
    ///
    /// `_cost` is unread: the prices are constants. It stays only so
    /// that callers outside this workspace that pass one still build.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, _cost: CostModel) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        Fabric {
            nodes,
            stats: NetStats::default(),
            injector: None,
            priced: [(ByteSize::ZERO, CostModel::net_transfer(ByteSize::ZERO)); 2],
        }
    }

    /// `CostModel::net_transfer(bytes)`, remembered for the last two
    /// distinct sizes.
    fn wire_time(&mut self, bytes: ByteSize) -> SimDuration {
        if let Some(&(_, t)) = self.priced.iter().find(|(b, _)| *b == bytes) {
            return t;
        }
        let t = CostModel::net_transfer(bytes);
        self.priced = [(bytes, t), self.priced[0]];
        t
    }

    /// Routes subsequent time-aware transfers through a fault injector.
    ///
    /// The fabric *owns* its injector (it is driver-side state, stepped
    /// only at shuffle barriers); network fault counters are read back
    /// via [`Fabric::injector_stats`].
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(Box::new(injector));
    }

    /// Fault counters accumulated by the installed injector (zeros when
    /// no injector is installed).
    pub fn injector_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|inj| inj.stats())
            .unwrap_or_default()
    }

    /// Number of nodes on the fabric.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Moves `bytes` from `src` to `dst`, returning the wire time.
    ///
    /// Node-local moves are free (in-process handoff). Unknown node ids
    /// are a caller bug and panic in debug builds; in release they are
    /// charged as remote.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: ByteSize) -> SimDuration {
        debug_assert!(src.as_usize() < self.nodes, "unknown src {src}");
        debug_assert!(dst.as_usize() < self.nodes, "unknown dst {dst}");
        if src == dst {
            self.stats.bytes_local += bytes;
            return SimDuration::ZERO;
        }
        let t = self.wire_time(bytes);
        self.stats.bytes_remote += bytes;
        self.stats.remote_transfers += 1;
        self.stats.wire_time += t;
        t
    }

    /// Time-aware transfer: like [`Fabric::transfer`] but consults the
    /// installed fault injector for the `src → dst` link state at `now`.
    ///
    /// A slowdown window dilates the wire time; a finite partition
    /// window adds the wait until it heals; a permanent partition fails
    /// with [`SimError::NetPartition`]. Without an injector this is
    /// exactly `transfer`.
    pub fn transfer_at(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: ByteSize,
        now: SimTime,
    ) -> SimResult<SimDuration> {
        if src.as_usize() >= self.nodes || dst.as_usize() >= self.nodes {
            return Err(SimError::Internal(format!(
                "transfer between unknown nodes {src} → {dst} (fabric has {})",
                self.nodes
            )));
        }
        if self.injector.is_none() {
            let t = self.transfer(src, dst, bytes);
            if src != dst {
                meter_transfer(src, bytes, now, t);
            }
            return Ok(t);
        }
        if src == dst {
            self.stats.bytes_local += bytes;
            return Ok(SimDuration::ZERO);
        }
        let inj = self.injector.as_mut().expect("checked above");
        let state = inj.link_state(src, dst, now);
        let (wait, factor) = match state {
            LinkState::Up { factor } => (SimDuration::ZERO, factor),
            LinkState::BlockedUntil(until) => {
                // Retransmit when the window closes, at whatever speed
                // the link has then.
                let healed = inj.link_state(src, dst, until);
                let f = match healed {
                    LinkState::Up { factor } => factor,
                    _ => 1.0,
                };
                (until.since(now), f)
            }
            LinkState::Severed => {
                inj.note_transfer(false, true);
                return Err(SimError::NetPartition { src, dst });
            }
        };
        let degraded = !wait.is_zero() || factor > 1.0;
        if degraded {
            inj.note_transfer(true, false);
            self.stats.degraded_transfers += 1;
        }
        let wire = self.wire_time(bytes) * factor.max(1.0);
        self.stats.bytes_remote += bytes;
        self.stats.remote_transfers += 1;
        self.stats.wire_time += wire;
        meter_transfer(src, bytes, now, wait + wire);
        Ok(wait + wire)
    }

    /// Quorum fan-out: sends one RPC of `bytes` from `src` to each
    /// destination, in slice order, returning the per-destination wire
    /// times. Each link is consulted independently through
    /// [`Fabric::transfer_at`], so slowdown and partition windows apply
    /// per follower; the first severed link fails the whole fan-out.
    pub fn quorum_send_at(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        bytes: ByteSize,
        now: SimTime,
    ) -> SimResult<Vec<SimDuration>> {
        dsts.iter()
            .map(|&dst| self.transfer_at(src, dst, bytes, now))
            .collect()
    }

    /// The cost of an all-to-all shuffle where each of `senders` nodes
    /// sends `bytes_per_pair` to each of `receivers` nodes, assuming
    /// perfect overlap across senders (the bottleneck is one sender's
    /// outbound link).
    pub fn shuffle_time(&self, receivers: usize, bytes_per_pair: ByteSize) -> SimDuration {
        let outbound = bytes_per_pair * receivers.max(1) as u64;
        CostModel::net_transfer(outbound)
    }
}

/// Metrics hook for one time-aware remote transfer: the byte counter
/// plus an in-flight gauge that rises at send time and falls when the
/// wire drains (the harvest merge re-orders the future-stamped drop
/// into place).
#[inline]
fn meter_transfer(src: NodeId, bytes: ByteSize, now: SimTime, total: SimDuration) {
    if metrics::is_enabled() {
        use metrics::Metric;
        let b = bytes.as_u64();
        metrics::counter_add(Some(src), Metric::NetBytes, now, b);
        metrics::gauge_add(Some(src), Metric::NetInflightBytes, now, b as i64);
        metrics::gauge_add(
            Some(src),
            Metric::NetInflightBytes,
            now + total,
            -(b as i64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_transfers_are_free() {
        let mut f = Fabric::new(3, CostModel);
        let t = f.transfer(NodeId(1), NodeId(1), ByteSize::mib(100));
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(f.stats().bytes_local, ByteSize::mib(100));
        assert_eq!(f.stats().remote_transfers, 0);
    }

    #[test]
    fn remote_transfers_cost_time_linear_in_bytes() {
        let mut f = Fabric::new(3, CostModel);
        let t1 = f.transfer(NodeId(0), NodeId(1), ByteSize::mib(1));
        let t10 = f.transfer(NodeId(0), NodeId(2), ByteSize::mib(10));
        assert!(t10 > t1);
        assert_eq!(f.stats().remote_transfers, 2);
        assert_eq!(f.stats().bytes_remote, ByteSize::mib(11));
    }

    #[test]
    fn shuffle_scales_with_receivers() {
        let f = Fabric::new(8, CostModel);
        let narrow = f.shuffle_time(2, ByteSize::mib(1));
        let wide = f.shuffle_time(8, ByteSize::mib(1));
        assert!(wide > narrow);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use simcore::FaultPlan;

    fn at_secs(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    fn faulty(plan: FaultPlan) -> Fabric {
        let mut f = Fabric::new(4, CostModel);
        f.install_injector(FaultInjector::new(plan));
        f
    }

    #[test]
    fn transfer_at_without_injector_matches_transfer() {
        let mut plain = Fabric::new(4, CostModel);
        let mut aware = Fabric::new(4, CostModel);
        let t1 = plain.transfer(NodeId(0), NodeId(1), ByteSize::mib(2));
        let t2 = aware
            .transfer_at(NodeId(0), NodeId(1), ByteSize::mib(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn slowdown_window_dilates_wire_time() {
        let mut f = faulty(FaultPlan::new(0).with_slowdown(SimTime::ZERO, at_secs(1), 4.0));
        let healthy = CostModel::net_transfer(ByteSize::mib(1));
        let slowed = f
            .transfer_at(NodeId(0), NodeId(1), ByteSize::mib(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(slowed, healthy * 4.0);
        assert_eq!(f.stats().degraded_transfers, 1);
        // After the window, full speed again.
        let later = f
            .transfer_at(NodeId(0), NodeId(1), ByteSize::mib(1), at_secs(2))
            .unwrap();
        assert_eq!(later, healthy);
    }

    #[test]
    fn finite_partition_stalls_the_sender() {
        let mut f = faulty(FaultPlan::new(0).with_link_partition(
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
            at_secs(3),
        ));
        let healthy = CostModel::net_transfer(ByteSize::mib(1));
        let t = f
            .transfer_at(NodeId(0), NodeId(1), ByteSize::mib(1), at_secs(1))
            .unwrap();
        assert_eq!(t, SimDuration::from_secs(2) + healthy);
        // The unaffected link is untouched.
        let other = f
            .transfer_at(NodeId(0), NodeId(2), ByteSize::mib(1), at_secs(1))
            .unwrap();
        assert_eq!(other, healthy);
    }

    #[test]
    fn permanent_partition_fails_typed() {
        let mut f = faulty(FaultPlan::new(0).with_link_partition(
            NodeId(1),
            NodeId(2),
            SimTime::ZERO,
            SimTime::MAX,
        ));
        match f.transfer_at(NodeId(2), NodeId(1), ByteSize::mib(1), SimTime::ZERO) {
            Err(SimError::NetPartition { src, dst }) => {
                assert_eq!((src, dst), (NodeId(2), NodeId(1)));
            }
            other => panic!("expected NetPartition, got {other:?}"),
        }
    }

    #[test]
    fn unknown_nodes_are_typed_errors_not_panics() {
        let mut f = Fabric::new(2, CostModel);
        let err = f
            .transfer_at(NodeId(0), NodeId(9), ByteSize::mib(1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SimError::Internal(_)));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn zero_receiver_shuffle_costs_one_transfer() {
        let f = Fabric::new(4, CostModel);
        // Clamped to one receiver: still a well-defined (latency-only+)
        // duration rather than zero or a panic.
        let t = f.shuffle_time(0, ByteSize::mib(1));
        assert_eq!(t, f.shuffle_time(1, ByteSize::mib(1)));
    }

    #[test]
    fn rpc_shapes_are_header_plus_body() {
        assert_eq!(rpc::ack(), rpc::HEADER);
        assert_eq!(rpc::heartbeat(), rpc::HEADER);
        assert_eq!(
            rpc::append_entries(ByteSize::kib(2)),
            rpc::HEADER + ByteSize::kib(2)
        );
        assert!(rpc::view_change(8) > rpc::view_change(0));
    }

    #[test]
    fn quorum_fanout_prices_each_link() {
        let mut f = Fabric::new(4, CostModel);
        let times = f
            .quorum_send_at(
                NodeId(0),
                &[NodeId(1), NodeId(2), NodeId(0)],
                ByteSize::kib(2),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(times.len(), 3);
        assert_eq!(times[0], times[1]);
        assert_eq!(times[2], SimDuration::ZERO); // self-send is local
        assert_eq!(f.stats().remote_transfers, 2);
    }

    #[test]
    fn remembered_wire_times_match_the_cost_model() {
        let mut f = Fabric::new(2, CostModel);
        // Alternating sizes are answered from memory, a third size
        // evicts the older of the two, and evicted sizes come back.
        for bytes in [64, 128, 64, 128, 4096, 64, 0, 128, 4096, 4096].map(ByteSize) {
            assert_eq!(
                f.transfer(NodeId(0), NodeId(1), bytes),
                CostModel::net_transfer(bytes)
            );
        }
    }

    #[test]
    fn zero_byte_transfer_is_latency_only() {
        let mut f = Fabric::new(2, CostModel);
        let t = f.transfer(NodeId(0), NodeId(1), ByteSize::ZERO);
        assert_eq!(t, simcore::cost::NET_LATENCY);
        assert_eq!(f.stats().remote_transfers, 1);
    }
}
