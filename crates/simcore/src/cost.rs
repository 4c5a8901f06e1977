//! The cost model: how many virtual nanoseconds each simulated action
//! costs.
//!
//! All terms are linear in bytes or tuples (plus small fixed latencies), so
//! the 1/1024 data scaling of the reproduction (see [`crate::SCALE`])
//! preserves every ratio the paper reports. The prices are this module's
//! constants, loosely calibrated to the paper's testbed: c3.2xlarge
//! nodes (8 cores), HotSpot's parallel generational collector, SSD
//! RAID-0 storage and enhanced (10 GbE-class) networking.

use crate::bytes::ByteSize;
use crate::time::{round_to_u64, SimDuration};

/// Fixed CPU cost to process one tuple (dispatch, iterator overhead).
pub const TUPLE_FIXED_NS: u64 = 120;
/// CPU cost per payload byte processed (~1 GB/s parse rate).
pub const CPU_NS_PER_BYTE: f64 = 1.0;

/// Fixed pause of a minor (young-generation) collection.
pub const GC_MINOR_FIXED: SimDuration = SimDuration::from_micros(30);
/// Copy cost per surviving young byte (~2 GB/s evacuation).
pub const GC_MINOR_NS_PER_SURVIVOR_BYTE: f64 = 0.5;
/// Fixed pause of a full collection.
pub const GC_FULL_FIXED: SimDuration = SimDuration::from_micros(150);
/// Mark cost per live heap byte (~1 GB/s tracing).
pub const GC_FULL_NS_PER_LIVE_BYTE: f64 = 1.0;
/// Sweep cost per used heap byte.
pub const GC_FULL_NS_PER_USED_BYTE: f64 = 0.12;

/// Sequential disk write bandwidth (bytes/second).
pub const DISK_WRITE_BPS: u64 = 400 * crate::MIB;
/// Sequential disk read bandwidth (bytes/second).
pub const DISK_READ_BPS: u64 = 500 * crate::MIB;
/// Fixed latency per disk operation.
pub const DISK_OP_LATENCY: SimDuration = SimDuration::from_micros(100);
/// CPU cost per byte to serialize an object graph.
pub const SERIALIZE_NS_PER_BYTE: f64 = 0.8;
/// CPU cost per byte to deserialize (object construction is pricier).
pub const DESERIALIZE_NS_PER_BYTE: f64 = 1.4;

/// Network bandwidth between any two nodes (bytes/second).
pub const NET_BPS: u64 = 1_250 * crate::MIB;
/// Fixed network latency per transfer.
pub const NET_LATENCY: SimDuration = SimDuration::from_micros(50);

/// The name the prices are charged through: `CostModel::disk_write(bytes)`
/// and so on. It carries no state; the prices are this module's
/// constants.
///
/// A value of it (`CostModel::default()`) is still accepted by
/// `simstore::Disk::new` and `simnet::Fabric::new`, and read by neither,
/// so that callers outside this workspace that pass one keep building.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostModel;

fn ns_per_bytes(rate_ns_per_byte: f64, bytes: u64) -> SimDuration {
    SimDuration::from_nanos(round_to_u64(rate_ns_per_byte * bytes as f64))
}

fn bandwidth_time(bps: u64, bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / bps as f64)
}

impl CostModel {
    /// CPU cost to process one tuple carrying `payload` bytes.
    pub fn tuple_cost(payload: ByteSize) -> SimDuration {
        SimDuration::from_nanos(TUPLE_FIXED_NS) + ns_per_bytes(CPU_NS_PER_BYTE, payload.as_u64())
    }

    /// Pause of a minor collection with `survivors` bytes evacuated.
    pub fn minor_gc_pause(survivors: ByteSize) -> SimDuration {
        GC_MINOR_FIXED + ns_per_bytes(GC_MINOR_NS_PER_SURVIVOR_BYTE, survivors.as_u64())
    }

    /// Pause of a full collection over `live` live bytes in a heap with
    /// `used` bytes occupied.
    pub fn full_gc_pause(live: ByteSize, used: ByteSize) -> SimDuration {
        GC_FULL_FIXED
            + ns_per_bytes(GC_FULL_NS_PER_LIVE_BYTE, live.as_u64())
            + ns_per_bytes(GC_FULL_NS_PER_USED_BYTE, used.as_u64())
    }

    /// Time to write `bytes` sequentially to disk.
    pub fn disk_write(bytes: ByteSize) -> SimDuration {
        DISK_OP_LATENCY + bandwidth_time(DISK_WRITE_BPS, bytes.as_u64())
    }

    /// Time to read `bytes` sequentially from disk.
    pub fn disk_read(bytes: ByteSize) -> SimDuration {
        DISK_OP_LATENCY + bandwidth_time(DISK_READ_BPS, bytes.as_u64())
    }

    /// CPU time to serialize `bytes` of object graph.
    pub fn serialize_cpu(bytes: ByteSize) -> SimDuration {
        ns_per_bytes(SERIALIZE_NS_PER_BYTE, bytes.as_u64())
    }

    /// CPU time to deserialize `bytes` back into an object graph.
    pub fn deserialize_cpu(bytes: ByteSize) -> SimDuration {
        ns_per_bytes(DESERIALIZE_NS_PER_BYTE, bytes.as_u64())
    }

    /// Time to move `bytes` across the network between two nodes.
    pub fn net_transfer(bytes: ByteSize) -> SimDuration {
        NET_LATENCY + bandwidth_time(NET_BPS, bytes.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The products the cost model actually rounds: every per-byte
        /// rate and every bandwidth, against byte counts up to 2^40.
        #[test]
        fn rounding_matches_libm_on_every_rate(bytes in 0u64..=(1 << 40)) {
            for rate in [
                CPU_NS_PER_BYTE,
                GC_MINOR_NS_PER_SURVIVOR_BYTE,
                GC_FULL_NS_PER_LIVE_BYTE,
                GC_FULL_NS_PER_USED_BYTE,
                SERIALIZE_NS_PER_BYTE,
                DESERIALIZE_NS_PER_BYTE,
            ] {
                let x = rate * bytes as f64;
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{} * {}", rate, bytes);
            }
            for bps in [DISK_WRITE_BPS, DISK_READ_BPS, NET_BPS] {
                let x = bytes as f64 / bps as f64 * 1e9;
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{} / {}", bytes, bps);
            }
        }
    }

    #[test]
    fn tuple_cost_scales_with_payload() {
        let small = CostModel::tuple_cost(ByteSize(10));
        let big = CostModel::tuple_cost(ByteSize(10_000));
        assert!(big > small);
        assert!(big.as_nanos() >= 10_000);
    }

    #[test]
    fn full_gc_dominated_by_live_set() {
        let lean = CostModel::full_gc_pause(ByteSize::mib(1), ByteSize::mib(10));
        let fat = CostModel::full_gc_pause(ByteSize::mib(9), ByteSize::mib(10));
        assert!(fat > lean * 3);
    }

    #[test]
    fn disk_faster_to_read_than_write() {
        let w = CostModel::disk_write(ByteSize::mib(64));
        let r = CostModel::disk_read(ByteSize::mib(64));
        assert!(r < w);
    }

    #[test]
    fn zero_byte_ops_cost_only_latency() {
        assert_eq!(CostModel::disk_write(ByteSize::ZERO), DISK_OP_LATENCY);
        assert_eq!(CostModel::net_transfer(ByteSize::ZERO), NET_LATENCY);
        assert_eq!(CostModel::serialize_cpu(ByteSize::ZERO), SimDuration::ZERO);
    }
}
