//! The cost model: how many virtual nanoseconds each simulated action
//! costs.
//!
//! All terms are linear in bytes or tuples (plus small fixed latencies), so
//! the 1/1024 data scaling of the reproduction (see [`crate::SCALE`])
//! preserves every ratio the paper reports. The default constants are
//! loosely calibrated to the paper's testbed: c3.2xlarge nodes (8 cores),
//! HotSpot's parallel generational collector, SSD RAID-0 storage and
//! enhanced (10 GbE-class) networking.

use crate::bytes::ByteSize;
use crate::time::{round_to_u64, SimDuration};

/// Virtual-time costs for CPU work, garbage collection, disk and network.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed CPU cost to process one tuple (dispatch, iterator overhead).
    pub tuple_fixed_ns: u64,
    /// CPU cost per payload byte processed (~1 GB/s parse rate).
    pub cpu_ns_per_byte: f64,

    /// Fixed pause of a minor (young-generation) collection.
    pub gc_minor_fixed: SimDuration,
    /// Copy cost per surviving young byte (~2 GB/s evacuation).
    pub gc_minor_ns_per_survivor_byte: f64,
    /// Fixed pause of a full collection.
    pub gc_full_fixed: SimDuration,
    /// Mark cost per live heap byte (~1 GB/s tracing).
    pub gc_full_ns_per_live_byte: f64,
    /// Sweep cost per used heap byte.
    pub gc_full_ns_per_used_byte: f64,

    /// Sequential disk write bandwidth (bytes/second).
    pub disk_write_bps: u64,
    /// Sequential disk read bandwidth (bytes/second).
    pub disk_read_bps: u64,
    /// Fixed latency per disk operation.
    pub disk_op_latency: SimDuration,
    /// CPU cost per byte to serialize an object graph.
    pub serialize_ns_per_byte: f64,
    /// CPU cost per byte to deserialize (object construction is pricier).
    pub deserialize_ns_per_byte: f64,

    /// Network bandwidth between any two nodes (bytes/second).
    pub net_bps: u64,
    /// Fixed network latency per transfer.
    pub net_latency: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            tuple_fixed_ns: 120,
            cpu_ns_per_byte: 1.0,
            gc_minor_fixed: SimDuration::from_micros(30),
            gc_minor_ns_per_survivor_byte: 0.5,
            gc_full_fixed: SimDuration::from_micros(150),
            gc_full_ns_per_live_byte: 1.0,
            gc_full_ns_per_used_byte: 0.12,
            disk_write_bps: 400 * crate::MIB,
            disk_read_bps: 500 * crate::MIB,
            disk_op_latency: SimDuration::from_micros(100),
            serialize_ns_per_byte: 0.8,
            deserialize_ns_per_byte: 1.4,
            net_bps: 1_250 * crate::MIB,
            net_latency: SimDuration::from_micros(50),
        }
    }
}

fn ns_per_bytes(rate_ns_per_byte: f64, bytes: u64) -> SimDuration {
    SimDuration::from_nanos(round_to_u64(rate_ns_per_byte * bytes as f64))
}

fn bandwidth_time(bps: u64, bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / bps.max(1) as f64)
}

impl CostModel {
    /// CPU cost to process one tuple carrying `payload` bytes.
    pub fn tuple_cost(&self, payload: ByteSize) -> SimDuration {
        SimDuration::from_nanos(self.tuple_fixed_ns)
            + ns_per_bytes(self.cpu_ns_per_byte, payload.as_u64())
    }

    /// Pause of a minor collection with `survivors` bytes evacuated.
    pub fn minor_gc_pause(&self, survivors: ByteSize) -> SimDuration {
        self.gc_minor_fixed + ns_per_bytes(self.gc_minor_ns_per_survivor_byte, survivors.as_u64())
    }

    /// Pause of a full collection over `live` live bytes in a heap with
    /// `used` bytes occupied.
    pub fn full_gc_pause(&self, live: ByteSize, used: ByteSize) -> SimDuration {
        self.gc_full_fixed
            + ns_per_bytes(self.gc_full_ns_per_live_byte, live.as_u64())
            + ns_per_bytes(self.gc_full_ns_per_used_byte, used.as_u64())
    }

    /// Time to write `bytes` sequentially to disk.
    pub fn disk_write(&self, bytes: ByteSize) -> SimDuration {
        self.disk_op_latency + bandwidth_time(self.disk_write_bps, bytes.as_u64())
    }

    /// Time to read `bytes` sequentially from disk.
    pub fn disk_read(&self, bytes: ByteSize) -> SimDuration {
        self.disk_op_latency + bandwidth_time(self.disk_read_bps, bytes.as_u64())
    }

    /// CPU time to serialize `bytes` of object graph.
    pub fn serialize_cpu(&self, bytes: ByteSize) -> SimDuration {
        ns_per_bytes(self.serialize_ns_per_byte, bytes.as_u64())
    }

    /// CPU time to deserialize `bytes` back into an object graph.
    pub fn deserialize_cpu(&self, bytes: ByteSize) -> SimDuration {
        ns_per_bytes(self.deserialize_ns_per_byte, bytes.as_u64())
    }

    /// Time to move `bytes` across the network between two nodes.
    pub fn net_transfer(&self, bytes: ByteSize) -> SimDuration {
        self.net_latency + bandwidth_time(self.net_bps, bytes.as_u64())
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
            let c = CostModel::default();
            for rate in [
                c.cpu_ns_per_byte,
                c.gc_minor_ns_per_survivor_byte,
                c.gc_full_ns_per_live_byte,
                c.gc_full_ns_per_used_byte,
                c.serialize_ns_per_byte,
                c.deserialize_ns_per_byte,
            ] {
                let x = rate * bytes as f64;
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{} * {}", rate, bytes);
            }
            for bps in [c.disk_write_bps, c.disk_read_bps, c.net_bps] {
                let x = bytes as f64 / bps as f64 * 1e9;
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{} / {}", bytes, bps);
            }
        }
    }

    #[test]
    fn tuple_cost_scales_with_payload() {
        let c = CostModel::default();
        let small = c.tuple_cost(ByteSize(10));
        let big = c.tuple_cost(ByteSize(10_000));
        assert!(big > small);
        assert!(big.as_nanos() >= 10_000);
    }

    #[test]
    fn full_gc_dominated_by_live_set() {
        let c = CostModel::default();
        let lean = c.full_gc_pause(ByteSize::mib(1), ByteSize::mib(10));
        let fat = c.full_gc_pause(ByteSize::mib(9), ByteSize::mib(10));
        assert!(fat > lean * 3);
    }

    #[test]
    fn disk_faster_to_read_than_write() {
        let c = CostModel::default();
        let w = c.disk_write(ByteSize::mib(64));
        let r = c.disk_read(ByteSize::mib(64));
        assert!(r < w);
    }

    #[test]
    fn zero_byte_ops_cost_only_latency() {
        let c = CostModel::default();
        assert_eq!(c.disk_write(ByteSize::ZERO), c.disk_op_latency);
        assert_eq!(c.net_transfer(ByteSize::ZERO), c.net_latency);
        assert_eq!(c.serialize_cpu(ByteSize::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_time_handles_zero_rate() {
        // A zero-bandwidth disk clamps to 1 B/s rather than dividing by zero.
        let c = CostModel {
            disk_write_bps: 0,
            ..CostModel::default()
        };
        let t = c.disk_write(ByteSize(5));
        assert!(t > SimDuration::from_secs(4));
    }
}
