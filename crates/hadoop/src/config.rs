//! Hadoop job configuration: the framework parameters of Table 1.

use simcore::{ByteSize, FaultPlan};

/// YARN attempt budget per task (Hadoop's default, 4).
pub const MAX_ATTEMPTS: u32 = 4;

/// The knobs the paper's Table 1 reports per problem (scaled 1/1024).
#[derive(Clone, Debug)]
pub struct HadoopConfig {
    /// Cluster worker nodes.
    pub nodes: usize,
    /// Max heap per map task attempt (`MH`).
    pub map_heap: ByteSize,
    /// Max heap per reduce task attempt (`RH`).
    pub reduce_heap: ByteSize,
    /// Max concurrent mappers per node (`MM`).
    pub max_mappers: usize,
    /// Max concurrent reducers per node (`MR`).
    pub max_reducers: usize,
    /// Map output sort buffer (`io.sort.mb`; Hadoop default 100MB →
    /// 100KiB scaled).
    pub sort_buffer: ByteSize,
    /// Input split size (the HDFS block size: 128MB → 128KiB scaled).
    pub split_size: ByteSize,
    /// Reduce-side hash buckets (number of reduce tasks).
    pub reduce_tasks: u32,
    /// Fault schedule armed on every attempt JVM's substrate (chaos
    /// runs); each attempt re-salts the seed so a relaunch does not
    /// deterministically replay the same faults.
    pub fault_plan: Option<FaultPlan>,
}

impl HadoopConfig {
    /// A Table 1 style configuration: `mh`/`rh` are the *paper* heap
    /// sizes in MB (so `1024` means "1GB"); they are scaled by 1/1024
    /// into simulation bytes.
    pub fn table1(nodes: usize, mh_mb: u64, rh_mb: u64, mm: usize, mr: usize) -> Self {
        HadoopConfig {
            nodes,
            map_heap: ByteSize::kib(mh_mb),
            reduce_heap: ByteSize::kib(rh_mb),
            max_mappers: mm,
            max_reducers: mr,
            sort_buffer: ByteSize::kib(100),
            split_size: ByteSize::kib(128),
            reduce_tasks: (nodes * mr) as u32,
            fault_plan: None,
        }
    }

    /// The aggregate task memory one node controls — what the ITask
    /// version pools under a single IRS.
    pub fn pooled_heap(&self) -> ByteSize {
        let map_pool = ByteSize(self.map_heap.as_u64() * self.max_mappers as u64);
        let red_pool = ByteSize(self.reduce_heap.as_u64() * self.max_reducers as u64);
        map_pool.max(red_pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scaling() {
        // MSA: MH=RH=1GB, MM=MR=6.
        let cfg = HadoopConfig::table1(10, 1024, 1024, 6, 6);
        assert_eq!(cfg.map_heap, ByteSize::mib(1));
        assert_eq!(cfg.pooled_heap(), ByteSize::mib(6));
        assert_eq!(cfg.reduce_tasks, 60);
        // IMC: MH=0.5GB, RH=1GB, MM=13, MR=6.
        let cfg = HadoopConfig::table1(10, 512, 1024, 13, 6);
        assert_eq!(cfg.map_heap, ByteSize::kib(512));
        assert_eq!(cfg.pooled_heap(), ByteSize::kib(13 * 512));
    }
}
