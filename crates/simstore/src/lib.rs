#![warn(missing_docs)]

//! Simulated storage: per-node disks priced by the cost model's disk
//! terms.
//!
//! Stands in for the paper's SSD RAID-0 volumes. The ITask partition
//! manager serializes partitions here and the MapReduce engine spills
//! map buffers here. There is no distributed block store: input blocks
//! are generated in memory and handed to nodes by their callers
//! (`hadoop_apps::wikipedia_splits` for Hadoop, `hyracks::distribute_blocks`
//! for Hyracks).

pub mod disk;

pub use disk::{Disk, DiskFile, DiskStats, FileId};
