//! A power-law web graph: the stand-in for the Yahoo! Webmap (Table 3).
//!
//! Records are adjacency-list text lines (`vertex neighbor neighbor …`),
//! which is how WC / HS / II consume the dataset: WC tokenizes the ids,
//! HS sorts the lines, II inverts vertex → neighbors.

use simcore::jbloat::{self, HeapSized};
use simcore::rng::BoundedPareto;
use simcore::{prof, ByteSize, DetRng};

/// The six dataset sizes of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WebmapSize {
    /// The full webmap ("72GB": 1.41B vertices, 8.05B edges).
    G72,
    /// "44GB": 0.99B vertices, 4.47B edges.
    G44,
    /// "27GB": 0.59B vertices, 2.44B edges.
    G27,
    /// "14GB": 143M vertices, 1.47B edges.
    G14,
    /// "10GB": 76M vertices, 1.08B edges.
    G10,
    /// "3GB": 25M vertices, 314M edges.
    G3,
}

impl WebmapSize {
    /// All sizes, largest first (the order of Table 3).
    pub const ALL: [WebmapSize; 6] = [
        WebmapSize::G72,
        WebmapSize::G44,
        WebmapSize::G27,
        WebmapSize::G14,
        WebmapSize::G10,
        WebmapSize::G3,
    ];

    /// The paper's label for this dataset.
    pub fn label(self) -> &'static str {
        match self {
            WebmapSize::G72 => "72GB",
            WebmapSize::G44 => "44GB",
            WebmapSize::G27 => "27GB",
            WebmapSize::G14 => "14GB",
            WebmapSize::G10 => "10GB",
            WebmapSize::G3 => "3GB",
        }
    }

    /// Paper-scale (vertices, edges) from Table 3.
    pub fn paper_counts(self) -> (u64, u64) {
        match self {
            WebmapSize::G72 => (1_413_511_390, 8_050_112_169),
            WebmapSize::G44 => (992_128_706, 4_474_491_119),
            WebmapSize::G27 => (587_703_486, 2_441_014_870),
            WebmapSize::G14 => (143_060_913, 1_470_129_872),
            WebmapSize::G10 => (75_605_388, 1_082_093_483),
            WebmapSize::G3 => (24_973_544, 313_833_543),
        }
    }

    /// Paper-scale byte size.
    pub fn paper_bytes(self) -> ByteSize {
        match self {
            WebmapSize::G72 => ByteSize::gib(72),
            WebmapSize::G44 => ByteSize::gib(44),
            WebmapSize::G27 => ByteSize::gib(27),
            WebmapSize::G14 => ByteSize::gib(14),
            WebmapSize::G10 => ByteSize::gib(10),
            WebmapSize::G3 => ByteSize::gib(3),
        }
    }
}

/// One adjacency-list line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjRecord {
    /// The source vertex.
    pub vertex: u64,
    /// Its out-neighbours.
    pub neighbors: Vec<u64>,
}

impl AdjRecord {
    /// Characters of the text line (ids as ~10-digit decimals plus
    /// separators).
    pub fn chars(&self) -> u64 {
        11 * (1 + self.neighbors.len() as u64)
    }
}

impl HeapSized for AdjRecord {
    fn heap_bytes(&self) -> u64 {
        // The line as a Java String (what a TextInputFormat record is).
        jbloat::string(self.chars())
    }

    fn ser_bytes(&self) -> u64 {
        // On disk it is UTF-8 text.
        self.chars()
    }
}

/// Generator for one webmap dataset (scaled 1/1024 from Table 3).
#[derive(Clone, Debug)]
pub struct WebmapConfig {
    /// Which Table 3 row.
    pub size: WebmapSize,
    /// Scaled vertex count.
    pub vertices: u64,
    /// Scaled edge target.
    pub edges: u64,
    /// Scaled payload bytes.
    pub total_bytes: ByteSize,
    /// Generator seed.
    pub seed: u64,
}

impl WebmapConfig {
    /// The scaled dataset for a Table 3 row.
    pub fn preset(size: WebmapSize, seed: u64) -> Self {
        let (v, e) = size.paper_counts();
        WebmapConfig {
            size,
            vertices: v / simcore::SCALE,
            edges: e / simcore::SCALE,
            total_bytes: ByteSize(size.paper_bytes().as_u64() / simcore::SCALE),
            seed,
        }
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        self.edges as f64 / self.vertices.max(1) as f64
    }

    /// Number of blocks at `block_size`.
    pub fn num_blocks(&self, block_size: ByteSize) -> u64 {
        self.total_bytes
            .as_u64()
            .div_ceil(block_size.as_u64())
            .max(1)
    }

    /// Generates block `index` (deterministic in `(seed, index)`).
    ///
    /// Vertices are distributed evenly across blocks; out-degrees follow
    /// a heavy-tailed distribution calibrated to the mean degree, so a
    /// few vertices have enormous adjacency lists (the hot keys that
    /// break II and WC in the paper).
    pub fn block(&self, index: u64, block_size: ByteSize) -> Vec<AdjRecord> {
        let _wall = prof::wall_timer(prof::Stage::Generate);
        let n_blocks = self.num_blocks(block_size);
        assert!(index < n_blocks, "block {index} out of {n_blocks}");
        // Spread the division remainder across blocks so no block is
        // oversized (block i covers [i*T/n, (i+1)*T/n)).
        let first = index * self.vertices / n_blocks;
        let count = (index + 1) * self.vertices / n_blocks - first;
        let mut rng = DetRng::new(self.seed).fork(index);
        let mean = self.mean_degree();
        let dmax = (self.vertices / 8).max(16);
        // Out-degrees: a bounded Pareto rescaled to the target mean.
        let raw_degree = BoundedPareto::new(1, dmax, DEGREE_ALPHA);
        let raw_mean = raw_degree.mean();
        // `Range<u64>` is not `ExactSizeIterator`, so a plain collect
        // would grow the vecs; pre-size them instead.
        let mut recs = Vec::with_capacity(count as usize);
        for i in 0..count {
            let vertex = first + i;
            let raw = raw_degree.sample(&mut rng) as f64;
            let deg = ((raw * mean / raw_mean).round() as u64).clamp(1, dmax);
            let mut neighbors = Vec::with_capacity(deg as usize);
            for _ in 0..deg {
                neighbors.push(rng.below(self.vertices.max(1)));
            }
            recs.push(AdjRecord { vertex, neighbors });
        }
        prof::count(prof::Stage::Generate, 1, recs.len() as u64);
        recs
    }

    /// Exact generated statistics (iterates every block).
    pub fn exact_stats(&self, block_size: ByteSize) -> (u64, u64, ByteSize) {
        let mut vertices = 0;
        let mut edges = 0;
        let mut bytes = 0;
        for b in 0..self.num_blocks(block_size) {
            for rec in self.block(b, block_size) {
                vertices += 1;
                edges += rec.neighbors.len() as u64;
                bytes += rec.chars();
            }
        }
        (vertices, edges, ByteSize(bytes))
    }
}

/// Shape of the bounded Pareto that out-degrees are drawn from.
const DEGREE_ALPHA: f64 = 1.7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_the_paper_numbers() {
        let cfg = WebmapConfig::preset(WebmapSize::G72, 1);
        assert_eq!(cfg.vertices, 1_413_511_390 / 1024);
        assert_eq!(cfg.edges, 8_050_112_169 / 1024);
        assert_eq!(cfg.total_bytes, ByteSize::mib(72));
        assert!((cfg.mean_degree() - 5.7).abs() < 0.2);
    }

    #[test]
    fn blocks_cover_all_vertices_exactly_once() {
        let cfg = WebmapConfig::preset(WebmapSize::G3, 2);
        let bs = ByteSize::kib(128);
        let mut seen = 0u64;
        let mut last_vertex = None;
        for b in 0..cfg.num_blocks(bs) {
            for rec in cfg.block(b, bs) {
                if let Some(prev) = last_vertex {
                    assert_eq!(rec.vertex, prev + 1, "vertices must be contiguous");
                }
                last_vertex = Some(rec.vertex);
                seen += 1;
            }
        }
        assert_eq!(seen, cfg.vertices);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WebmapConfig::preset(WebmapSize::G3, 7);
        let a = cfg.block(3, ByteSize::kib(128));
        let b = cfg.block(3, ByteSize::kib(128));
        assert_eq!(a, b);
        // Different seeds differ.
        let cfg2 = WebmapConfig::preset(WebmapSize::G3, 8);
        assert_ne!(a, cfg2.block(3, ByteSize::kib(128)));
    }

    #[test]
    fn edge_count_and_bytes_near_target() {
        let cfg = WebmapConfig::preset(WebmapSize::G3, 3);
        let (v, e, bytes) = cfg.exact_stats(ByteSize::kib(128));
        assert_eq!(v, cfg.vertices);
        let edge_err = (e as f64 - cfg.edges as f64).abs() / cfg.edges as f64;
        assert!(
            edge_err < 0.25,
            "edges {e} vs target {} (err {edge_err})",
            cfg.edges
        );
        let byte_err = (bytes.as_u64() as f64 - cfg.total_bytes.as_u64() as f64).abs()
            / cfg.total_bytes.as_u64() as f64;
        assert!(
            byte_err < 0.35,
            "bytes {bytes} vs {} (err {byte_err})",
            cfg.total_bytes
        );
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let cfg = WebmapConfig::preset(WebmapSize::G3, 4);
        let mut max_deg = 0usize;
        let mut total = 0usize;
        let mut n = 0usize;
        for b in 0..4 {
            for rec in cfg.block(b, ByteSize::kib(128)) {
                max_deg = max_deg.max(rec.neighbors.len());
                total += rec.neighbors.len();
                n += 1;
            }
        }
        let mean = total as f64 / n as f64;
        assert!(max_deg as f64 > 20.0 * mean, "max {max_deg} mean {mean}");
    }

    #[test]
    fn record_bloat_exceeds_text_size() {
        let rec = AdjRecord {
            vertex: 1,
            neighbors: vec![2, 3, 4],
        };
        assert!(rec.heap_bytes() > rec.ser_bytes());
        assert_eq!(rec.ser_bytes(), rec.chars());
    }
}
