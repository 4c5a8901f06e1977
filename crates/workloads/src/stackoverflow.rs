//! StackOverflow-style posts with heavy-tailed lengths: the *hot keys*
//! root cause of §2 — a handful of wildly popular posts whose assembled
//! XML objects can consume most of a task's heap on their own.

use simcore::jbloat::{self, HeapSized};
use simcore::rng::BoundedPareto;
use simcore::{prof, ByteSize, DetRng};

/// One post (with its answers/comments folded into `body_chars`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Post {
    /// Post id.
    pub id: u64,
    /// Characters of the post plus its whole discussion thread.
    pub body_chars: u64,
    /// Number of answers in the thread.
    pub answers: u32,
    /// Vote score.
    pub score: i32,
}

impl Post {
    /// Whether this is one of the pathological "long post" hot keys.
    pub fn is_hot(&self) -> bool {
        self.body_chars > 16 * 1024
    }
}

impl HeapSized for Post {
    fn heap_bytes(&self) -> u64 {
        // The raw record as read: a String of the XML row.
        jbloat::string(self.body_chars) + jbloat::object(2, 16)
    }

    fn ser_bytes(&self) -> u64 {
        self.body_chars + 64
    }
}

/// Generator for a StackOverflow dump (scaled 1/1024 from the paper's
/// 29GB full dump with 25.8M posts).
#[derive(Clone, Debug)]
pub struct StackOverflowConfig {
    /// Scaled number of posts.
    pub posts: u64,
    /// Scaled payload bytes.
    pub total_bytes: ByteSize,
    /// Longest thread (the hottest key), in characters.
    pub max_post_chars: u64,
    /// Generator seed.
    pub seed: u64,
}

impl StackOverflowConfig {
    /// The paper's "StackOverflow FD 29GB" dataset, scaled.
    pub fn full_dump(seed: u64) -> Self {
        StackOverflowConfig {
            posts: 25_800_000 / simcore::SCALE,
            total_bytes: ByteSize(ByteSize::gib(29).as_u64() / simcore::SCALE),
            // A single thread whose UTF-16 string form approaches a
            // fifth of a 1GB (scaled: 1MiB) task heap on its own.
            max_post_chars: 64 * 1024,
            seed,
        }
    }

    /// Mean characters per post.
    pub fn mean_chars(&self) -> u64 {
        self.total_bytes.as_u64() / self.posts.max(1)
    }

    /// Number of blocks at `block_size`.
    pub fn num_blocks(&self, block_size: ByteSize) -> u64 {
        self.total_bytes
            .as_u64()
            .div_ceil(block_size.as_u64())
            .max(1)
    }

    /// Generates block `index`: a contiguous run of posts whose lengths
    /// follow a bounded Pareto, rescaled so the dataset hits its byte
    /// target with a genuinely hot tail.
    pub fn block(&self, index: u64, block_size: ByteSize) -> Vec<Post> {
        let _wall = prof::wall_timer(prof::Stage::Generate);
        let n_blocks = self.num_blocks(block_size);
        assert!(index < n_blocks, "block {index} out of {n_blocks}");
        // Spread the division remainder across blocks so no block is
        // oversized (block i covers [i*T/n, (i+1)*T/n)).
        let first = index * self.posts / n_blocks;
        let count = (index + 1) * self.posts / n_blocks - first;
        let mut rng = DetRng::new(self.seed).fork(index);
        let mean = self.mean_chars() as f64;
        let raw_len = BoundedPareto::new(64, self.max_post_chars, 1.25);
        let raw_mean = raw_len.mean();
        prof::count(prof::Stage::Generate, 1, count);
        (0..count)
            .map(|i| {
                let raw = raw_len.sample(&mut rng) as f64;
                let body_chars = ((raw * mean / raw_mean) as u64).clamp(64, self.max_post_chars);
                Post {
                    id: first + i,
                    body_chars,
                    answers: (body_chars / 400) as u32,
                    score: rng.below(1000) as i32 - 100,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dump_is_scaled() {
        let cfg = StackOverflowConfig::full_dump(1);
        assert_eq!(cfg.posts, 25_195);
        assert_eq!(cfg.total_bytes, ByteSize::mib(29));
        assert!(cfg.mean_chars() > 1000);
    }

    #[test]
    fn block_generation_is_deterministic_and_complete() {
        let cfg = StackOverflowConfig::full_dump(2);
        let bs = ByteSize::kib(128);
        assert_eq!(cfg.block(0, bs), cfg.block(0, bs));
        let total: u64 = (0..cfg.num_blocks(bs))
            .map(|b| cfg.block(b, bs).len() as u64)
            .sum();
        assert_eq!(total, cfg.posts);
    }

    #[test]
    fn posts_have_a_hot_tail() {
        let cfg = StackOverflowConfig::full_dump(3);
        let bs = ByteSize::kib(128);
        let mut hot = 0u64;
        let mut max_chars = 0u64;
        let mut bytes = 0u64;
        for b in 0..cfg.num_blocks(bs) {
            for p in cfg.block(b, bs) {
                if p.is_hot() {
                    hot += 1;
                }
                max_chars = max_chars.max(p.body_chars);
                bytes += p.body_chars;
            }
        }
        // Hot posts exist but are rare.
        assert!(hot > 0, "no hot posts generated");
        assert!(hot < cfg.posts / 100, "too many hot posts: {hot}");
        // The hottest approaches the configured ceiling.
        assert!(max_chars > cfg.max_post_chars / 2, "max {max_chars}");
        // Total bytes near target.
        let err = (bytes as f64 - cfg.total_bytes.as_u64() as f64).abs()
            / cfg.total_bytes.as_u64() as f64;
        assert!(err < 0.35, "bytes {bytes} err {err}");
    }

    #[test]
    fn post_bloat_tracks_body() {
        let p = Post {
            id: 1,
            body_chars: 1000,
            answers: 2,
            score: 3,
        };
        assert!(p.heap_bytes() > 2000); // UTF-16 + headers
        assert!(!p.is_hot());
        let h = Post {
            id: 2,
            body_chars: 40_000,
            answers: 100,
            score: 9,
        };
        assert!(h.is_hot());
    }
}
