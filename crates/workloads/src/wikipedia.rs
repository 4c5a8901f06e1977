//! Wikipedia-style articles: Zipf word frequencies (IMC / IIB / WCM) and
//! heavy-tailed sentence lengths (CRP's lemmatizer killer — a few very
//! long sentences whose per-sentence scratch memory is ~1000× the
//! sentence itself, §2).

use simcore::jbloat::{self, HeapSized};
use simcore::rng::BoundedPareto;
use simcore::{prof, ByteSize, DetRng};

use crate::words::WordDist;

/// Vocabulary size of the word distribution.
const VOCAB: usize = 65_536;

/// One article.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Article {
    /// Article id.
    pub id: u64,
    /// Word ids, in order.
    pub words: Vec<u32>,
    /// Sentence lengths in characters (sums to roughly `chars`).
    pub sentence_chars: Vec<u32>,
    /// Total characters.
    pub chars: u64,
}

impl HeapSized for Article {
    fn heap_bytes(&self) -> u64 {
        jbloat::string(self.chars) + jbloat::object(2, 16)
    }

    fn ser_bytes(&self) -> u64 {
        self.chars
    }
}

/// Generator for a Wikipedia dataset (scaled 1/1024).
#[derive(Clone, Debug)]
pub struct WikipediaConfig {
    /// Dataset label ("49GB" full dump or "5GB" sample).
    pub label: &'static str,
    /// Scaled article count.
    pub articles: u64,
    /// Scaled payload bytes.
    pub total_bytes: ByteSize,
    /// Longest sentence in characters (CRP's pain point).
    pub max_sentence_chars: u64,
    /// Generator seed.
    pub seed: u64,
    dist: WordDist,
}

impl WikipediaConfig {
    /// The paper's "Wikipedia FD 49GB" (4.7M articles), scaled.
    pub fn full_dump(seed: u64) -> Self {
        Self::new("49GB", 4_700_000 / simcore::SCALE, ByteSize::gib(49), seed)
    }

    /// The paper's "Wikipedia SP 5GB" sample (490K articles), scaled.
    pub fn sample(seed: u64) -> Self {
        Self::new("5GB", 490_000 / simcore::SCALE, ByteSize::gib(5), seed)
    }

    fn new(label: &'static str, articles: u64, paper_bytes: ByteSize, seed: u64) -> Self {
        WikipediaConfig {
            label,
            articles,
            total_bytes: ByteSize(paper_bytes.as_u64() / simcore::SCALE),
            max_sentence_chars: 16 * 1024,
            seed,
            dist: WordDist::new(VOCAB, 1.0),
        }
    }

    /// Mean characters per article.
    pub fn mean_chars(&self) -> u64 {
        self.total_bytes.as_u64() / self.articles.max(1)
    }

    /// Number of blocks at `block_size`.
    pub fn num_blocks(&self, block_size: ByteSize) -> u64 {
        self.total_bytes
            .as_u64()
            .div_ceil(block_size.as_u64())
            .max(1)
    }

    /// Generates block `index` deterministically.
    pub fn block(&self, index: u64, block_size: ByteSize) -> Vec<Article> {
        let _wall = prof::wall_timer(prof::Stage::Generate);
        let n_blocks = self.num_blocks(block_size);
        assert!(index < n_blocks, "block {index} out of {n_blocks}");
        // Spread the division remainder across blocks so no block is
        // oversized (block i covers [i*T/n, (i+1)*T/n)).
        let first = index * self.articles / n_blocks;
        let count = (index + 1) * self.articles / n_blocks - first;
        let mut rng = DetRng::new(self.seed).fork(index);
        let mean = self.mean_chars();
        // Sentence lengths: bounded Pareto mean ≈ 80 chars.
        let sentence_len = BoundedPareto::new(30, self.max_sentence_chars, 1.6);
        // `Range<u64>` is not `ExactSizeIterator`, so a plain collect
        // would grow the vec; pre-size it instead.
        let mut articles = Vec::with_capacity(count as usize);
        for i in 0..count {
            // Article length varies ±60% around the mean.
            let chars = rng.range_inclusive(mean * 2 / 5, mean * 8 / 5);
            // ~6.5 chars per word (word + space).
            let n_words = (chars / 6).max(1) as usize;
            let words = self.dist.sample_many(&mut rng, n_words);
            // Split into sentences with a heavy-tailed length mix (the
            // capacity guess only has to be in the right ballpark to
            // avoid regrows).
            let mut sentence_chars = Vec::with_capacity((chars / 64 + 1) as usize);
            let mut remaining = chars;
            while remaining > 0 {
                let s = sentence_len.sample(&mut rng).min(remaining) as u32;
                sentence_chars.push(s.max(1));
                remaining = remaining.saturating_sub(s as u64);
            }
            articles.push(Article {
                id: first + i,
                words,
                sentence_chars,
                chars,
            });
        }
        prof::count(prof::Stage::Generate, 1, articles.len() as u64);
        articles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_scaled() {
        let fd = WikipediaConfig::full_dump(1);
        assert_eq!(fd.articles, 4589);
        assert_eq!(fd.total_bytes, ByteSize::mib(49));
        let sp = WikipediaConfig::sample(1);
        assert_eq!(sp.articles, 478);
        assert_eq!(sp.total_bytes, ByteSize::mib(5));
    }

    #[test]
    fn blocks_deterministic_and_complete() {
        let cfg = WikipediaConfig::sample(2);
        let bs = ByteSize::kib(128);
        assert_eq!(cfg.block(0, bs), cfg.block(0, bs));
        let total: u64 = (0..cfg.num_blocks(bs))
            .map(|b| cfg.block(b, bs).len() as u64)
            .sum();
        assert_eq!(total, cfg.articles);
    }

    #[test]
    fn sentences_cover_article_and_have_long_tail() {
        let cfg = WikipediaConfig::sample(3);
        let mut longest = 0u32;
        for art in cfg.block(0, ByteSize::kib(128)) {
            let sum: u64 = art.sentence_chars.iter().map(|&c| c as u64).sum();
            assert!(sum >= art.chars, "sentences must cover the article");
            longest = longest.max(*art.sentence_chars.iter().max().unwrap());
        }
        assert!(longest > 1000, "no long sentences: {longest}");
    }

    #[test]
    fn word_frequencies_are_zipfian() {
        let cfg = WikipediaConfig::sample(4);
        let mut counts = std::collections::BTreeMap::new();
        for art in cfg.block(0, ByteSize::kib(128)) {
            for w in art.words {
                *counts.entry(w).or_insert(0u64) += 1;
            }
        }
        let top = counts.values().max().copied().unwrap_or(0);
        let total: u64 = counts.values().sum();
        // The hottest word should carry a few percent of all mass.
        assert!(top as f64 > total as f64 * 0.01, "top {top} of {total}");
    }

    #[test]
    fn bytes_near_target() {
        let cfg = WikipediaConfig::sample(5);
        let bs = ByteSize::kib(256);
        let mut bytes = 0u64;
        for b in 0..cfg.num_blocks(bs) {
            bytes += cfg.block(b, bs).iter().map(|a| a.chars).sum::<u64>();
        }
        let err = (bytes as f64 - cfg.total_bytes.as_u64() as f64).abs()
            / cfg.total_bytes.as_u64() as f64;
        assert!(err < 0.25, "bytes {bytes} err {err}");
    }
}
