//! Longest-match searchers for the sliding window.
//!
//! Dipperstein's LZSS page — the paper's stated basis — ships several
//! interchangeable search implementations; this module reproduces that
//! family behind one trait:
//!
//! * [`BruteForce`] — the linear window scan ("sequential search"); the
//!   cost profile the paper's GPU kernels parallelize.
//! * [`HashChain`] — hash-indexed candidate chains (his `lzhash`).
//!
//! Both share one contract, checked by unit and property tests: for
//! every position they either return `None` (no match of at least
//! `min_match` bytes exists inside the window) or the *longest*
//! `(distance, length)` pair, breaking ties towards the smallest
//! distance. [`FinderKind::auto_exact`] says when that makes their
//! streams byte-identical.

mod brute;
mod hashchain;

pub use brute::BruteForce;
pub use hashchain::HashChain;

use crate::config::LzssConfig;

/// A candidate match found in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoundMatch {
    /// Distance back from the current position (1 = previous byte).
    pub distance: usize,
    /// Match length in bytes.
    pub length: usize,
}

/// Strategy interface for window searching.
pub trait MatchFinder {
    /// Returns the best match for `data[pos..]` against the window
    /// `data[pos.saturating_sub(window)..pos]`, or `None` when no match of
    /// at least `min_match` bytes exists. Implementations must already have
    /// been fed every position `< pos` via [`MatchFinder::insert`].
    fn find(&mut self, data: &[u8], pos: usize, config: &LzssConfig) -> Option<FoundMatch>;

    /// Records that `pos` is now part of the window. Positions are never
    /// dropped, so `find` must itself bound its walk to the window.
    fn insert(&mut self, data: &[u8], pos: usize);

    /// Resets internal state so the finder can be reused on new data.
    fn reset(&mut self);
}

/// Computes the match length between `data[a..]` and `data[b..]`, capped at
/// `limit`. `a < b` is required (the match source precedes the position);
/// overlapping matches (`b - a < limit`) work naturally because the
/// comparison only ever reads already-valid positions.
#[inline]
pub fn common_prefix(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    debug_assert!(a < b);
    let mut len = 0;
    let max = limit.min(data.len() - b);
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Which finder the serial codec should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FinderKind {
    /// Linear window scan (the paper's algorithm).
    #[default]
    BruteForce,
    /// Hash-chain accelerated scan.
    HashChain,
}

impl FinderKind {
    /// All finder kinds, for cross-checking tests and benches.
    pub const ALL: [FinderKind; 2] = [FinderKind::BruteForce, FinderKind::HashChain];

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FinderKind::BruteForce => "brute-force",
            FinderKind::HashChain => "hash-chain",
        }
    }

    /// The fastest finder whose output is *byte-identical* to
    /// [`FinderKind::BruteForce`] under `config` — [`HashChain`] shares the
    /// longest-match/smallest-distance contract but needs 3-byte prefixes
    /// to index, so configs with `min_match < 3` fall back to brute force.
    /// Every preset in [`LzssConfig`] qualifies for the hash chain.
    pub fn auto_exact(config: &LzssConfig) -> FinderKind {
        if config.min_match >= 3 {
            FinderKind::HashChain
        } else {
            FinderKind::BruteForce
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LzssConfig {
        LzssConfig::dipperstein()
    }

    #[test]
    fn common_prefix_basic() {
        let data = b"abcabcx";
        assert_eq!(common_prefix(data, 0, 3, 18), 3);
        assert_eq!(common_prefix(data, 0, 6, 18), 0);
    }

    #[test]
    fn common_prefix_respects_limit_and_end() {
        let data = b"aaaaaaaa";
        assert_eq!(common_prefix(data, 0, 1, 4), 4);
        assert_eq!(common_prefix(data, 0, 6, 18), 2); // clipped by data end
    }

    /// Drives any finder over the whole input, comparing against brute
    /// force at every position.
    fn assert_lengths_match_brute(data: &[u8], finder: &mut dyn MatchFinder, config: &LzssConfig) {
        let mut brute = BruteForce::new();
        for pos in 0..data.len() {
            let want = brute.find(data, pos, config).map(|m| m.length);
            let got = finder.find(data, pos, config).map(|m| m.length);
            assert_eq!(want, got, "length mismatch at pos {pos}");
            brute.insert(data, pos);
            finder.insert(data, pos);
        }
    }

    fn corpus() -> Vec<Vec<u8>> {
        let mut state = 0xFEED_5EEDu64;
        let mut rand_bytes = |n: usize, alphabet: u8| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b'a' + ((state >> 33) % u64::from(alphabet)) as u8
                })
                .collect()
        };
        vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"abcabcabcabc".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"the quick brown fox jumps over the lazy dog and the quick cat".to_vec(),
            rand_bytes(3000, 3),
            rand_bytes(2000, 26),
        ]
    }

    #[test]
    fn all_finders_agree_with_brute_force() {
        let config = cfg();
        for data in corpus() {
            assert_lengths_match_brute(&data, &mut HashChain::new(config.window_size), &config);
        }
    }

    #[test]
    fn all_finders_agree_with_small_windows() {
        let mut config = cfg();
        config.window_size = 32;
        for data in corpus() {
            assert_lengths_match_brute(&data, &mut HashChain::new(config.window_size), &config);
        }
    }

    #[test]
    fn finder_kind_metadata() {
        let names: std::collections::BTreeSet<&str> =
            FinderKind::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), FinderKind::ALL.len());
        assert_eq!(FinderKind::default(), FinderKind::BruteForce);
    }

    #[test]
    fn auto_exact_picks_hash_chain_for_all_presets() {
        for config in [LzssConfig::dipperstein(), LzssConfig::culzss_v1(), LzssConfig::culzss_v2()]
        {
            assert_eq!(FinderKind::auto_exact(&config), FinderKind::HashChain);
        }
        let mut tiny = cfg();
        tiny.min_match = 2;
        assert_eq!(FinderKind::auto_exact(&tiny), FinderKind::BruteForce);
    }
}
