//! Parsing strategies: greedy and one-step-lazy.
//!
//! The paper's future work lists "further improvement opportunities on
//! the LZSS algorithm". The classic one is *lazy matching* (as in gzip):
//! before committing to a match at position `p`, peek at `p+1`; if the
//! match there is strictly longer, emit a literal for `p` and take the
//! later match. This trades a little extra search work for a better
//! parse — typically a few percent of ratio on text.

use crate::config::LzssConfig;
use crate::matchfind::{BruteForce, FinderKind, HashChain, MatchFinder};
use crate::token::Token;

/// How the tokenizer chooses between overlapping match opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseStrategy {
    /// Take the longest match at the current position (the paper's
    /// algorithm, and what the GPU kernels implement).
    #[default]
    Greedy,
    /// One-step lazy evaluation: defer to `p+1` when it matches longer.
    Lazy,
}

/// Tokenizes `input` with an explicit finder and strategy.
pub fn tokenize(
    input: &[u8],
    config: &LzssConfig,
    finder: FinderKind,
    strategy: ParseStrategy,
) -> Vec<Token> {
    let run = |f: &mut dyn MatchFinder| match strategy {
        ParseStrategy::Greedy => greedy(input, config, f),
        ParseStrategy::Lazy => lazy(input, config, f),
    };
    match finder {
        FinderKind::BruteForce => run(&mut BruteForce::new()),
        FinderKind::HashChain => run(&mut HashChain::new(config.window_size)),
    }
}

fn greedy(input: &[u8], config: &LzssConfig, finder: &mut dyn MatchFinder) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 4);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = match finder.find(input, pos, config) {
            Some(m) if m.length >= config.min_match => {
                Token::Match { distance: m.distance as u16, length: m.length as u16 }
            }
            _ => Token::Literal(input[pos]),
        };
        for p in pos..pos + token.coverage() {
            finder.insert(input, p);
        }
        pos += token.coverage();
        tokens.push(token);
    }
    tokens
}

fn lazy(input: &[u8], config: &LzssConfig, finder: &mut dyn MatchFinder) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 4);
    let mut pos = 0usize;
    // Match already computed for `pos` by a previous deferral, if any.
    let mut pending: Option<Option<crate::matchfind::FoundMatch>> = None;
    while pos < input.len() {
        let here = pending.take().unwrap_or_else(|| finder.find(input, pos, config));
        match here {
            Some(m) if m.length >= config.min_match => {
                // Peek at pos+1 (requires pos to be inserted first).
                finder.insert(input, pos);
                let next =
                    if pos + 1 < input.len() { finder.find(input, pos + 1, config) } else { None };
                let defer = next.is_some_and(|n| n.length > m.length);
                if defer {
                    tokens.push(Token::Literal(input[pos]));
                    pos += 1;
                    pending = Some(next); // reuse the peeked match
                } else {
                    tokens.push(Token::Match {
                        distance: m.distance as u16,
                        length: m.length as u16,
                    });
                    // `pos` is already inserted; cover the rest.
                    for p in pos + 1..pos + m.length {
                        finder.insert(input, p);
                    }
                    pos += m.length;
                }
            }
            _ => {
                tokens.push(Token::Literal(input[pos]));
                finder.insert(input, pos);
                pos += 1;
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format;
    use crate::serial;
    use crate::token::expand;

    fn corpora() -> Vec<Vec<u8>> {
        vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"abcbcdbcdebcdef bcdefg abc bcde".repeat(10),
            b"the theatre there then them theme ".repeat(30),
            vec![9u8; 2000],
            (0..3000u32).map(|i| ((i * 131 + i / 17) % 10) as u8 + b'a').collect(),
        ]
    }

    #[test]
    fn greedy_matches_serial_tokenize() {
        let config = LzssConfig::dipperstein();
        for data in corpora() {
            let a = tokenize(&data, &config, FinderKind::BruteForce, ParseStrategy::Greedy);
            let b = serial::tokenize(&data, &config);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lazy_roundtrips() {
        let config = LzssConfig::dipperstein();
        for data in corpora() {
            for finder in FinderKind::ALL {
                let tokens = tokenize(&data, &config, finder, ParseStrategy::Lazy);
                assert_eq!(
                    expand(&tokens, &config).unwrap(),
                    data,
                    "lazy/{} corrupted the parse",
                    finder.name()
                );
            }
        }
    }

    /// Data engineered with defer opportunities: a random prefix letter
    /// glued onto pool fragments, so the position after the letter starts
    /// a longer match than the letter position itself.
    fn lazy_friendly_corpus() -> Vec<u8> {
        let mut state = 0x1A2Bu64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let pool: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..6 + rand() % 7).map(|_| b'a' + (rand() % 26) as u8).collect())
            .collect();
        let mut data = Vec::new();
        for _ in 0..800 {
            data.push(b'A' + (rand() % 26) as u8);
            data.extend_from_slice(&pool[rand() % pool.len()]);
        }
        data
    }

    #[test]
    fn lazy_never_loses_much_and_often_wins() {
        let config = LzssConfig::dipperstein();
        let mut lazy_wins = 0usize;
        let mut all = corpora();
        all.push(lazy_friendly_corpus());
        for data in all.into_iter().filter(|d| d.len() > 100) {
            let g = tokenize(&data, &config, FinderKind::HashChain, ParseStrategy::Greedy);
            let l = tokenize(&data, &config, FinderKind::HashChain, ParseStrategy::Lazy);
            let g_len = format::encoded_len(&g, &config);
            let l_len = format::encoded_len(&l, &config);
            // One-step lazy can lose a token's worth locally, never more
            // than a few percent overall.
            assert!(l_len as f64 <= g_len as f64 * 1.02, "lazy {l_len} vs greedy {g_len}");
            if l_len < g_len {
                lazy_wins += 1;
            }
        }
        assert!(lazy_wins >= 1, "lazy should beat greedy on at least one corpus");
    }

    #[test]
    fn lazy_defers_on_the_textbook_case() {
        // At 'b' in "...ab...", greedy takes the 3-byte "bcd"; lazy sees
        // the 4-byte "cdef" one step later and defers.
        let config = LzssConfig::dipperstein();
        let data = b"bcd_cdef_abcdef";
        //           0123456789
        let lazy_tokens = tokenize(data, &config, FinderKind::BruteForce, ParseStrategy::Lazy);
        let greedy_tokens = tokenize(data, &config, FinderKind::BruteForce, ParseStrategy::Greedy);
        // Greedy at pos 10 ('b') matches "bcd"; lazy emits literal 'b'
        // then matches "cdef".
        let lazy_max = lazy_tokens
            .iter()
            .filter_map(|t| match t {
                Token::Match { length, .. } => Some(*length),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let greedy_max = greedy_tokens
            .iter()
            .filter_map(|t| match t {
                Token::Match { length, .. } => Some(*length),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(lazy_max >= 4, "{lazy_tokens:?}");
        assert!(lazy_max >= greedy_max, "lazy {lazy_max} vs greedy {greedy_max}");
    }
}

/// Optimal parsing by dynamic programming.
///
/// With fixed per-token costs (LZSS has exactly two: literal and match),
/// the bit-minimal parse is a shortest path over positions:
/// `cost[i] = min(cost[i+1] + lit_bits, min over ℓ of cost[i+ℓ] + match_bits)`
/// where ℓ ranges over achievable match lengths at `i`. Any prefix of an
/// achievable match is achievable (same source, shorter copy), so the
/// inner minimum scans `min_match..=longest(i)`.
///
/// This is the strongest member of the "improvements on the LZSS
/// algorithm" family (§VII): provably no parse encodes smaller under the
/// same token format. O(n × (window + max_match)) with the hash-chain
/// searcher.
pub fn tokenize_optimal(input: &[u8], config: &LzssConfig) -> Vec<Token> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    // Longest achievable match at every position (0 = none).
    let mut finder = HashChain::new(config.window_size);
    let mut longest: Vec<(u16, u16)> = vec![(0, 0); n]; // (distance, length)
    #[allow(clippy::needless_range_loop)] // pos also drives the finder
    for pos in 0..n {
        if let Some(m) = finder.find(input, pos, config) {
            longest[pos] = (m.distance as u16, m.length as u16);
        }
        finder.insert(input, pos);
    }

    let lit_bits = config.literal_cost_bits() as u64;
    let match_bits = config.match_cost_bits() as u64;

    // cost[i]: minimal bits to encode input[i..]; choice[i]: token taken.
    let mut cost = vec![u64::MAX; n + 1];
    let mut choice: Vec<Token> = vec![Token::Literal(0); n];
    cost[n] = 0;
    for i in (0..n).rev() {
        cost[i] = cost[i + 1].saturating_add(lit_bits);
        choice[i] = Token::Literal(input[i]);
        let (distance, len) = longest[i];
        let len = len as usize;
        if len >= config.min_match {
            for l in config.min_match..=len {
                let candidate = cost[i + l].saturating_add(match_bits);
                if candidate < cost[i] {
                    cost[i] = candidate;
                    choice[i] = Token::Match { distance, length: l as u16 };
                }
            }
        }
    }

    // Walk the choices forward.
    let mut tokens = Vec::with_capacity(n / 4);
    let mut pos = 0usize;
    while pos < n {
        let token = choice[pos];
        pos += token.coverage();
        tokens.push(token);
    }
    tokens
}

#[cfg(test)]
mod optimal_tests {
    use super::*;
    use crate::format;
    use crate::token::expand;

    fn sizes(data: &[u8], config: &LzssConfig) -> (usize, usize, usize) {
        let greedy = tokenize(data, config, FinderKind::HashChain, ParseStrategy::Greedy);
        let lazy = tokenize(data, config, FinderKind::HashChain, ParseStrategy::Lazy);
        let optimal = tokenize_optimal(data, config);
        assert_eq!(expand(&optimal, config).unwrap(), data, "optimal roundtrip");
        (
            format::encoded_len(&greedy, config),
            format::encoded_len(&lazy, config),
            format::encoded_len(&optimal, config),
        )
    }

    #[test]
    fn optimal_never_loses() {
        let config = LzssConfig::dipperstein();
        let corpora: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"bcd_cdef_abcdef".to_vec(),
            b"the theatre there then them theme ".repeat(40),
            vec![7u8; 3000],
            (0..5000u32).map(|i| ((i * 131 + i / 17) % 9) as u8 + b'a').collect(),
        ];
        for data in corpora {
            let (g, l, o) = sizes(&data, &config);
            assert!(o <= g, "optimal {o} vs greedy {g}");
            assert!(o <= l, "optimal {o} vs lazy {l}");
        }
    }

    #[test]
    fn optimal_beats_greedy_on_the_textbook_case() {
        // Greedy at 'b' takes "bcd" (3), missing the 4-byte "cdef" that
        // starts one later; optimal sees the whole graph.
        let config = LzssConfig::dipperstein();
        let data = b"bcd_cdef_xbcdefy_bcd_cdef_xbcdefy";
        let (g, _, o) = sizes(data, &config);
        assert!(o <= g, "optimal {o} vs greedy {g}");
    }

    #[test]
    fn optimal_roundtrips_on_every_corpus() {
        let config = LzssConfig::culzss_v2();
        for seed in [1u64, 2, 3] {
            let data: Vec<u8> = (0..4000)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(seed * 2654435761 + 1);
                    ((x >> 9) % 11) as u8 + b'a'
                })
                .collect();
            let tokens = tokenize_optimal(&data, &config);
            assert_eq!(expand(&tokens, &config).unwrap(), data);
        }
    }

    #[test]
    fn prefix_lengths_are_exploited() {
        // A case where taking a SHORTER-than-longest match is optimal:
        // longest match at p overlaps a better following match.
        let config = LzssConfig::dipperstein();
        // Construct: "XYZAB" ... "XYZ" usable, then "ZABCDEFGH" later.
        let data = b"xyzab__zabcdefgh__xyzabcdefgh";
        let tokens = tokenize_optimal(data, &config);
        assert_eq!(expand(&tokens, &config).unwrap(), data);
        let optimal_len = format::encoded_len(&tokens, &config);
        let greedy = tokenize(data, &config, FinderKind::HashChain, ParseStrategy::Greedy);
        assert!(optimal_len <= format::encoded_len(&greedy, &config));
    }
}
