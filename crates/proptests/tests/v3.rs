//! Property tests for the V3 engine's selection → scan handoff.
//!
//! The V3 compaction kernel writes each token at an offset derived from
//! a Hillis–Steele prefix sum over per-token encoded sizes, with flag
//! bytes interleaved one per 8-token group. The closed form the kernel
//! uses is `off(i) = i/8 + 1 + i + matches_before(i)` — the exclusive
//! prefix sum of `(size(t) = 1 literal / 2 match)` plus the flag bytes
//! of the groups at or before token `i`. These properties pin that the
//! closed form is exactly a partition of the Fixed16 body
//! [`culzss_lzss::format::encode_into`] emits: no gaps, no overlap, and
//! each token's bytes land precisely at its computed offset. Any drift
//! between the scan and the byte format shrinks to a minimal
//! counterexample token stream here, long before the byte-compat
//! differential suite points at a whole corpus.

use culzss::metered::{select_records_into, MatchSearcher};
use culzss::CulzssParams;
use culzss_lzss::format;
use culzss_lzss::token::Token;
use proptest::prelude::*;

fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..3000),
        proptest::collection::vec(prop_oneof![Just(b'x'), Just(b'y'), Just(b' ')], 0..3000),
        (proptest::collection::vec(any::<u8>(), 1..25), 1usize..200).prop_map(|(pat, reps)| pat
            .iter()
            .cycle()
            .take(pat.len() * reps)
            .copied()
            .collect()),
    ]
}

/// The selection pass exactly as V3's on-device walk performs it:
/// per-position V2 match records, then the greedy overlap resolution.
fn v3_tokens(chunk: &[u8]) -> Vec<Token> {
    let config = CulzssParams::v3().lzss_config();
    let mut searcher = MatchSearcher::new(chunk, &config);
    let records: Vec<(u16, u16)> =
        (0..chunk.len()).map(|pos| searcher.search(pos)).map(|m| (m.distance, m.length)).collect();
    let mut tokens = Vec::new();
    select_records_into(chunk, &records, &config, &mut tokens);
    tokens
}

/// The compaction kernel's closed-form output offset for token `i`
/// (`m_before` = match tokens among `0..i`): every 8-token group is
/// preceded by one flag byte, literals take 1 body byte, matches 2.
fn v3_offset(i: usize, m_before: usize) -> usize {
    i / 8 + 1 + i + m_before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scan's closed form partitions the encoded body: token `i`'s
    /// offset is the exclusive prefix sum of sizes plus flag bytes, the
    /// step to token `i+1` is exactly `size(i)` (+1 crossing a group
    /// boundary), and the last token ends exactly at the body length.
    #[test]
    fn selection_scan_offsets_partition_the_encoded_body(data in inputs()) {
        let config = CulzssParams::v3().lzss_config();
        let tokens = v3_tokens(&data);
        let body = format::encode(&tokens, &config);
        prop_assert_eq!(body.len(), format::encoded_len(&tokens, &config));

        let mut m_before = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            let off = v3_offset(i, m_before);
            let size = if t.is_match() { 2 } else { 1 };
            // No gap, no overlap: the next token starts where this one
            // ends, plus one flag byte when it opens a new group.
            let next_m = m_before + usize::from(t.is_match());
            if i + 1 < tokens.len() {
                let flag = usize::from((i + 1).is_multiple_of(8));
                prop_assert_eq!(
                    v3_offset(i + 1, next_m),
                    off + size + flag,
                    "gap between tokens {} and {}", i, i + 1
                );
            } else {
                prop_assert_eq!(off + size, body.len(), "last token misses the body end");
            }
            m_before = next_m;
        }
        if tokens.is_empty() {
            prop_assert!(body.is_empty());
        }
    }

    /// Each token's bytes land at its computed offset: the literal byte
    /// verbatim, the match as Fixed16 `(distance - 1, length - min_match)`,
    /// and the group's flag byte (at `off - 1` for the group opener)
    /// carries the token's match bit — exactly the bytes the compaction
    /// kernel scatters.
    #[test]
    fn tokens_scattered_at_their_offsets_reproduce_the_body(data in inputs()) {
        let config = CulzssParams::v3().lzss_config();
        let tokens = v3_tokens(&data);
        let body = format::encode(&tokens, &config);

        let mut m_before = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            let off = v3_offset(i, m_before);
            match *t {
                Token::Literal(b) => prop_assert_eq!(body[off], b, "literal {} misplaced", i),
                Token::Match { distance, length } => {
                    prop_assert_eq!(body[off], (distance - 1) as u8, "match {} offset byte", i);
                    prop_assert_eq!(
                        body[off + 1],
                        (length as usize - config.min_match) as u8,
                        "match {} length byte", i
                    );
                }
            }
            if i.is_multiple_of(8) {
                let flags = body[off - 1];
                prop_assert_eq!(
                    flags & 0x80 != 0,
                    t.is_match(),
                    "group flag byte disagrees with token {}", i
                );
            }
            m_before += usize::from(t.is_match());
        }
    }

    /// The selection output itself is a gapless cover of the chunk —
    /// the walk-resume invariant the fused kernel relies on when a
    /// segment boundary lands mid-token.
    #[test]
    fn selection_covers_the_chunk_exactly(data in inputs()) {
        let tokens = v3_tokens(&data);
        let covered: usize = tokens.iter().map(|t| t.coverage()).sum();
        prop_assert_eq!(covered, data.len());
    }
}
