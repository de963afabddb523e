//! Property-based tests for the LZSS core.
//!
//! Invariants checked:
//! 1. compress ∘ decompress = identity for every configuration preset,
//!    match finder, and input distribution;
//! 2. tokenize produces tokens that exactly cover the input and respect the
//!    configuration bounds;
//! 3. both byte formats roundtrip arbitrary valid token sequences;
//! 4. decoders never panic on arbitrary (corrupt) input bytes.

use culzss_lzss::config::LzssConfig;
use culzss_lzss::format;
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::serial;
use culzss_lzss::token::{expand, Token};
use proptest::prelude::*;

fn configs() -> impl Strategy<Value = LzssConfig> {
    prop_oneof![
        Just(LzssConfig::dipperstein()),
        Just(LzssConfig::culzss_v1()),
        Just(LzssConfig::culzss_v2()),
    ]
}

/// Byte-vector strategies with very different match statistics.
fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Uniform random bytes (nearly incompressible).
        proptest::collection::vec(any::<u8>(), 0..2048),
        // Low-alphabet text-like data (moderately compressible).
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b' ')], 0..2048),
        // Repeating-period data like the paper's "highly compressible" set.
        (1usize..40, proptest::collection::vec(any::<u8>(), 1..40), 0usize..60).prop_map(
            |(_, pattern, reps)| {
                pattern.iter().cycle().take(pattern.len() * reps).copied().collect()
            }
        ),
        // Runs of identical bytes.
        proptest::collection::vec((any::<u8>(), 1usize..80), 0..40).prop_map(|runs| {
            runs.into_iter().flat_map(|(b, n)| std::iter::repeat_n(b, n)).collect()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_all_configs(input in inputs(), config in configs()) {
        let compressed = serial::compress(&input, &config).unwrap();
        let restored = serial::decompress(&compressed, &config).unwrap();
        prop_assert_eq!(restored, input);
    }

    #[test]
    fn roundtrip_hash_chain(input in inputs()) {
        let config = LzssConfig::dipperstein();
        let compressed = serial::compress_with(&input, &config, FinderKind::HashChain).unwrap();
        let restored = serial::decompress(&compressed, &config).unwrap();
        prop_assert_eq!(restored, input);
    }

    #[test]
    fn tokenize_covers_exactly(input in inputs(), config in configs()) {
        let tokens = serial::tokenize(&input, &config);
        let mut produced = 0usize;
        for t in &tokens {
            t.validate(&config, produced).unwrap();
            produced += t.coverage();
        }
        prop_assert_eq!(produced, input.len());
        prop_assert_eq!(expand(&tokens, &config).unwrap(), input);
    }

    #[test]
    fn greedy_never_beats_worst_case_bound(input in inputs(), config in configs()) {
        let compressed = serial::compress(&input, &config).unwrap();
        prop_assert!(compressed.len() <= config.worst_case_compressed_len(input.len()) + 8);
    }

    #[test]
    fn format_roundtrip_valid_tokens(
        seed in proptest::collection::vec((any::<u8>(), 1u16..128, 3u16..18), 0..200),
        config in configs(),
    ) {
        // Build a structurally valid token stream: matches may only refer
        // to already-produced output.
        let mut tokens = Vec::new();
        let mut produced = 0usize;
        for (byte, distance, length) in seed {
            let distance = usize::from(distance).min(config.window_size).min(produced.max(1));
            let length = usize::from(length).clamp(config.min_match, config.max_match);
            if produced >= distance && distance >= 1 && produced > 0 {
                tokens.push(Token::Match { distance: distance as u16, length: length as u16 });
                produced += length;
            } else {
                tokens.push(Token::Literal(byte));
                produced += 1;
            }
        }
        let plain = expand(&tokens, &config).unwrap();
        let bytes = format::encode(&tokens, &config);
        prop_assert_eq!(bytes.len(), format::encoded_len(&tokens, &config));
        let decoded = format::decode(&bytes, &config, plain.len()).unwrap();
        prop_assert_eq!(&decoded, &tokens);
        prop_assert_eq!(expand(&decoded, &config).unwrap(), plain);
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        claimed_len in 0usize..4096,
        config in configs(),
    ) {
        // Any outcome is fine except a panic.
        let _ = format::decode(&garbage, &config, claimed_len);
        let _ = serial::decode_body(&garbage, &config, claimed_len);
        let _ = serial::decompress(&garbage, &config);
    }

    #[test]
    fn compressed_never_larger_on_highly_repetitive(period in 1usize..30, reps in 20usize..120) {
        let config = LzssConfig::dipperstein();
        let pattern: Vec<u8> = (0..period).map(|i| b'a' + (i % 26) as u8).collect();
        let input: Vec<u8> = pattern.iter().cycle().take(period * reps).copied().collect();
        let compressed = serial::compress(&input, &config).unwrap();
        prop_assert!(compressed.len() < input.len());
    }
}
