//! Byte-level encodings of LZSS token streams.
//!
//! Two formats are implemented, matching the two encodings the paper uses:
//!
//! * [`TokenFormat::FlagBit`] — Dipperstein's layout used by the serial and
//!   Pthread CPU codecs: every token is preceded by a single flag bit
//!   (`0` = literal byte follows, `1` = match code follows) and match codes
//!   are `offset_bits + length_bits` wide. Offsets store `distance - 1`,
//!   lengths store `length - min_match`.
//! * [`TokenFormat::Fixed16`] — the GPU-friendly layout of CULZSS: flags are
//!   grouped into one flag *byte* per 8 tokens (MSB = first token of the
//!   group), literals occupy one byte, and matches occupy a fixed 16-bit
//!   code — 8 bits of `distance - 1` ("extended offset" in the paper's
//!   words) and 8 bits of `length - min_match`. Byte-aligned output is what
//!   makes per-thread bucket writing and CPU-side compaction cheap.
//!
//! Both encodings are headerless: the decoder is driven by the expected
//! uncompressed length, which the surrounding container records (the paper's
//! "list of block compression sizes").

use crate::bitio::{BitReader, BitWriter};
use crate::config::LzssConfig;
use crate::error::{Error, Result};
use crate::token::Token;

/// Identifies a byte-level token encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenFormat {
    /// One flag bit per token plus `offset_bits + length_bits` match codes.
    FlagBit {
        /// Bits used for `distance - 1`.
        offset_bits: u8,
        /// Bits used for `length - min_match`.
        length_bits: u8,
    },
    /// Flag bytes per 8 tokens plus fixed 16-bit match codes.
    Fixed16,
}

impl TokenFormat {
    /// Short stable name used in container headers.
    pub fn id(&self) -> u8 {
        match self {
            TokenFormat::FlagBit { .. } => 1,
            TokenFormat::Fixed16 => 2,
        }
    }
}

/// Encodes `tokens` under `config`, returning the compressed bytes.
///
/// The caller is responsible for having produced tokens that satisfy the
/// configuration bounds (the encoder asserts them in debug builds).
pub fn encode(tokens: &[Token], config: &LzssConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(tokens, config));
    encode_into(tokens, config, &mut out);
    out
}

/// [`encode`] appending into an existing buffer (reusing its capacity);
/// returns the number of bytes written. This is the allocation-free path
/// used by chunked compressors that recycle per-chunk output buffers.
pub fn encode_into(tokens: &[Token], config: &LzssConfig, out: &mut Vec<u8>) -> usize {
    let before = out.len();
    out.reserve(encoded_len(tokens, config));
    match config.format {
        TokenFormat::FlagBit { offset_bits, length_bits } => {
            let w = BitWriter::resume(std::mem::take(out));
            *out = encode_flagbit_with(w, tokens, config, offset_bits, length_bits);
        }
        TokenFormat::Fixed16 => encode_fixed16_into(tokens, config, out),
    }
    out.len() - before
}

/// Decodes tokens until exactly `uncompressed_len` bytes are covered.
pub fn decode(bytes: &[u8], config: &LzssConfig, uncompressed_len: usize) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    decode_into(bytes, config, uncompressed_len, &mut tokens)?;
    Ok(tokens)
}

/// [`decode`] into a caller-owned buffer: `tokens` is cleared, then
/// filled, so a decoder that handles many chunks reuses its capacity.
/// Errors are the same as [`decode`]'s; on error `tokens` holds the
/// tokens decoded before the fault.
pub fn decode_into(
    bytes: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    tokens: &mut Vec<Token>,
) -> Result<()> {
    tokens.clear();
    match config.format {
        TokenFormat::FlagBit { offset_bits, length_bits } => {
            decode_flagbit(bytes, config, uncompressed_len, offset_bits, length_bits, tokens)
        }
        TokenFormat::Fixed16 => decode_fixed16(bytes, config, uncompressed_len, tokens),
    }
}

/// Exact size in bytes that [`encode`] will produce for `tokens`.
pub fn encoded_len(tokens: &[Token], config: &LzssConfig) -> usize {
    match config.format {
        TokenFormat::FlagBit { offset_bits, length_bits } => {
            let code = 1 + usize::from(offset_bits) + usize::from(length_bits);
            let bits: usize = tokens.iter().map(|t| if t.is_match() { code } else { 9 }).sum();
            bits.div_ceil(8)
        }
        TokenFormat::Fixed16 => {
            let mut bytes = tokens.len().div_ceil(8); // flag bytes
            for t in tokens {
                bytes += if t.is_match() { 2 } else { 1 };
            }
            bytes
        }
    }
}

fn encode_flagbit_with(
    mut w: BitWriter,
    tokens: &[Token],
    config: &LzssConfig,
    offset_bits: u8,
    length_bits: u8,
) -> Vec<u8> {
    for token in tokens {
        match *token {
            Token::Literal(byte) => {
                w.write_bit(false);
                w.write_byte(byte);
            }
            Token::Match { distance, length } => {
                debug_assert!(distance as usize >= 1 && distance as usize <= config.window_size);
                debug_assert!(
                    (length as usize) >= config.min_match && (length as usize) <= config.max_match
                );
                w.write_bit(true);
                w.write_bits(u32::from(distance - 1), offset_bits);
                w.write_bits(u32::from(length) - config.min_match as u32, length_bits);
            }
        }
    }
    w.finish()
}

fn decode_flagbit(
    bytes: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    offset_bits: u8,
    length_bits: u8,
    tokens: &mut Vec<Token>,
) -> Result<()> {
    let mut r = BitReader::new(bytes);
    let mut covered = 0usize;
    while covered < uncompressed_len {
        let is_match = r.read_bit("token flag")?;
        let token = if is_match {
            let offset = r.read_bits(offset_bits, "match offset")?;
            let biased_len = r.read_bits(length_bits, "match length")?;
            Token::Match {
                distance: (offset + 1) as u16,
                length: (biased_len as usize + config.min_match) as u16,
            }
        } else {
            Token::Literal(r.read_byte("literal byte")?)
        };
        covered += token.coverage();
        tokens.push(token);
    }
    if covered != uncompressed_len {
        return Err(Error::SizeMismatch { expected: uncompressed_len, actual: covered });
    }
    Ok(())
}

fn encode_fixed16_into(tokens: &[Token], config: &LzssConfig, out: &mut Vec<u8>) {
    for group in tokens.chunks(8) {
        let mut flags = 0u8;
        for (i, token) in group.iter().enumerate() {
            if token.is_match() {
                flags |= 0x80 >> i;
            }
        }
        out.push(flags);
        for token in group {
            match *token {
                Token::Literal(byte) => out.push(byte),
                Token::Match { distance, length } => {
                    debug_assert!(distance as usize >= 1 && distance as usize <= 256);
                    debug_assert!(
                        (length as usize) >= config.min_match
                            && (length as usize) <= config.min_match + 255
                    );
                    out.push((distance - 1) as u8);
                    out.push((length as usize - config.min_match) as u8);
                }
            }
        }
    }
}

fn decode_fixed16(
    bytes: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    tokens: &mut Vec<Token>,
) -> Result<()> {
    let mut covered = 0usize;
    let mut pos = 0usize;
    'groups: while covered < uncompressed_len {
        let flags = *bytes.get(pos).ok_or(Error::UnexpectedEof { context: "flag byte" })?;
        pos += 1;
        for i in 0..8 {
            if covered >= uncompressed_len {
                break 'groups;
            }
            let token = if flags & (0x80 >> i) != 0 {
                let offset =
                    *bytes.get(pos).ok_or(Error::UnexpectedEof { context: "match offset" })?;
                let biased_len =
                    *bytes.get(pos + 1).ok_or(Error::UnexpectedEof { context: "match length" })?;
                pos += 2;
                Token::Match {
                    distance: u16::from(offset) + 1,
                    length: (usize::from(biased_len) + config.min_match) as u16,
                }
            } else {
                let byte =
                    *bytes.get(pos).ok_or(Error::UnexpectedEof { context: "literal byte" })?;
                pos += 1;
                Token::Literal(byte)
            };
            covered += token.coverage();
            tokens.push(token);
        }
    }
    if covered != uncompressed_len {
        return Err(Error::SizeMismatch { expected: uncompressed_len, actual: covered });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::expand;

    fn sample_tokens() -> Vec<Token> {
        vec![
            Token::Literal(b'h'),
            Token::Literal(b'i'),
            Token::Literal(b'!'),
            Token::Match { distance: 3, length: 3 },
            Token::Match { distance: 1, length: 8 },
            Token::Literal(b'.'),
        ]
    }

    #[test]
    fn flagbit_roundtrip() {
        let config = LzssConfig::dipperstein();
        let tokens = sample_tokens();
        let plain = expand(&tokens, &config).unwrap();
        let bytes = encode(&tokens, &config);
        assert_eq!(bytes.len(), encoded_len(&tokens, &config));
        let decoded = decode(&bytes, &config, plain.len()).unwrap();
        assert_eq!(decoded, tokens);
    }

    #[test]
    fn fixed16_roundtrip() {
        let config = LzssConfig::culzss_v2();
        let tokens = sample_tokens();
        let plain = expand(&tokens, &config).unwrap();
        let bytes = encode(&tokens, &config);
        assert_eq!(bytes.len(), encoded_len(&tokens, &config));
        let decoded = decode(&bytes, &config, plain.len()).unwrap();
        assert_eq!(decoded, tokens);
    }

    #[test]
    fn fixed16_layout_is_byte_exact() {
        let config = LzssConfig::culzss_v1();
        // flags: L M L -> 0b0100_0000
        let tokens = vec![
            Token::Literal(0xAA),
            Token::Match { distance: 5, length: 7 },
            Token::Literal(0xBB),
        ];
        let bytes = encode(&tokens, &config);
        assert_eq!(bytes, vec![0b0100_0000, 0xAA, 4, 4, 0xBB]);
    }

    #[test]
    fn flagbit_layout_matches_dipperstein() {
        let config = LzssConfig::dipperstein();
        // A single literal: flag 0 + 8 bits, padded to 2 bytes? 9 bits -> 2 bytes.
        let bytes = encode(&[Token::Literal(0xFF)], &config);
        assert_eq!(bytes, vec![0b0111_1111, 0b1000_0000]);
        // A single match: flag 1 + 12-bit offset + 4-bit length = 17 bits.
        let bytes = encode(&[Token::Match { distance: 1, length: 3 }], &config);
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[0], 0b1000_0000);
    }

    #[test]
    fn decode_stops_exactly_at_target() {
        let config = LzssConfig::culzss_v2();
        let tokens = vec![Token::Literal(b'a'); 20];
        let bytes = encode(&tokens, &config);
        let decoded = decode(&bytes, &config, 20).unwrap();
        assert_eq!(decoded.len(), 20);
        // A shorter target stops early without error.
        let decoded = decode(&bytes, &config, 5).unwrap();
        assert_eq!(decoded.len(), 5);
    }

    #[test]
    fn decode_detects_truncation() {
        let config = LzssConfig::culzss_v2();
        let tokens = sample_tokens();
        let plain = expand(&tokens, &config).unwrap();
        let bytes = encode(&tokens, &config);
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], &config, plain.len()).unwrap_err();
            assert!(
                matches!(err, Error::UnexpectedEof { .. } | Error::SizeMismatch { .. }),
                "cut at {cut} produced {err:?}"
            );
        }
    }

    #[test]
    fn decode_detects_overshoot() {
        let config = LzssConfig::culzss_v2();
        let tokens = vec![Token::Literal(b'x'), Token::Match { distance: 1, length: 8 }];
        let bytes = encode(&tokens, &config);
        // Target of 5 bytes falls inside the match -> SizeMismatch.
        let err = decode(&bytes, &config, 5).unwrap_err();
        assert!(matches!(err, Error::SizeMismatch { expected: 5, actual: 9 }));
    }

    #[test]
    fn empty_token_stream_encodes_to_empty() {
        for config in [LzssConfig::dipperstein(), LzssConfig::culzss_v2()] {
            let bytes = encode(&[], &config);
            assert!(bytes.is_empty());
            assert_eq!(decode(&bytes, &config, 0).unwrap(), vec![]);
        }
    }

    #[test]
    fn encode_into_appends_identically_in_both_formats() {
        let tokens = sample_tokens();
        for config in [LzssConfig::dipperstein(), LzssConfig::culzss_v2()] {
            let fresh = encode(&tokens, &config);
            let mut reused = Vec::with_capacity(1024);
            reused.extend_from_slice(b"prefix");
            let written = encode_into(&tokens, &config, &mut reused);
            assert_eq!(written, fresh.len());
            assert_eq!(&reused[..6], b"prefix");
            assert_eq!(&reused[6..], &fresh[..]);
            // Recycled buffer: clear + re-encode reuses capacity.
            reused.clear();
            let cap = reused.capacity();
            encode_into(&tokens, &config, &mut reused);
            assert_eq!(reused, fresh);
            assert_eq!(reused.capacity(), cap);
        }
    }

    #[test]
    fn format_ids_are_stable() {
        assert_eq!(LzssConfig::dipperstein().format.id(), 1);
        assert_eq!(TokenFormat::Fixed16.id(), 2);
    }

    #[test]
    fn long_streams_roundtrip_both_formats() {
        let mut tokens = Vec::new();
        for i in 0..1000u32 {
            tokens.push(Token::Literal((i % 251) as u8));
            if i % 3 == 0 {
                tokens.push(Token::Match {
                    distance: (i % 100 + 1) as u16,
                    length: (3 + (i % 16)) as u16,
                });
            }
        }
        for config in [LzssConfig::dipperstein(), LzssConfig::culzss_v2()] {
            // Clamp distances/lengths to the config bounds.
            let tokens: Vec<Token> = tokens
                .iter()
                .map(|t| match *t {
                    Token::Match { distance, length } => Token::Match {
                        distance: distance.min(config.window_size as u16),
                        length: length.min(config.max_match as u16),
                    },
                    lit => lit,
                })
                .collect();
            let plain = expand(&tokens, &config).unwrap();
            let bytes = encode(&tokens, &config);
            let decoded = decode(&bytes, &config, plain.len()).unwrap();
            assert_eq!(decoded, tokens);
            assert_eq!(expand(&decoded, &config).unwrap(), plain);
        }
    }
}
