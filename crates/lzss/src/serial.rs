//! The reference serial LZSS compressor and decompressor.
//!
//! This is the Rust port of the algorithm the paper attributes to
//! Dipperstein's implementation: greedy longest-match parsing against a
//! sliding window. [`tokenize`] produces the token sequence for a buffer
//! (used headerless by the chunked parallel implementations), and
//! [`compress`]/[`decompress`] wrap it in a minimal 8-byte header carrying
//! the uncompressed length so that standalone buffers are self-describing.

use crate::config::LzssConfig;
use crate::error::{Error, Result};
use crate::format::{self, TokenFormat};
use crate::matchfind::{BruteForce, FinderKind, HashChain, MatchFinder};
use crate::token::Token;

/// Magic prefix of standalone serial streams (`"LZSS"`).
pub const MAGIC: [u8; 4] = *b"LZSS";

/// Greedily tokenizes `input`: at each position the longest window match of
/// at least `min_match` bytes is taken, otherwise a literal is emitted. The
/// positions covered by a match are *skipped* — the serial time saving on
/// compressible data that CULZSS V2 famously cannot exploit (paper §V).
pub fn tokenize(input: &[u8], config: &LzssConfig) -> Vec<Token> {
    tokenize_with(input, config, FinderKind::BruteForce)
}

/// [`tokenize`] with an explicit match-finder strategy.
pub fn tokenize_with(input: &[u8], config: &LzssConfig, finder: FinderKind) -> Vec<Token> {
    match finder {
        FinderKind::BruteForce => tokenize_impl(input, config, &mut BruteForce::new()),
        FinderKind::HashChain => {
            tokenize_impl(input, config, &mut HashChain::new(config.window_size))
        }
    }
}

fn tokenize_impl(input: &[u8], config: &LzssConfig, finder: &mut dyn MatchFinder) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 2);
    tokenize_into(input, config, finder, &mut tokens);
    tokens
}

/// Core greedy parse appending into `tokens`; the finder must be freshly
/// created or [`MatchFinder::reset`].
fn tokenize_into(
    input: &[u8],
    config: &LzssConfig,
    finder: &mut dyn MatchFinder,
    tokens: &mut Vec<Token>,
) {
    let mut pos = 0usize;
    while pos < input.len() {
        let candidate = finder.find(input, pos, config);
        let token = match candidate {
            Some(m) if m.length >= config.min_match => {
                Token::Match { distance: m.distance as u16, length: m.length as u16 }
            }
            _ => Token::Literal(input[pos]),
        };
        let step = token.coverage();
        for p in pos..pos + step {
            finder.insert(input, p);
        }
        pos += step;
        tokens.push(token);
    }
}

/// A reusable tokenizer/encoder: owns its match finder and token buffer so
/// chunked compressors can process thousands of chunks without re-allocating
/// either per chunk. Using [`Tokenizer::new`] (which picks
/// [`FinderKind::auto_exact`]) keeps output byte-identical to the default
/// brute-force path while searching far fewer candidates.
///
/// ```
/// use culzss_lzss::config::LzssConfig;
/// use culzss_lzss::serial::{compress, Tokenizer};
///
/// let config = LzssConfig::dipperstein();
/// let mut tok = Tokenizer::new(&config);
/// let mut body = Vec::new();
/// for chunk in [&b"one chunk of data"[..], b"another chunk, same buffers"] {
///     body.clear();
///     tok.compress_chunk_into(chunk, &config, &mut body);
///     let tokens = culzss_lzss::serial::tokenize(chunk, &config);
///     assert_eq!(body, culzss_lzss::format::encode(&tokens, &config));
/// }
/// # let _ = compress(b"x", &config).unwrap();
/// ```
pub struct Tokenizer {
    kind: FinderKind,
    finder: Box<dyn MatchFinder + Send>,
    /// Window the finder was sized for (hash chains key their history
    /// table off it; a larger window needs a rebuild).
    window: usize,
    tokens: Vec<Token>,
}

impl std::fmt::Debug for Tokenizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tokenizer")
            .field("kind", &self.kind)
            .field("window", &self.window)
            .field("tokens", &self.tokens.len())
            .finish()
    }
}

impl Tokenizer {
    /// A tokenizer using the fastest finder that stays byte-identical to
    /// brute force under `config`.
    pub fn new(config: &LzssConfig) -> Self {
        Self::with_finder(config, FinderKind::auto_exact(config))
    }

    /// A tokenizer with an explicit finder strategy.
    pub fn with_finder(config: &LzssConfig, kind: FinderKind) -> Self {
        Self {
            kind,
            finder: Self::build(kind, config.window_size),
            window: config.window_size,
            tokens: Vec::new(),
        }
    }

    fn build(kind: FinderKind, window: usize) -> Box<dyn MatchFinder + Send> {
        match kind {
            FinderKind::BruteForce => Box::new(BruteForce::new()),
            FinderKind::HashChain => Box::new(HashChain::new(window)),
        }
    }

    /// The finder strategy in use.
    pub fn kind(&self) -> FinderKind {
        self.kind
    }

    /// Tokenizes `input`, reusing the internal finder and token buffer.
    /// The returned slice is valid until the next call.
    pub fn tokenize(&mut self, input: &[u8], config: &LzssConfig) -> &[Token] {
        if config.window_size > self.window {
            self.finder = Self::build(self.kind, config.window_size);
            self.window = config.window_size;
        } else {
            self.finder.reset();
        }
        self.tokens.clear();
        tokenize_into(input, config, self.finder.as_mut(), &mut self.tokens);
        &self.tokens
    }

    /// Tokenizes and encodes `chunk` as a headerless body appended to
    /// `out`, returning the number of bytes written. Equivalent to
    /// `format::encode(&tokenize(chunk, config), config)` with zero
    /// steady-state allocation.
    pub fn compress_chunk_into(
        &mut self,
        chunk: &[u8],
        config: &LzssConfig,
        out: &mut Vec<u8>,
    ) -> usize {
        self.tokenize(chunk, config);
        format::encode_into(&self.tokens, config, out)
    }
}

/// Compresses `input` into a standalone self-describing buffer:
/// `MAGIC ‖ u32-LE uncompressed length ‖ encoded tokens`.
pub fn compress(input: &[u8], config: &LzssConfig) -> Result<Vec<u8>> {
    compress_with(input, config, FinderKind::BruteForce)
}

/// [`compress`] with an explicit match-finder strategy.
pub fn compress_with(input: &[u8], config: &LzssConfig, finder: FinderKind) -> Result<Vec<u8>> {
    config.validate()?;
    if input.len() > u32::MAX as usize {
        return Err(Error::InvalidConfig {
            reason: "standalone streams are limited to 4 GiB".into(),
        });
    }
    let tokens = tokenize_with(input, config, finder);
    let body = format::encode(&tokens, config);
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decompresses a standalone buffer produced by [`compress`].
pub fn decompress(bytes: &[u8], config: &LzssConfig) -> Result<Vec<u8>> {
    config.validate()?;
    if bytes.len() < 8 {
        return Err(Error::UnexpectedEof { context: "stream header" });
    }
    if bytes[..4] != MAGIC {
        return Err(Error::InvalidContainer { reason: "bad magic in serial stream".into() });
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[4..8]);
    let len = u32::from_le_bytes(word) as usize;
    let body = &bytes[8..];
    // One body byte can produce at most max_match output bytes, so reject
    // absurd declared lengths before decode_body allocates for them.
    if len as u64 > (body.len() as u64).saturating_mul(config.max_match.max(1) as u64) {
        return Err(Error::Truncated {
            needed: len.div_ceil(config.max_match.max(1)),
            got: body.len(),
        });
    }
    decode_body(body, config, len)
}

/// Decodes a headerless token body directly into bytes (fused decode +
/// expand; this is the hot path measured in Table III).
pub fn decode_body(body: &[u8], config: &LzssConfig, uncompressed_len: usize) -> Result<Vec<u8>> {
    // The declared length is unchecked: reserve no more than the body can
    // decode to at max_match bytes per body byte, the Fixed16 fill's cap.
    let room = uncompressed_len.min(body.len().saturating_mul(config.max_match.max(1)));
    let mut out = Vec::with_capacity(room);
    decode_body_into(body, config, uncompressed_len, &mut out)?;
    Ok(out)
}

/// [`decode_body`] appending into an existing buffer. Fixed16 bodies go
/// through the fused decoder [`decode_fixed16_into`]; on error `out`
/// holds its old contents plus the bytes decoded before the fault.
pub fn decode_body_into(
    body: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let base = out.len();
    match config.format {
        TokenFormat::FlagBit { offset_bits, length_bits } => {
            decode_flagbit_into(body, config, uncompressed_len, offset_bits, length_bits, out, base)
        }
        TokenFormat::Fixed16 => decode_fixed16_into(body, config, uncompressed_len, out).map(drop),
    }
}

fn copy_match(
    out: &mut Vec<u8>,
    base: usize,
    distance: usize,
    length: usize,
    config: &LzssConfig,
) -> Result<()> {
    let produced = out.len() - base;
    if length < config.min_match || length > config.max_match {
        return Err(Error::InvalidLength { length, max: config.max_match });
    }
    if distance == 0 || distance > produced || distance > config.window_size {
        return Err(Error::InvalidDistance {
            distance,
            available: produced.min(config.window_size),
        });
    }
    let start = out.len() - distance;
    for i in 0..length {
        let byte = out[start + i];
        out.push(byte);
    }
    Ok(())
}

fn decode_flagbit_into(
    body: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    offset_bits: u8,
    length_bits: u8,
    out: &mut Vec<u8>,
    base: usize,
) -> Result<()> {
    let mut r = crate::bitio::BitReader::new(body);
    while out.len() - base < uncompressed_len {
        if r.read_bit("token flag")? {
            let offset = r.read_bits(offset_bits, "match offset")? as usize;
            let length = r.read_bits(length_bits, "match length")? as usize + config.min_match;
            copy_match(out, base, offset + 1, length, config)?;
        } else {
            out.push(r.read_byte("literal byte")?);
        }
    }
    check_exact(out.len() - base, uncompressed_len)
}

/// The Fixed16 arm of [`decode_body_into`] in one fused pass, returning
/// the number of tokens decoded (`config.format` is not consulted).
///
/// It writes straight into `out`'s zero-filled tail: a flag byte of eight
/// literals lands as one 8-byte copy, a match reaching back 16 bytes or
/// more copies in 16-byte steps, another match whose source ends before
/// its destination starts is one `copy_within`, and only an overlapping
/// match (distance < length) copies byte by byte. Each token is checked
/// as it is read, so a damaged body fails with the first fault in stream
/// order. A body that decodes yields the bytes and token count of
/// [`crate::format::decode`] followed by [`crate::token::expand`]. The
/// tail is never longer than the body can decode to (one body byte
/// yields at most `max_match` output bytes), so an absurd
/// `uncompressed_len` fails without a matching allocation.
pub fn decode_fixed16_into(
    body: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    out: &mut Vec<u8>,
) -> Result<usize> {
    let base = out.len();
    let room = uncompressed_len.min(body.len().saturating_mul(config.max_match.max(1)));
    out.resize(base + room, 0);
    let dst = &mut out[base..];
    let mut p = 0usize;
    let mut pos = 0usize;
    let mut tokens = 0usize;
    let decoded = 'groups: loop {
        if p >= uncompressed_len {
            break Ok(());
        }
        let Some(&flags) = body.get(pos) else {
            break Err(Error::UnexpectedEof { context: "flag byte" });
        };
        pos += 1;
        if flags == 0 && uncompressed_len - p >= 8 {
            if let Some(literals) = body.get(pos..pos + 8) {
                dst[p..p + 8].copy_from_slice(literals);
                p += 8;
                pos += 8;
                tokens += 8;
                continue;
            }
        }
        for i in 0..8 {
            if p >= uncompressed_len {
                break 'groups Ok(());
            }
            if flags & (0x80 >> i) != 0 {
                let Some(&offset) = body.get(pos) else {
                    break 'groups Err(Error::UnexpectedEof { context: "match offset" });
                };
                let Some(&biased) = body.get(pos + 1) else {
                    break 'groups Err(Error::UnexpectedEof { context: "match length" });
                };
                pos += 2;
                let distance = usize::from(offset) + 1;
                let length = usize::from(biased) + config.min_match;
                if length > config.max_match {
                    break 'groups Err(Error::InvalidLength { length, max: config.max_match });
                }
                if distance > p || distance > config.window_size {
                    break 'groups Err(Error::InvalidDistance {
                        distance,
                        available: p.min(config.window_size),
                    });
                }
                let end = p + length;
                if end > dst.len() {
                    // Runs past `uncompressed_len`: the size check below
                    // fails the chunk, so the bytes are not needed.
                    p = end;
                    break 'groups Ok(());
                }
                let src = p - distance;
                if distance >= 16 && p + length.next_multiple_of(16) <= dst.len() {
                    // 16-byte steps, each reading only bytes written before
                    // it; the overshoot past `end` is rewritten by the
                    // tokens that follow (or trimmed on exit).
                    for k in (0..length).step_by(16) {
                        dst.copy_within(src + k..src + k + 16, p + k);
                    }
                } else if distance >= length {
                    dst.copy_within(src..src + length, p);
                } else {
                    for k in p..end {
                        dst[k] = dst[k - distance];
                    }
                }
                p = end;
            } else {
                let Some(&byte) = body.get(pos) else {
                    break 'groups Err(Error::UnexpectedEof { context: "literal byte" });
                };
                pos += 1;
                dst[p] = byte;
                p += 1;
            }
            tokens += 1;
        }
    };
    out.truncate(base + p.min(room));
    decoded?;
    check_exact(p, uncompressed_len)?;
    Ok(tokens)
}

fn check_exact(actual: usize, expected: usize) -> Result<()> {
    if actual != expected {
        Err(Error::SizeMismatch { expected, actual })
    } else {
        Ok(())
    }
}

/// Compression ratio as the paper reports it: compressed size divided by
/// uncompressed size (Table II, "smaller is better").
pub fn ratio(compressed_len: usize, uncompressed_len: usize) -> f64 {
    if uncompressed_len == 0 {
        return 1.0;
    }
    compressed_len as f64 / uncompressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{expand, TokenStats};

    #[test]
    fn empty_input_roundtrips() {
        let config = LzssConfig::dipperstein();
        let c = compress(b"", &config).unwrap();
        assert_eq!(c.len(), 8);
        assert_eq!(decompress(&c, &config).unwrap(), b"");
    }

    #[test]
    fn short_literals_roundtrip() {
        let config = LzssConfig::dipperstein();
        let c = compress(b"ab", &config).unwrap();
        assert_eq!(decompress(&c, &config).unwrap(), b"ab");
    }

    #[test]
    fn repetitive_text_compresses() {
        let config = LzssConfig::dipperstein();
        let input = b"I meant what I said and I said what I meant. ".repeat(50);
        let c = compress(&input, &config).unwrap();
        assert!(c.len() < input.len() / 2, "{} vs {}", c.len(), input.len());
        assert_eq!(decompress(&c, &config).unwrap(), input);
    }

    #[test]
    fn incompressible_data_grows_boundedly() {
        let config = LzssConfig::dipperstein();
        // A de Bruijn-ish byte sequence with no 3-byte repeats in-window.
        let input: Vec<u8> = (0..4096u32)
            .flat_map(|i| [(i >> 8) as u8, (i & 0xFF) as u8, (i * 7 % 251) as u8])
            .collect();
        let c = compress(&input, &config).unwrap();
        assert!(c.len() <= config.worst_case_compressed_len(input.len()));
        assert_eq!(decompress(&c, &config).unwrap(), input);
    }

    #[test]
    fn all_zero_input_hits_max_match() {
        let config = LzssConfig::dipperstein();
        let input = vec![0u8; 10_000];
        let tokens = tokenize(&input, &config);
        let stats = TokenStats::of(&tokens);
        assert_eq!(stats.longest_match, config.max_match);
        assert_eq!(stats.coverage(), input.len());
        let c = compress(&input, &config).unwrap();
        assert!(c.len() < input.len() / 7);
        assert_eq!(decompress(&c, &config).unwrap(), input);
    }

    #[test]
    fn tokenize_matches_expand_inverse() {
        let config = LzssConfig::culzss_v2();
        let input = b"the quick brown fox jumps over the lazy dog. the quick brown fox!";
        let tokens = tokenize(input, &config);
        assert_eq!(expand(&tokens, &config).unwrap(), input);
    }

    #[test]
    fn hash_chain_output_decompresses_identically() {
        let config = LzssConfig::dipperstein();
        let input = b"abcabcabc hello hello world world world abcabc".repeat(20);
        let brute = compress_with(&input, &config, FinderKind::BruteForce).unwrap();
        let hashed = compress_with(&input, &config, FinderKind::HashChain).unwrap();
        // Same greedy choices -> identical streams.
        assert_eq!(brute, hashed);
        assert_eq!(decompress(&hashed, &config).unwrap(), input);
    }

    #[test]
    fn v1_and_v2_configs_roundtrip() {
        for config in [LzssConfig::culzss_v1(), LzssConfig::culzss_v2()] {
            let input = b"mississippi riverbank mississippi".repeat(17);
            let c = compress(&input, &config).unwrap();
            assert_eq!(decompress(&c, &config).unwrap(), input);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let config = LzssConfig::dipperstein();
        let mut c = compress(b"hello", &config).unwrap();
        c[0] ^= 0xFF;
        assert!(matches!(decompress(&c, &config).unwrap_err(), Error::InvalidContainer { .. }));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let config = LzssConfig::dipperstein();
        let c = compress(b"hello hello hello hello", &config).unwrap();
        for cut in 0..c.len().min(12) {
            assert!(decompress(&c[..cut], &config).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn absurd_declared_length_is_rejected_before_allocation() {
        let config = LzssConfig::dipperstein();
        // Header claims 4 GiB-ish output from a 1-byte body.
        let mut c: Vec<u8> = MAGIC.to_vec();
        c.extend_from_slice(&u32::MAX.to_le_bytes());
        c.push(0);
        assert!(matches!(decompress(&c, &config).unwrap_err(), Error::Truncated { .. }));
    }

    #[test]
    fn decode_body_refuses_an_unbounded_declared_length() {
        for config in [LzssConfig::culzss_v2(), LzssConfig::dipperstein()] {
            assert!(decode_body(&[0, b'a'], &config, usize::MAX).is_err());
        }
    }

    #[test]
    fn corrupt_distance_is_rejected_not_panicking() {
        let config = LzssConfig::culzss_v2();
        // Hand-craft: flag byte says match, offset 200 with nothing decoded.
        let body = [0b1000_0000u8, 200, 0];
        let err = decode_body(&body, &config, 3).unwrap_err();
        assert!(matches!(err, Error::InvalidDistance { .. }));
    }

    #[test]
    fn decode_body_into_appends() {
        let config = LzssConfig::dipperstein();
        let a = tokenize(b"first chunk ", &config);
        let b = tokenize(b"second chunk", &config);
        let mut out = Vec::new();
        decode_body_into(&format::encode(&a, &config), &config, 12, &mut out).unwrap();
        decode_body_into(&format::encode(&b, &config), &config, 12, &mut out).unwrap();
        assert_eq!(out, b"first chunk second chunk");
    }

    #[test]
    fn fused_fixed16_decoder_copies_runs_overlaps_and_literal_groups() {
        let config = LzssConfig::culzss_v2();
        let tokens = [
            Token::Literal(b'a'),
            // Distance 1: a run of the previous byte.
            Token::Match { distance: 1, length: config.max_match as u16 },
            Token::Literal(b'b'),
            Token::Literal(b'c'),
            // Overlapping (distance < length) and non-overlapping copies.
            Token::Match { distance: 2, length: 7 },
            Token::Match { distance: 9, length: 4 },
        ];
        // Then a flag byte's worth of literals, which takes the block copy.
        let literals = b"eightlit".map(Token::Literal);
        let tokens: Vec<Token> = tokens.iter().chain(&literals).copied().collect();
        let body = format::encode(&tokens, &config);
        let expected = expand(&tokens, &config).unwrap();
        for prefix in [&b""[..], b"already decoded"] {
            let mut out = prefix.to_vec();
            let n = decode_fixed16_into(&body, &config, expected.len(), &mut out).unwrap();
            assert_eq!(n, tokens.len());
            assert_eq!(&out[..prefix.len()], prefix);
            assert_eq!(&out[prefix.len()..], &expected[..]);
        }
    }

    #[test]
    fn fused_fixed16_decoder_fails_at_the_first_fault_and_keeps_what_it_decoded() {
        let config = LzssConfig::culzss_v1();
        // Literal, a valid 6-byte match, then one reaching back too far.
        let body = [0b0110_0000u8, b'x', 0, 3, 200, 0];
        let mut out = b"prefix".to_vec();
        let err = decode_fixed16_into(&body, &config, 100, &mut out).unwrap_err();
        assert!(matches!(err, Error::InvalidDistance { distance: 201, available: 7 }), "{err}");
        assert_eq!(out, b"prefixxxxxxxx");
        // A match running past the declared length is a size mismatch.
        let err = decode_fixed16_into(&body[..4], &config, 3, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::SizeMismatch { expected: 3, actual: 7 }), "{err}");
    }

    #[test]
    fn absurd_declared_length_fills_no_more_than_the_body_can_decode_to() {
        for config in [LzssConfig::culzss_v1(), LzssConfig::culzss_v2()] {
            let data = b"run run run run run run run".repeat(9);
            let body = format::encode(&tokenize(&data, &config), &config);
            let bound = body.len() * config.max_match;
            for claimed in [data.len() + 1, bound + 1, u32::MAX as usize, usize::MAX] {
                let mut out = Vec::new();
                let err = decode_fixed16_into(&body, &config, claimed, &mut out).unwrap_err();
                assert!(matches!(err, Error::UnexpectedEof { .. }), "{claimed}: {err}");
                assert!(out.capacity() <= bound, "{claimed}: filled {}", out.capacity());
                assert_eq!(out, data, "{claimed}: the decoded prefix stays");
            }
        }
    }

    #[test]
    fn tokenizer_reuse_is_byte_identical_to_one_shot_paths() {
        for config in [LzssConfig::dipperstein(), LzssConfig::culzss_v1(), LzssConfig::culzss_v2()]
        {
            let mut tok = Tokenizer::new(&config);
            let chunks: Vec<Vec<u8>> = vec![
                Vec::new(),
                b"x".to_vec(),
                b"repeat repeat repeat repeat".repeat(40),
                (0..5000u32).map(|i| (i % 251) as u8).collect(),
            ];
            let mut out = Vec::new();
            for chunk in &chunks {
                assert_eq!(tok.tokenize(chunk, &config), tokenize(chunk, &config));
                out.clear();
                let n = tok.compress_chunk_into(chunk, &config, &mut out);
                let expected = format::encode(&tokenize(chunk, &config), &config);
                assert_eq!(out, expected);
                assert_eq!(n, expected.len());
            }
        }
    }

    #[test]
    fn tokenizer_rebuilds_for_larger_windows() {
        let small = LzssConfig::culzss_v1(); // 128-byte window
        let big = LzssConfig::dipperstein(); // 4096-byte window
        let mut tok = Tokenizer::new(&small);
        let data = b"windows grow: abcabcabc abcabcabc windows grow".repeat(30);
        assert_eq!(tok.tokenize(&data, &small), tokenize(&data, &small));
        assert_eq!(tok.tokenize(&data, &big), tokenize(&data, &big));
        // And back down again without rebuilding.
        assert_eq!(tok.tokenize(&data, &small), tokenize(&data, &small));
    }

    #[test]
    fn ratio_helper() {
        assert!((ratio(50, 100) - 0.5).abs() < 1e-12);
        assert_eq!(ratio(10, 0), 1.0);
    }

    #[test]
    fn window_never_crosses_buffer_start() {
        // Chunked callers rely on tokenize never referencing before the
        // slice: distances are validated against produced bytes.
        let config = LzssConfig::culzss_v1();
        let input = b"zzzzzz";
        let tokens = tokenize(input, &config);
        let mut produced = 0usize;
        for t in &tokens {
            t.validate(&config, produced).unwrap();
            produced += t.coverage();
        }
    }

    #[test]
    fn figure1_style_example_shrinks() {
        // The paper's Figure 1 example: 102 characters down to 56 with its
        // absolute-position encoding. Our distance encoding differs in
        // layout but the same redundancy is captured.
        let config = LzssConfig::dipperstein();
        let text = b"I meant what I said and I said what I meant \
                     From there to here from here to there I said what I meant";
        let tokens = tokenize(text, &config);
        let stats = TokenStats::of(&tokens);
        assert!(stats.matches >= 4, "expected several matches, got {stats:?}");
        let c = compress(text, &config).unwrap();
        assert!(c.len() < text.len());
    }
}
