//! The LZSS token model.
//!
//! A compressed stream is conceptually a sequence of tokens: raw literal
//! bytes, or back-references `(distance, length)` into the already-produced
//! output (the "sliding window"). Separating the token model from the byte
//! level encodings lets the serial codec, the Pthread baseline and both GPU
//! kernels share one definition of correctness: *a token sequence is valid
//! for an input iff replaying it reproduces the input*.

use crate::config::LzssConfig;
use crate::error::{Error, Result};

/// One LZSS token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// A byte emitted verbatim.
    Literal(u8),
    /// A back-reference: copy `length` bytes starting `distance` bytes
    /// before the current end of the output. `distance < length` is legal
    /// and produces the classic LZ overlapped-copy repetition.
    Match {
        /// How far back the match starts (1 = the previous byte).
        distance: u16,
        /// Number of bytes to copy.
        length: u16,
    },
}

impl Token {
    /// Number of input bytes this token covers.
    pub fn coverage(&self) -> usize {
        match self {
            Token::Literal(_) => 1,
            Token::Match { length, .. } => *length as usize,
        }
    }

    /// True for [`Token::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, Token::Match { .. })
    }

    /// Validates this token against a configuration and the number of bytes
    /// already produced.
    pub fn validate(&self, config: &LzssConfig, produced: usize) -> Result<()> {
        if let Token::Match { distance, length } = *self {
            let (distance, length) = (distance as usize, length as usize);
            if length < config.min_match || length > config.max_match {
                return Err(Error::InvalidLength { length, max: config.max_match });
            }
            if distance == 0 || distance > produced || distance > config.window_size {
                return Err(Error::InvalidDistance {
                    distance,
                    available: produced.min(config.window_size),
                });
            }
        }
        Ok(())
    }
}

/// Replays a token sequence into its uncompressed byte form.
///
/// This is the semantic ground truth used by tests: every encoder/decoder
/// pair must agree with `expand` composed with the tokenizer.
pub fn expand(tokens: &[Token], config: &LzssConfig) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    expand_into(tokens, config, &mut out)?;
    Ok(out)
}

/// [`expand`] into a caller-owned buffer: `out` is cleared, then filled,
/// so a caller that knows the decoded length can size it exactly. Errors
/// are the same as [`expand`]'s.
pub fn expand_into(tokens: &[Token], config: &LzssConfig, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    for token in tokens {
        token.validate(config, out.len())?;
        match *token {
            Token::Literal(byte) => out.push(byte),
            Token::Match { distance, length } => {
                let start = out.len() - distance as usize;
                for i in 0..length as usize {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
        }
    }
    Ok(())
}

/// Summary statistics over a token sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenStats {
    /// Number of literal tokens.
    pub literals: usize,
    /// Number of match tokens.
    pub matches: usize,
    /// Total bytes covered by matches.
    pub matched_bytes: usize,
    /// Longest match length seen.
    pub longest_match: usize,
}

impl TokenStats {
    /// Computes statistics for `tokens`.
    pub fn of(tokens: &[Token]) -> Self {
        let mut stats = TokenStats::default();
        for token in tokens {
            match token {
                Token::Literal(_) => stats.literals += 1,
                Token::Match { length, .. } => {
                    stats.matches += 1;
                    stats.matched_bytes += *length as usize;
                    stats.longest_match = stats.longest_match.max(*length as usize);
                }
            }
        }
        stats
    }

    /// Total uncompressed bytes covered.
    pub fn coverage(&self) -> usize {
        self.literals + self.matched_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LzssConfig {
        LzssConfig::dipperstein()
    }

    #[test]
    fn literal_roundtrip() {
        let tokens = vec![Token::Literal(b'a'), Token::Literal(b'b')];
        assert_eq!(expand(&tokens, &cfg()).unwrap(), b"ab");
    }

    #[test]
    fn match_copies_previous_output() {
        let tokens = vec![
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Literal(b'c'),
            Token::Match { distance: 3, length: 3 },
        ];
        assert_eq!(expand(&tokens, &cfg()).unwrap(), b"abcabc");
    }

    #[test]
    fn overlapping_match_repeats() {
        let tokens = vec![Token::Literal(b'x'), Token::Match { distance: 1, length: 5 }];
        assert_eq!(expand(&tokens, &cfg()).unwrap(), b"xxxxxx");
    }

    #[test]
    fn distance_beyond_output_is_rejected() {
        let tokens = vec![Token::Literal(b'x'), Token::Match { distance: 2, length: 3 }];
        let err = expand(&tokens, &cfg()).unwrap_err();
        assert!(matches!(err, Error::InvalidDistance { distance: 2, .. }));
    }

    #[test]
    fn zero_distance_is_rejected() {
        let tokens = vec![Token::Literal(b'x'), Token::Match { distance: 0, length: 3 }];
        assert!(matches!(
            expand(&tokens, &cfg()).unwrap_err(),
            Error::InvalidDistance { distance: 0, .. }
        ));
    }

    #[test]
    fn length_bounds_are_enforced() {
        let config = cfg();
        let too_long = Token::Match { distance: 1, length: (config.max_match + 1) as u16 };
        let tokens = vec![Token::Literal(b'x'), too_long];
        assert!(matches!(expand(&tokens, &config).unwrap_err(), Error::InvalidLength { .. }));

        let too_short = Token::Match { distance: 1, length: (config.min_match - 1) as u16 };
        let tokens = vec![Token::Literal(b'x'), too_short];
        assert!(matches!(expand(&tokens, &config).unwrap_err(), Error::InvalidLength { .. }));
    }

    #[test]
    fn coverage_counts_bytes() {
        assert_eq!(Token::Literal(b'z').coverage(), 1);
        assert_eq!(Token::Match { distance: 4, length: 7 }.coverage(), 7);
    }

    #[test]
    fn stats_summarize() {
        let tokens = vec![
            Token::Literal(b'a'),
            Token::Match { distance: 1, length: 5 },
            Token::Literal(b'b'),
            Token::Match { distance: 2, length: 3 },
        ];
        let stats = TokenStats::of(&tokens);
        assert_eq!(stats.literals, 2);
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.matched_bytes, 8);
        assert_eq!(stats.longest_match, 5);
        assert_eq!(stats.coverage(), 10);
    }
}
