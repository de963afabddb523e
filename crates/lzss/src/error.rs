//! Error types shared by every LZSS codec in this workspace.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while encoding or decoding LZSS streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The compressed stream ended in the middle of a token or header.
    UnexpectedEof {
        /// What the decoder was trying to read when the input ran out.
        context: &'static str,
    },
    /// A match token referenced data before the start of the output.
    InvalidDistance {
        /// Distance encoded in the stream.
        distance: usize,
        /// Number of bytes decoded so far (the largest legal distance).
        available: usize,
    },
    /// A token carried a match length outside the configured bounds.
    InvalidLength {
        /// Length encoded in the stream.
        length: usize,
        /// Inclusive upper bound allowed by the configuration.
        max: usize,
    },
    /// A configuration parameter is out of range or inconsistent.
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// The container header is malformed (bad magic, version, or table).
    InvalidContainer {
        /// Human-readable description of the malformation.
        reason: String,
    },
    /// Decoded output did not match the size promised by the container.
    SizeMismatch {
        /// Size promised by the header.
        expected: usize,
        /// Size actually produced.
        actual: usize,
    },
    /// A chunk body failed its CRC-32 check (container v2).
    Corrupt {
        /// Index of the damaged chunk.
        chunk: usize,
        /// CRC recorded in the chunk table.
        expected_crc: u32,
        /// CRC computed over the received bytes.
        got_crc: u32,
    },
    /// The container metadata (header + tables) failed its CRC-32 check
    /// (container v2) — nothing after the fixed header can be trusted.
    HeaderCorrupt {
        /// CRC recorded in the metadata trailer.
        expected_crc: u32,
        /// CRC computed over the received metadata bytes.
        got_crc: u32,
    },
    /// The fully decoded stream failed the whole-stream CRC-32 check
    /// (container v2) even though every chunk passed — e.g. chunk bodies
    /// reordered, or a collision slipped past a per-chunk check.
    StreamCorrupt {
        /// CRC recorded in the metadata.
        expected_crc: u32,
        /// CRC computed over the decoded output.
        got_crc: u32,
    },
    /// The input ended before the declared structure was complete.
    Truncated {
        /// Bytes the structure required at minimum.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { context } => {
                write!(f, "compressed stream ended unexpectedly while reading {context}")
            }
            Error::InvalidDistance { distance, available } => {
                write!(f, "match distance {distance} exceeds the {available} bytes decoded so far")
            }
            Error::InvalidLength { length, max } => {
                write!(f, "match length {length} exceeds configured maximum {max}")
            }
            Error::InvalidConfig { reason } => write!(f, "invalid LZSS configuration: {reason}"),
            Error::InvalidContainer { reason } => write!(f, "invalid container: {reason}"),
            Error::SizeMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes but the header promised {expected}")
            }
            Error::Corrupt { chunk, expected_crc, got_crc } => {
                write!(
                    f,
                    "chunk {chunk} is corrupt: stored CRC {expected_crc:08x}, \
                     computed {got_crc:08x}"
                )
            }
            Error::HeaderCorrupt { expected_crc, got_crc } => {
                write!(
                    f,
                    "container metadata is corrupt: stored CRC {expected_crc:08x}, \
                     computed {got_crc:08x}"
                )
            }
            Error::StreamCorrupt { expected_crc, got_crc } => {
                write!(
                    f,
                    "decoded stream failed the whole-stream CRC: stored {expected_crc:08x}, \
                     computed {got_crc:08x}"
                )
            }
            Error::Truncated { needed, got } => {
                write!(f, "input truncated: needed at least {needed} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::UnexpectedEof { context: "match code" };
        assert!(e.to_string().contains("match code"));

        let e = Error::InvalidDistance { distance: 300, available: 12 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("12"));

        let e = Error::InvalidLength { length: 99, max: 18 };
        assert!(e.to_string().contains("99"));

        let e = Error::SizeMismatch { expected: 10, actual: 7 };
        assert!(e.to_string().contains("10") && e.to_string().contains("7"));
    }

    #[test]
    fn integrity_messages_carry_both_crcs() {
        let e = Error::Corrupt { chunk: 3, expected_crc: 0xDEAD_BEEF, got_crc: 0x0BAD_F00D };
        assert!(e.to_string().contains("deadbeef") && e.to_string().contains("0badf00d"));

        let e = Error::HeaderCorrupt { expected_crc: 1, got_crc: 2 };
        assert!(e.to_string().contains("metadata"));

        let e = Error::StreamCorrupt { expected_crc: 1, got_crc: 2 };
        assert!(e.to_string().contains("whole-stream"));

        let e = Error::Truncated { needed: 40, got: 12 };
        assert!(e.to_string().contains("40") && e.to_string().contains("12"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = Error::InvalidLength { length: 1, max: 2 };
        let b = Error::InvalidLength { length: 1, max: 2 };
        assert_eq!(a, b);
    }
}
