//! # culzss-lzss — LZSS compression core
//!
//! This crate implements the Lempel–Ziv–Storer–Szymanski (LZSS) dictionary
//! compressor that the CULZSS paper (Ozsoy & Swany, CLUSTER 2011) builds on,
//! in a form that can be shared between the serial CPU baseline, the
//! POSIX-thread style chunked baseline, and the two GPU (simulated CUDA)
//! designs.
//!
//! The crate is deliberately split into small orthogonal pieces:
//!
//! * [`bitio`] — MSB-first bit readers and writers used by the flag-bit
//!   encoding format.
//! * [`token`] — the token model: a compressed stream is a sequence of
//!   [`token::Token`]s, either literals or `(distance, length)` matches.
//! * [`config`] — tunable parameters (window size, match length bounds) with
//!   presets matching the paper's serial, V1 and V2 configurations.
//! * [`mod@format`] — byte-level encodings of token streams. The serial CPU
//!   implementation uses Dipperstein's 1-flag-bit + 12/4-bit code layout;
//!   the GPU versions use a fixed 16-bit code with flag bytes grouped per 8
//!   tokens (easier to produce from data-parallel kernels).
//! * [`matchfind`] — pluggable longest-match searchers (brute force as in
//!   the paper, plus a hash-chain accelerated variant implementing the
//!   paper's "better search structures" future-work item).
//! * [`serial`] — the reference serial compressor/decompressor.
//! * [`container`] — the chunked container format with the per-chunk
//!   compressed-size table the paper records for parallel decompression;
//!   container v2 adds per-chunk, whole-stream and metadata CRC-32s.
//! * [`crc`] — the bzip2-variant CRC-32 shared by the container v2
//!   integrity layer and the `culzss-bzip2` codec.
//! * [`analyze`] — match statistics used by tests, docs and benches.
//!
//! ## Quick example
//!
//! ```
//! use culzss_lzss::{serial, config::LzssConfig};
//!
//! let config = LzssConfig::dipperstein();
//! let input = b"I meant what I said and I said what I meant".repeat(8);
//! let compressed = serial::compress(&input, &config).unwrap();
//! let restored = serial::decompress(&compressed, &config).unwrap();
//! assert_eq!(restored, input);
//! assert!(compressed.len() < input.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod bitio;
pub mod config;
pub mod container;
pub mod crc;
pub mod error;
pub mod format;
pub mod matchfind;
pub mod serial;
pub mod token;

pub use config::LzssConfig;
pub use error::{Error, Result};
pub use token::Token;
