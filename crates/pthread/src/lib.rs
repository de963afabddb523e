//! # culzss-pthread — the paper's POSIX-threads LZSS baseline
//!
//! "To be fair to the CPU implementation and give the opportunity to use
//! parallelism, we also implemented a CPU threaded version of the LZSS
//! algorithm using the POSIX threads. Each thread is given with some chunk
//! of the file and the chunks are compressed concurrently. After each
//! thread compresses the given data, individual compressed chunks are
//! reassembled to form the final output."
//!
//! This crate reproduces that design on the chunk-parallel CPU codec that
//! the CULZSS heterogeneous engine also runs
//! ([`culzss::hetero::encode_chunks`] /
//! [`culzss::hetero::decode_container`]): the input is split into chunks,
//! worker threads own static contiguous ranges of chunks (exactly the
//! paper's one-chunk-per-thread scheme when `chunks == threads`), each
//! chunk is compressed independently with the serial LZSS codec, and the
//! pieces are reassembled into the shared [`culzss_lzss::container`]
//! format — which is also what enables parallel decompression. Unlike
//! the CULZSS engine, this baseline keeps the paper's straightforward
//! brute-force match search and takes any [`LzssConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use culzss::hetero::{decode_container, encode_chunks};
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::{assemble_with, stream_crc_of, Container, ContainerVersion};
use culzss_lzss::error::{Error, Result};
use culzss_lzss::matchfind::FinderKind;

/// Number of worker threads matching the paper's testbed spirit: all
/// hardware threads of the host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Splits `input` into `threads` nearly equal chunks (the paper's
/// per-thread partitioning) and compresses them concurrently.
pub fn compress(input: &[u8], config: &LzssConfig, threads: usize) -> Result<Vec<u8>> {
    let threads = threads.max(1);
    let chunk_size = input.len().div_ceil(threads).max(1);
    compress_chunked(input, config, chunk_size, threads)
}

/// Chunked compression with an explicit chunk size: `input` is cut into
/// `chunk_size`-byte pieces, `threads` workers compress static contiguous
/// ranges of them with the brute-force finder, and the bodies are
/// assembled into a container. Matches never cross chunk boundaries,
/// exactly as in the paper (each piece is independent).
pub fn compress_chunked(
    input: &[u8],
    config: &LzssConfig,
    chunk_size: usize,
    threads: usize,
) -> Result<Vec<u8>> {
    compress_chunked_versioned(
        input,
        config,
        chunk_size,
        threads,
        FinderKind::BruteForce,
        Default::default(),
    )
}

/// [`compress_chunked`] with an explicit match-finder strategy and
/// container version — the full-control entry point.
/// [`ContainerVersion::V1`] emits the checksum-free legacy layout
/// byte-for-byte.
pub fn compress_chunked_versioned(
    input: &[u8],
    config: &LzssConfig,
    chunk_size: usize,
    threads: usize,
    finder: FinderKind,
    version: ContainerVersion,
) -> Result<Vec<u8>> {
    config.validate()?;
    if chunk_size == 0 {
        return Err(Error::InvalidConfig { reason: "chunk_size must be positive".into() });
    }
    if chunk_size > u32::MAX as usize {
        return Err(Error::InvalidConfig { reason: "chunk_size must fit in u32".into() });
    }
    let bodies = encode_chunks(input, config, chunk_size, threads, finder);
    assemble_with(
        config,
        chunk_size as u32,
        input.len() as u64,
        stream_crc_of(input, chunk_size as u32),
        &bodies,
        version,
    )
}

/// Decompresses a container stream, decoding chunks concurrently.
pub fn decompress(bytes: &[u8], config: &LzssConfig, threads: usize) -> Result<Vec<u8>> {
    config.validate()?;
    let (container, payload_offset) = Container::parse(bytes)?;
    container.check_config(config)?;
    decode_container(&container, &bytes[payload_offset..], config, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_lzss::serial;

    fn sample() -> Vec<u8> {
        b"a man a plan a canal panama ".repeat(300)
    }

    #[test]
    fn roundtrip_single_thread() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        let c = compress(&input, &config, 1).unwrap();
        assert_eq!(decompress(&c, &config, 1).unwrap(), input);
    }

    #[test]
    fn roundtrip_many_threads() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        for threads in [2, 3, 8, 64] {
            let c = compress(&input, &config, threads).unwrap();
            assert_eq!(decompress(&c, &config, threads).unwrap(), input, "threads={threads}");
        }
    }

    #[test]
    fn output_is_deterministic_across_thread_counts() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        // Same chunk size -> byte-identical output regardless of pool size.
        let a = compress_chunked(&input, &config, 1024, 1).unwrap();
        let b = compress_chunked(&input, &config, 1024, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        let config = LzssConfig::dipperstein();
        let c = compress(b"", &config, 4).unwrap();
        assert_eq!(decompress(&c, &config, 4).unwrap(), b"");
    }

    #[test]
    fn input_smaller_than_thread_count() {
        let config = LzssConfig::dipperstein();
        let input = b"tiny";
        let c = compress(input, &config, 16).unwrap();
        assert_eq!(decompress(&c, &config, 16).unwrap(), input);
    }

    #[test]
    fn chunking_reduces_ratio_only_slightly() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        let whole = serial::compress(&input, &config).unwrap().len();
        let chunked = compress_chunked(&input, &config, 2048, 4).unwrap().len();
        // Chunked is worse (no cross-chunk matches + size table) but stays
        // in the same band — the effect the paper reports in Table II.
        assert!(chunked >= whole);
        assert!((chunked as f64) < (whole as f64) * 1.6, "{chunked} vs {whole}");
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        let config = LzssConfig::dipperstein();
        assert!(compress_chunked(b"abc", &config, 0, 2).is_err());
    }

    #[test]
    fn cross_config_decode_is_rejected() {
        let input = sample();
        let c = compress(&input, &LzssConfig::dipperstein(), 2).unwrap();
        assert!(decompress(&c, &LzssConfig::culzss_v1(), 2).is_err());
    }

    #[test]
    fn truncated_container_is_rejected() {
        let config = LzssConfig::dipperstein();
        let c = compress(&sample(), &config, 2).unwrap();
        assert!(decompress(&c[..c.len() - 1], &config, 2).is_err());
    }

    #[test]
    fn both_container_versions_and_finders_roundtrip_and_v2_detects_flips() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        for version in [ContainerVersion::V1, ContainerVersion::V2] {
            let brute = compress_chunked_versioned(
                &input,
                &config,
                2048,
                4,
                FinderKind::BruteForce,
                version,
            )
            .unwrap();
            assert_eq!(decompress(&brute, &config, 4).unwrap(), input, "{version:?}");
            // An exact finder keeps the bytes: longest match, smallest distance.
            let hashed = compress_chunked_versioned(
                &input,
                &config,
                2048,
                4,
                FinderKind::HashChain,
                version,
            )
            .unwrap();
            assert_eq!(hashed, brute, "{version:?}");
        }
        // Default emission carries CRCs: a payload flip is a typed error.
        let mut c = compress_chunked(&input, &config, 2048, 4).unwrap();
        let at = c.len() - 10;
        c[at] ^= 0x04;
        assert!(matches!(
            decompress(&c, &config, 4).unwrap_err(),
            Error::Corrupt { .. } | Error::HeaderCorrupt { .. }
        ));
    }
}
