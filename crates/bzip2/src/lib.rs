//! # culzss-bzip2 — a from-scratch block-sorting compressor
//!
//! The paper compares CULZSS against the BZIP2 program. No external
//! compressor is available here, so this crate implements the same
//! pipeline bzip2 uses, stage by stage:
//!
//! ```text
//! RLE1 → Burrows–Wheeler transform → move-to-front → zero-run-length
//!      → canonical Huffman
//! ```
//!
//! and the exact inverse chain. Differences from the real program are
//! deliberate simplifications that do not change the comparison's shape
//! and are documented in `EXPERIMENTS.md`:
//!
//! * one canonical Huffman table per block instead of bzip2's six
//!   switchable tables (costs a few percent of ratio);
//! * the BWT uses a linear-time SA-IS suffix array ([`bwt::Backend::SaIs`])
//!   or a doubling sort ([`bwt::Backend::Doubling`]); neither reproduces
//!   bzip2 1.0's pathological slowdown on highly repetitive data.
//!
//! ## Example
//!
//! ```
//! let input = b"tobeornottobethatisthequestion".repeat(200);
//! let compressed = culzss_bzip2::compress(&input).unwrap();
//! let restored = culzss_bzip2::decompress(&compressed).unwrap();
//! assert_eq!(restored, input);
//! assert!(compressed.len() < input.len() / 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bwt;
pub mod crc;
pub mod error;
pub mod huffman;
pub mod mtf;
pub mod rle1;
pub mod zrle;

pub use block::{BlockCodec, BZ_BLOCK_SIZE};
pub use error::{BzError, BzResult};

use bwt::Backend;

/// Magic prefix of the container: `"BZR1"`.
pub const MAGIC: [u8; 4] = *b"BZR1";

/// Compresses `input` with the default 900 KB blocks (bzip2's `-9`).
pub fn compress(input: &[u8]) -> BzResult<Vec<u8>> {
    compress_with(input, BZ_BLOCK_SIZE, Backend::SaIs)
}

/// Compresses with explicit block size and BWT backend.
pub fn compress_with(input: &[u8], block_size: usize, backend: Backend) -> BzResult<Vec<u8>> {
    if block_size == 0 {
        return Err(BzError::Corrupt("block size must be positive".into()));
    }
    let codec = BlockCodec::new(backend);
    let mut out = Vec::with_capacity(input.len() / 2 + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    let mut stream_crc = 0u32;
    for block in input.chunks(block_size.max(1)) {
        let body = codec.compress_block(block);
        let block_crc = crc::crc32(block);
        stream_crc = crc::combine(stream_crc, block_crc);
        out.extend_from_slice(&block_crc.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    // Stream-level CRC, as in bzip2's end-of-stream record.
    out.extend_from_slice(&stream_crc.to_le_bytes());
    Ok(out)
}

/// Decompresses a stream produced by [`compress`] / [`compress_with`].
pub fn decompress(bytes: &[u8]) -> BzResult<Vec<u8>> {
    if bytes.len() < 16 {
        return Err(BzError::Truncated("stream header"));
    }
    if bytes[..4] != MAGIC {
        return Err(BzError::Corrupt("bad magic".into()));
    }
    let total_len = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")) as usize;
    let block_size = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if block_size == 0 {
        return Err(BzError::Corrupt("zero block size".into()));
    }
    let codec = BlockCodec::new(Backend::SaIs);
    let mut out = Vec::with_capacity(total_len);
    let mut pos = 16usize;
    let mut stream_crc = 0u32;
    while out.len() < total_len {
        if pos + 8 > bytes.len() {
            return Err(BzError::Truncated("block header"));
        }
        let stored_crc = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let body_len =
            u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
        pos += 8;
        if pos + body_len > bytes.len() {
            return Err(BzError::Truncated("block body"));
        }
        let expected = (total_len - out.len()).min(block_size);
        let block = codec.decompress_block(&bytes[pos..pos + body_len], expected)?;
        let computed = crc::crc32(&block);
        if computed != stored_crc {
            return Err(BzError::Corrupt(format!(
                "block CRC mismatch: stored {stored_crc:08x}, computed {computed:08x}"
            )));
        }
        stream_crc = crc::combine(stream_crc, computed);
        out.extend_from_slice(&block);
        pos += body_len;
    }
    if pos + 4 > bytes.len() {
        return Err(BzError::Truncated("stream CRC"));
    }
    let stored_stream = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    if stored_stream != stream_crc {
        return Err(BzError::Corrupt("stream CRC mismatch".into()));
    }
    pos += 4;
    if pos != bytes.len() {
        return Err(BzError::Corrupt("trailing bytes after final block".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"").unwrap();
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn small_roundtrip() {
        let input = b"banana bandana cabana";
        let c = compress(input).unwrap();
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn multi_block_roundtrip() {
        let input: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let c = compress_with(&input, 8 * 1024, Backend::SaIs).unwrap();
        assert_eq!(decompress(&c).unwrap(), input);

        // An exact multiple of the block size leaves no short final block.
        let exact = vec![42u8; 4 * 1024];
        let c = compress_with(&exact, 1024, Backend::SaIs).unwrap();
        assert_eq!(decompress(&c).unwrap(), exact);

        assert!(compress_with(b"x", 0, Backend::SaIs).is_err());
        // The default block is bzip2's `-9`.
        assert_eq!(BZ_BLOCK_SIZE, 900 * 1000);
    }

    #[test]
    fn backends_agree() {
        let input = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let a = compress_with(&input, 16 * 1024, Backend::SaIs).unwrap();
        let b = compress_with(&input, 16 * 1024, Backend::Doubling).unwrap();
        // Identical suffix orders → identical streams.
        assert_eq!(a, b);
        assert_eq!(decompress(&a).unwrap(), input);
    }

    #[test]
    fn beats_lzss_class_ratios_on_text() {
        // The whole point of the baseline: block sorting compresses text
        // 2-3× harder than LZSS (Table II).
        let input = b"compression ratio comparison corpus with words repeating words ".repeat(400);
        let c = compress(&input).unwrap();
        assert!(c.len() * 5 < input.len(), "{} vs {}", c.len(), input.len());
    }

    #[test]
    fn corruption_is_detected_not_panicking() {
        let input = b"some block sorted data ".repeat(50);
        let c = compress(&input).unwrap();
        for cut in [0usize, 3, 15, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = c.clone();
        bad[0] = b'X';
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn incompressible_data_survives() {
        let mut state = 88172645463325252u64;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let c = compress(&input).unwrap();
        assert_eq!(decompress(&c).unwrap(), input);
    }
}
