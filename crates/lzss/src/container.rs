//! Chunked container format shared by every parallel implementation.
//!
//! The paper's decompression section explains that CULZSS keeps "a list of
//! block compression sizes that are recorded during compression" so the GPU
//! can hand each compressed block to a different CUDA block. This module is
//! that list, plus enough header information to make the stream
//! self-describing. The same container is used by the Pthread baseline so
//! that all parallel codecs interoperate.
//!
//! The paper's format carries **no payload checksum**; container **v1**
//! reproduces that faithfully, so a corrupted token that still decodes
//! structurally yields wrong bytes silently. Container **v2** closes the
//! gap with three CRC-32s (the bzip2 variant from [`crate::crc`]):
//!
//! * one CRC per compressed chunk body, stored next to the size table the
//!   paper already keeps per chunk — the natural integrity granule for
//!   block-parallel decoders, and what makes salvage decoding possible;
//! * one stream CRC: the CRC-32 of each *uncompressed* chunk, folded in
//!   chunk order through [`crate::crc::combine`] (see [`stream_crc_of`]),
//!   catching anything the per-chunk checks cannot see (reordered bodies,
//!   decoder bugs). The fold's rotate-left makes it order-sensitive, and
//!   because it composes from per-chunk values an assembler that reuses
//!   cached chunks can rebuild it without rescanning the whole input;
//! * one CRC over all metadata bytes, so a tampered size table or header
//!   field is rejected before it can misdirect the decoder.
//!
//! Layout (all integers little-endian). v1 ends after `table`; v2 inserts
//! the three checksum fields between the table and the payload:
//!
//! ```text
//! magic       4 B   "CLZC"
//! version     1 B   1 or 2
//! format_id   1 B   TokenFormat::id()
//! min_match   1 B
//! reserved    1 B   zero
//! window      4 B
//! max_match   4 B
//! chunk_size  4 B   nominal uncompressed bytes per chunk
//! total_len   8 B   uncompressed bytes overall
//! n_chunks    4 B
//! table       4 B × n_chunks   compressed size of each chunk
//! chunk_crcs  4 B × n_chunks   CRC-32 of each compressed body   (v2 only)
//! stream_crc  4 B              fold of per-chunk uncompressed CRC-32s (v2 only)
//! meta_crc    4 B              CRC-32 of every byte above       (v2 only)
//! payload     concatenated chunk bodies, in order
//! ```
//!
//! Every byte of a v2 stream is therefore covered by some checksum: the
//! header and both tables by `meta_crc`, each payload byte by its chunk's
//! CRC, and the decoded result end-to-end by `stream_crc`.

use crate::config::LzssConfig;
use crate::crc::crc32;
use crate::error::{Error, Result};

/// Container magic: `"CLZC"`.
pub const MAGIC: [u8; 4] = *b"CLZC";
/// The checksum-free container version (paper-faithful).
pub const VERSION_V1: u8 = 1;
/// The checksummed container version.
pub const VERSION_V2: u8 = 2;

/// Which container version to emit when assembling a stream.
///
/// Decoders accept both; this only selects the writer. [`ContainerVersion::V1`]
/// exists for byte-compatibility with pre-checksum streams (e.g. the pinned
/// golden fixtures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContainerVersion {
    /// Checksum-free layout, byte-identical to pre-v2 streams.
    V1,
    /// Checksummed layout (per-chunk + stream + metadata CRC-32).
    #[default]
    V2,
}

impl ContainerVersion {
    /// The version byte written into the header.
    pub fn byte(self) -> u8 {
        match self {
            ContainerVersion::V1 => VERSION_V1,
            ContainerVersion::V2 => VERSION_V2,
        }
    }
}

/// Parsed container header plus the chunk size table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container version byte ([`VERSION_V1`] or [`VERSION_V2`]).
    pub version: u8,
    /// Token format identifier (see [`crate::format::TokenFormat::id`]).
    pub format_id: u8,
    /// Window size the chunks were compressed with.
    pub window_size: u32,
    /// Minimum encodable match.
    pub min_match: u8,
    /// Maximum encodable match.
    pub max_match: u32,
    /// Nominal uncompressed chunk size; every chunk except the last covers
    /// exactly this many bytes.
    pub chunk_size: u32,
    /// Total uncompressed length.
    pub total_len: u64,
    /// Compressed size of each chunk, in order.
    pub chunk_comp_sizes: Vec<u32>,
    /// CRC-32 of each compressed chunk body (empty for v1).
    pub chunk_crcs: Vec<u32>,
    /// Stream CRC: per-chunk uncompressed CRC-32s folded in order through
    /// [`crate::crc::combine`] (`None` for v1). See [`stream_crc_of`].
    pub stream_crc: Option<u32>,
}

/// Per-chunk verdict from [`Container::check_payload`], granular enough for
/// `culzss verify` to print one line per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkCheck {
    /// Chunk index.
    pub index: usize,
    /// Byte range of the compressed body, relative to the payload start.
    pub comp_range: std::ops::Range<usize>,
    /// Uncompressed length this chunk should decode to.
    pub uncompressed_len: usize,
    /// CRC recorded in the container (`None` for v1 streams).
    pub stored_crc: Option<u32>,
    /// CRC computed over the received body (`None` if the body is missing
    /// or truncated).
    pub computed_crc: Option<u32>,
}

impl ChunkCheck {
    /// Whether this chunk's body is present and (when CRCs exist) matches.
    pub fn ok(&self) -> bool {
        match (self.stored_crc, self.computed_crc) {
            (_, None) => false,
            (Some(stored), Some(computed)) => stored == computed,
            (None, Some(_)) => true,
        }
    }
}

impl Container {
    /// Fixed header size before the chunk table.
    pub const HEADER_LEN: usize = 32;

    /// Builds a container descriptor from a configuration. The descriptor
    /// starts empty; assembly fills in the size and CRC tables.
    pub fn new(config: &LzssConfig, chunk_size: u32, total_len: u64) -> Self {
        Self::new_versioned(config, chunk_size, total_len, ContainerVersion::default())
    }

    /// [`Container::new`] with an explicit emission version.
    pub fn new_versioned(
        config: &LzssConfig,
        chunk_size: u32,
        total_len: u64,
        version: ContainerVersion,
    ) -> Self {
        Self {
            version: version.byte(),
            format_id: config.format.id(),
            window_size: config.window_size as u32,
            min_match: config.min_match as u8,
            max_match: config.max_match as u32,
            chunk_size,
            total_len,
            chunk_comp_sizes: Vec::new(),
            chunk_crcs: Vec::new(),
            stream_crc: None,
        }
    }

    /// Whether this container carries v2 checksums.
    pub fn is_checksummed(&self) -> bool {
        self.version >= VERSION_V2
    }

    /// Number of chunks implied by `total_len` and `chunk_size`.
    pub fn expected_chunks(&self) -> usize {
        if self.total_len == 0 {
            0
        } else {
            (self.total_len as usize).div_ceil(self.chunk_size as usize)
        }
    }

    /// Uncompressed length of chunk `index`.
    pub fn chunk_uncompressed_len(&self, index: usize) -> usize {
        let n = self.expected_chunks();
        debug_assert!(index < n);
        if index + 1 < n {
            self.chunk_size as usize
        } else {
            let rem = (self.total_len % u64::from(self.chunk_size)) as usize;
            if rem == 0 {
                self.chunk_size as usize
            } else {
                rem
            }
        }
    }

    /// Serializes the header + tables (+ v2 checksum trailer), followed by
    /// nothing; callers append the payload chunks in order.
    pub fn serialize_header(&self) -> Vec<u8> {
        let n = self.chunk_comp_sizes.len();
        let mut out = Vec::with_capacity(Self::HEADER_LEN + 8 * n + 8);
        out.extend_from_slice(&MAGIC);
        out.push(self.version);
        out.push(self.format_id);
        out.push(self.min_match);
        out.push(0);
        out.extend_from_slice(&self.window_size.to_le_bytes());
        out.extend_from_slice(&self.max_match.to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for size in &self.chunk_comp_sizes {
            out.extend_from_slice(&size.to_le_bytes());
        }
        if self.is_checksummed() {
            debug_assert_eq!(self.chunk_crcs.len(), n, "v2 needs one CRC per chunk");
            for crc in &self.chunk_crcs {
                out.extend_from_slice(&crc.to_le_bytes());
            }
            out.extend_from_slice(&self.stream_crc.unwrap_or(0).to_le_bytes());
            out.extend_from_slice(&crc32(&out).to_le_bytes());
        }
        out
    }

    /// Parses a container, returning the header and the payload offset.
    ///
    /// The payload must be exactly the length the size table declares;
    /// shorter input yields [`Error::Truncated`] *before* anything is
    /// allocated from header-declared sizes, and a v2 metadata-CRC mismatch
    /// yields [`Error::HeaderCorrupt`].
    pub fn parse(bytes: &[u8]) -> Result<(Self, usize)> {
        let (header, payload_offset) = Self::parse_prefix(bytes)?;
        let payload: u64 = header.chunk_comp_sizes.iter().map(|&s| u64::from(s)).sum();
        let got = (bytes.len() - payload_offset) as u64;
        if got < payload {
            return Err(Error::Truncated {
                needed: payload_offset + payload as usize,
                got: bytes.len(),
            });
        }
        if got > payload {
            return Err(Error::InvalidContainer {
                reason: format!("payload is {got} bytes but the table sums to {payload}"),
            });
        }
        Ok((header, payload_offset))
    }

    /// [`Container::parse`] without the payload-length check: the metadata
    /// (header, tables, v2 checksum trailer) must still be fully present and
    /// valid, but the payload may be truncated or carry trailing garbage.
    ///
    /// This is the entry point for salvage decoding, where a truncated tail
    /// should damage only the chunks it physically removed.
    pub fn parse_lenient(bytes: &[u8]) -> Result<(Self, usize)> {
        Self::parse_prefix(bytes)
    }

    /// Shared header/table/trailer parsing; does not look at the payload.
    fn parse_prefix(bytes: &[u8]) -> Result<(Self, usize)> {
        let need = |n: usize| {
            if bytes.len() < n {
                Err(Error::Truncated { needed: n, got: bytes.len() })
            } else {
                Ok(())
            }
        };
        need(Self::HEADER_LEN)?;
        if bytes[..4] != MAGIC {
            return Err(Error::InvalidContainer { reason: "bad magic".into() });
        }
        let version = bytes[4];
        if version != VERSION_V1 && version != VERSION_V2 {
            return Err(Error::InvalidContainer {
                reason: format!("unsupported version {version}"),
            });
        }
        let le32 = |o: usize| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&bytes[o..o + 4]);
            u32::from_le_bytes(w)
        };
        let mut w8 = [0u8; 8];
        w8.copy_from_slice(&bytes[20..28]);
        let mut header = Self {
            version,
            format_id: bytes[5],
            min_match: bytes[6],
            window_size: le32(8),
            max_match: le32(12),
            chunk_size: le32(16),
            total_len: u64::from_le_bytes(w8),
            chunk_comp_sizes: Vec::new(),
            chunk_crcs: Vec::new(),
            stream_crc: None,
        };
        if header.chunk_size == 0 {
            return Err(Error::InvalidContainer { reason: "chunk_size is zero".into() });
        }
        let n_chunks = le32(28) as usize;
        // Bound the table length by the input before trusting n_chunks:
        // a 4-byte field can demand a 16 GiB table.
        let per_chunk = if version >= VERSION_V2 { 8 } else { 4 };
        let trailer = if version >= VERSION_V2 { 8 } else { 0 };
        let meta_end = Self::HEADER_LEN + per_chunk * n_chunks + trailer;
        need(meta_end)?;
        if n_chunks != header.expected_chunks() {
            return Err(Error::InvalidContainer {
                reason: format!(
                    "table has {} chunks but total_len/chunk_size implies {}",
                    n_chunks,
                    header.expected_chunks()
                ),
            });
        }
        if version >= VERSION_V2 {
            let stored = le32(meta_end - 4);
            let computed = crc32(&bytes[..meta_end - 4]);
            if stored != computed {
                return Err(Error::HeaderCorrupt { expected_crc: stored, got_crc: computed });
            }
        }
        header.chunk_comp_sizes = (0..n_chunks).map(|i| le32(Self::HEADER_LEN + 4 * i)).collect();
        if version >= VERSION_V2 {
            let crc_base = Self::HEADER_LEN + 4 * n_chunks;
            header.chunk_crcs = (0..n_chunks).map(|i| le32(crc_base + 4 * i)).collect();
            header.stream_crc = Some(le32(meta_end - 8));
        }
        // Reject absurd size claims before any caller allocates from them:
        // one compressed byte can expand to at most max_match output bytes
        // (both token formats spend well over a byte per match), so a chunk
        // declaring more output than `comp_size × max_match` is corrupt no
        // matter what the payload holds.
        let expand = u64::from(header.max_match.max(1));
        for (i, &comp) in header.chunk_comp_sizes.iter().enumerate() {
            let unc = header.chunk_uncompressed_len(i) as u64;
            if unc > u64::from(comp).saturating_mul(expand) {
                return Err(Error::InvalidContainer {
                    reason: format!(
                        "chunk {i} declares {unc} uncompressed bytes from {comp} \
                         compressed bytes (over the {expand}x expansion bound)"
                    ),
                });
            }
        }
        Ok((header, meta_end))
    }

    /// Checks that a decoding configuration matches this container.
    pub fn check_config(&self, config: &LzssConfig) -> Result<()> {
        let ok = config.format.id() == self.format_id
            && config.window_size == self.window_size as usize
            && config.min_match == usize::from(self.min_match)
            && config.max_match == self.max_match as usize;
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidContainer {
                reason: format!(
                    "configuration mismatch: stream is (fmt {}, win {}, match {}..={}) \
                     but decoder is (fmt {}, win {}, match {}..={})",
                    self.format_id,
                    self.window_size,
                    self.min_match,
                    self.max_match,
                    config.format.id(),
                    config.window_size,
                    config.min_match,
                    config.max_match
                ),
            })
        }
    }

    /// Iterates `(compressed_range, uncompressed_len)` for each chunk, with
    /// ranges relative to the payload start.
    pub fn chunk_layout(&self) -> Vec<(std::ops::Range<usize>, usize)> {
        let mut offset = 0usize;
        (0..self.chunk_comp_sizes.len())
            .map(|i| {
                let comp = self.chunk_comp_sizes[i] as usize;
                let range = offset..offset + comp;
                offset += comp;
                (range, self.chunk_uncompressed_len(i))
            })
            .collect()
    }

    /// Verifies every chunk body against its stored CRC. No-op for v1
    /// streams (they carry no CRCs); the first mismatch is returned as
    /// [`Error::Corrupt`].
    pub fn verify_chunk_crcs(&self, payload: &[u8]) -> Result<()> {
        for check in self.check_payload(payload) {
            if !check.ok() {
                return Err(match (check.stored_crc, check.computed_crc) {
                    (Some(expected), Some(got)) => {
                        Error::Corrupt { chunk: check.index, expected_crc: expected, got_crc: got }
                    }
                    _ => Error::Truncated { needed: check.comp_range.end, got: payload.len() },
                });
            }
        }
        Ok(())
    }

    /// Verifies decoded output against the whole-stream CRC (the
    /// [`stream_crc_of`] fold over `decoded` at this container's chunk
    /// size). No-op for v1.
    pub fn verify_stream_crc(&self, decoded: &[u8]) -> Result<()> {
        if let Some(expected) = self.stream_crc {
            let got = stream_crc_of(decoded, self.chunk_size);
            if got != expected {
                return Err(Error::StreamCorrupt { expected_crc: expected, got_crc: got });
            }
        }
        Ok(())
    }

    /// Per-chunk integrity report over a (possibly truncated) payload.
    /// Bodies that extend past the end of `payload` get `computed_crc:
    /// None`; v1 streams get `stored_crc: None` everywhere.
    pub fn check_payload(&self, payload: &[u8]) -> Vec<ChunkCheck> {
        self.chunk_layout()
            .into_iter()
            .enumerate()
            .map(|(index, (comp_range, uncompressed_len))| ChunkCheck {
                index,
                stored_crc: self.chunk_crcs.get(index).copied(),
                computed_crc: payload.get(comp_range.clone()).map(crc32),
                comp_range,
                uncompressed_len,
            })
            .collect()
    }
}

/// Assembles a checksum-free (v1) container stream from per-chunk
/// compressed bodies, byte-identical to pre-v2 output.
pub fn assemble(
    config: &LzssConfig,
    chunk_size: u32,
    total_len: u64,
    chunk_bodies: &[Vec<u8>],
) -> Result<Vec<u8>> {
    assemble_with(config, chunk_size, total_len, 0, chunk_bodies, ContainerVersion::V1)
}

/// The v2 stream CRC of `input` when chunked at `chunk_size`: the CRC-32
/// of each uncompressed chunk, folded in chunk order through
/// [`crate::crc::combine`] (`stream.rotate_left(1) ^ chunk_crc`).
///
/// The fold starts at zero, so an empty input yields 0 and a
/// single-chunk input yields exactly `crc32(input)` — both identical to
/// a whole-input CRC. Multi-chunk streams differ: the rotate-left makes
/// the fold order-sensitive, and it lets an assembler that reuses
/// per-chunk CRCs (e.g. a dedup cache) rebuild the stream CRC without
/// rescanning the input.
pub fn stream_crc_of(input: &[u8], chunk_size: u32) -> u32 {
    let step = (chunk_size as usize).max(1);
    let mut stream = 0u32;
    for chunk in input.chunks(step) {
        stream = crate::crc::combine(stream, crc32(chunk));
    }
    stream
}

/// Assembles a checksummed (v2) container stream. `stream_crc` must be
/// the [`stream_crc_of`] fold of the *uncompressed* input the bodies
/// encode, chunked at `chunk_size`.
pub fn assemble_v2(
    config: &LzssConfig,
    chunk_size: u32,
    total_len: u64,
    stream_crc: u32,
    chunk_bodies: &[Vec<u8>],
) -> Result<Vec<u8>> {
    assemble_with(config, chunk_size, total_len, stream_crc, chunk_bodies, ContainerVersion::V2)
}

/// Version-dispatching assembler; `stream_crc` is ignored for v1.
pub fn assemble_with(
    config: &LzssConfig,
    chunk_size: u32,
    total_len: u64,
    stream_crc: u32,
    chunk_bodies: &[Vec<u8>],
    version: ContainerVersion,
) -> Result<Vec<u8>> {
    let mut container = Container::new_versioned(config, chunk_size, total_len, version);
    if chunk_bodies.len() != container.expected_chunks() {
        return Err(Error::InvalidContainer {
            reason: format!(
                "assemble got {} bodies for {} chunks",
                chunk_bodies.len(),
                container.expected_chunks()
            ),
        });
    }
    for body in chunk_bodies {
        if body.len() > u32::MAX as usize {
            return Err(Error::InvalidContainer { reason: "chunk body over 4 GiB".into() });
        }
        container.chunk_comp_sizes.push(body.len() as u32);
        if version == ContainerVersion::V2 {
            container.chunk_crcs.push(crc32(body));
        }
    }
    if version == ContainerVersion::V2 {
        container.stream_crc = Some(stream_crc);
    }
    let mut out = container.serialize_header();
    for body in chunk_bodies {
        out.extend_from_slice(body);
    }
    Ok(out)
}

/// Assembles a checksummed (v2) container stream from bodies whose
/// per-chunk CRCs are already known — the dedup-cache path, which stores
/// `crc32(body)` next to each compressed body and must not rescan it on
/// a hit. `chunk_crcs[i]` must equal `crc32(chunk_bodies[i])` (debug
/// builds assert it) and `stream_crc` must be the [`stream_crc_of`] fold
/// of the uncompressed input. Output is byte-identical to
/// [`assemble_v2`] over the same bodies.
pub fn assemble_v2_precomputed(
    config: &LzssConfig,
    chunk_size: u32,
    total_len: u64,
    stream_crc: u32,
    chunk_bodies: &[&[u8]],
    chunk_crcs: &[u32],
) -> Result<Vec<u8>> {
    let mut container =
        Container::new_versioned(config, chunk_size, total_len, ContainerVersion::V2);
    if chunk_bodies.len() != container.expected_chunks() {
        return Err(Error::InvalidContainer {
            reason: format!(
                "assemble got {} bodies for {} chunks",
                chunk_bodies.len(),
                container.expected_chunks()
            ),
        });
    }
    if chunk_crcs.len() != chunk_bodies.len() {
        return Err(Error::InvalidContainer {
            reason: format!(
                "assemble got {} chunk crcs for {} bodies",
                chunk_crcs.len(),
                chunk_bodies.len()
            ),
        });
    }
    for (body, &crc) in chunk_bodies.iter().zip(chunk_crcs) {
        if body.len() > u32::MAX as usize {
            return Err(Error::InvalidContainer { reason: "chunk body over 4 GiB".into() });
        }
        debug_assert_eq!(crc, crc32(body), "precomputed chunk CRC does not match its body");
        container.chunk_comp_sizes.push(body.len() as u32);
        container.chunk_crcs.push(crc);
    }
    container.stream_crc = Some(stream_crc);
    let mut out = container.serialize_header();
    for body in chunk_bodies {
        out.extend_from_slice(body);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LzssConfig {
        LzssConfig::culzss_v1()
    }

    fn v1_container(chunk_size: u32, total_len: u64) -> Container {
        Container::new_versioned(&cfg(), chunk_size, total_len, ContainerVersion::V1)
    }

    #[test]
    fn header_roundtrip_v1() {
        let mut c = v1_container(4096, 10_000);
        c.chunk_comp_sizes = vec![3000, 3000, 1000];
        let mut bytes = c.serialize_header();
        bytes.extend_from_slice(&vec![0u8; 7000]);
        let (parsed, offset) = Container::parse(&bytes).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(offset, Container::HEADER_LEN + 12);
    }

    #[test]
    fn header_roundtrip_v2() {
        let mut c = Container::new(&cfg(), 4096, 10_000);
        assert!(c.is_checksummed());
        c.chunk_comp_sizes = vec![3000, 3000, 1000];
        c.chunk_crcs = vec![crc32(&[0u8; 3000]), crc32(&[0u8; 3000]), crc32(&[0u8; 1000])];
        c.stream_crc = Some(0xABCD_1234);
        let mut bytes = c.serialize_header();
        bytes.extend_from_slice(&vec![0u8; 7000]);
        let (parsed, offset) = Container::parse(&bytes).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(offset, Container::HEADER_LEN + 3 * 8 + 8);
    }

    #[test]
    fn chunk_math() {
        let c = Container::new(&cfg(), 4096, 10_000);
        assert_eq!(c.expected_chunks(), 3);
        assert_eq!(c.chunk_uncompressed_len(0), 4096);
        assert_eq!(c.chunk_uncompressed_len(1), 4096);
        assert_eq!(c.chunk_uncompressed_len(2), 10_000 - 8192);

        let exact = Container::new(&cfg(), 4096, 8192);
        assert_eq!(exact.expected_chunks(), 2);
        assert_eq!(exact.chunk_uncompressed_len(1), 4096);

        let empty = Container::new(&cfg(), 4096, 0);
        assert_eq!(empty.expected_chunks(), 0);
    }

    #[test]
    fn assemble_and_layout() {
        let bodies = vec![vec![1u8; 1000], vec![2u8; 2000], vec![3u8; 500]];
        for version in [ContainerVersion::V1, ContainerVersion::V2] {
            let stream = assemble_with(&cfg(), 4096, 10_000, 7, &bodies, version).unwrap();
            let (parsed, offset) = Container::parse(&stream).unwrap();
            let layout = parsed.chunk_layout();
            assert_eq!(layout.len(), 3);
            assert_eq!(layout[0], (0..1000, 4096));
            assert_eq!(layout[1], (1000..3000, 4096));
            assert_eq!(layout[2], (3000..3500, 1808));
            assert_eq!(&stream[offset..offset + 1000], &[1u8; 1000][..]);
            assert_eq!(parsed.stream_crc, (version == ContainerVersion::V2).then_some(7));
        }
    }

    #[test]
    fn v1_assembly_is_byte_identical_to_the_legacy_layout() {
        // The legacy writer had no version knob; its exact bytes are pinned
        // here so the golden fixtures stay valid.
        let bodies = vec![vec![9u8, 9, 9, 9]];
        let stream = assemble(&cfg(), 4096, 4096, &bodies).unwrap();
        assert_eq!(stream.len(), Container::HEADER_LEN + 4 + 4);
        assert_eq!(stream[4], VERSION_V1);
        assert_eq!(&stream[Container::HEADER_LEN + 4..], &[9, 9, 9, 9]);
    }

    #[test]
    fn assemble_rejects_wrong_chunk_count() {
        let bodies = vec![vec![0u8; 4]];
        assert!(assemble(&cfg(), 4096, 10_000, &bodies).is_err());
        assert!(assemble_v2(&cfg(), 4096, 10_000, 0, &bodies).is_err());
    }

    #[test]
    fn parse_rejects_corruptions_v1() {
        let mut c = v1_container(4096, 4096);
        c.chunk_comp_sizes = vec![1000];
        let good: Vec<u8> =
            c.serialize_header().into_iter().chain(std::iter::repeat_n(9u8, 1000)).collect();
        Container::parse(&good).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(Container::parse(&bad).is_err());

        // Bad version.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(Container::parse(&bad).is_err());

        // Truncated payload → typed Truncated with the full need.
        assert_eq!(
            Container::parse(&good[..good.len() - 1]).unwrap_err(),
            Error::Truncated { needed: good.len(), got: good.len() - 1 }
        );

        // Extra payload.
        let mut bad = good.clone();
        bad.push(0);
        assert!(Container::parse(&bad).is_err());

        // Zero chunk size.
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert!(Container::parse(&bad).is_err());
    }

    #[test]
    fn v2_metadata_tampering_is_rejected_by_the_meta_crc() {
        let bodies = vec![vec![5u8; 1000], vec![6u8; 900]];
        let stream = assemble_v2(&cfg(), 1024, 2048, 77, &bodies).unwrap();
        Container::parse(&stream).unwrap();

        // Flip one byte in the size table: caught by meta CRC, not by the
        // downstream payload-sum heuristic.
        let mut bad = stream.clone();
        bad[Container::HEADER_LEN] ^= 0x01;
        assert!(matches!(Container::parse(&bad).unwrap_err(), Error::HeaderCorrupt { .. }));

        // Flip a byte in the chunk-CRC table.
        let mut bad = stream.clone();
        bad[Container::HEADER_LEN + 8] ^= 0x80;
        assert!(matches!(Container::parse(&bad).unwrap_err(), Error::HeaderCorrupt { .. }));

        // Flip a reserved header byte — covered too.
        let mut bad = stream.clone();
        bad[7] ^= 0xFF;
        assert!(matches!(Container::parse(&bad).unwrap_err(), Error::HeaderCorrupt { .. }));
    }

    #[test]
    fn payload_flips_are_caught_by_chunk_crcs() {
        let bodies = vec![vec![5u8; 100], vec![6u8; 90]];
        let stream = assemble_v2(&cfg(), 1024, 2048, 77, &bodies).unwrap();
        let (container, offset) = Container::parse(&stream).unwrap();
        container.verify_chunk_crcs(&stream[offset..]).unwrap();

        let mut bad = stream.clone();
        bad[offset + 120] ^= 0x10; // inside chunk 1
        let (container, offset) = Container::parse(&bad).unwrap();
        let err = container.verify_chunk_crcs(&bad[offset..]).unwrap_err();
        assert!(matches!(err, Error::Corrupt { chunk: 1, .. }), "{err:?}");

        let checks = container.check_payload(&bad[offset..]);
        assert!(checks[0].ok());
        assert!(!checks[1].ok());
    }

    #[test]
    fn stream_crc_check() {
        let input = b"whole stream check".to_vec();
        let bodies = vec![input.clone()];
        let stream = assemble_v2(&cfg(), 4096, input.len() as u64, crc32(&input), &bodies).unwrap();
        let (container, _) = Container::parse(&stream).unwrap();
        container.verify_stream_crc(&input).unwrap();
        assert!(matches!(
            container.verify_stream_crc(b"whole stream chEck").unwrap_err(),
            Error::StreamCorrupt { .. }
        ));
        // v1 containers have nothing to check against.
        let v1 = v1_container(4096, 0);
        v1.verify_stream_crc(b"anything").unwrap();
    }

    #[test]
    fn stream_crc_fold_composes_from_per_chunk_crcs() {
        let input: Vec<u8> = (0u32..2500).map(|i| (i * 7 + i / 3) as u8).collect();
        let chunk_size = 1024u32;
        // The helper is exactly the combine() fold over uncompressed
        // chunks, in order.
        let mut manual = 0u32;
        for chunk in input.chunks(chunk_size as usize) {
            manual = crate::crc::combine(manual, crc32(chunk));
        }
        assert_eq!(stream_crc_of(&input, chunk_size), manual);
        // Multi-chunk: the fold is not the whole-input CRC, and it is
        // order-sensitive (swapping two chunks changes it).
        assert_ne!(stream_crc_of(&input, chunk_size), crc32(&input));
        let mut swapped = input.clone();
        let (a, b) = swapped.split_at_mut(1024);
        a[..1024].swap_with_slice(&mut b[..1024]);
        assert_ne!(stream_crc_of(&swapped, chunk_size), stream_crc_of(&input, chunk_size));
        // Degenerate cases collapse to the plain CRC.
        assert_eq!(stream_crc_of(&[], chunk_size), 0);
        assert_eq!(stream_crc_of(&input[..100], chunk_size), crc32(&input[..100]));
    }

    #[test]
    fn precomputed_assembly_matches_assemble_v2() {
        let input: Vec<u8> = (0u32..2048).map(|i| (i % 251) as u8).collect();
        let bodies = vec![vec![5u8; 700], vec![6u8; 650]];
        let stream_crc = stream_crc_of(&input, 1024);
        let plain = assemble_v2(&cfg(), 1024, 2048, stream_crc, &bodies).unwrap();
        let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        let crcs: Vec<u32> = bodies.iter().map(|b| crc32(b)).collect();
        let pre = assemble_v2_precomputed(&cfg(), 1024, 2048, stream_crc, &refs, &crcs).unwrap();
        assert_eq!(pre, plain);
        // CRC-count mismatch is a typed error.
        assert!(assemble_v2_precomputed(&cfg(), 1024, 2048, stream_crc, &refs, &crcs[..1]).is_err());
    }

    #[test]
    fn absurd_size_claims_are_rejected_before_allocation() {
        // A tiny payload claiming a huge uncompressed size must die in
        // parse, not in a caller's with_capacity.
        let mut c = v1_container(u32::MAX, u64::from(u32::MAX));
        c.chunk_comp_sizes = vec![4];
        let bytes: Vec<u8> = c.serialize_header().into_iter().chain([9, 9, 9, 9]).collect();
        let err = Container::parse(&bytes).unwrap_err();
        assert!(matches!(err, Error::InvalidContainer { .. }), "{err:?}");
        assert!(err.to_string().contains("expansion bound"), "{err}");
    }

    #[test]
    fn truncated_tables_are_typed_truncated() {
        let bodies = vec![vec![1u8; 10]];
        for version in [ContainerVersion::V1, ContainerVersion::V2] {
            let stream = assemble_with(&cfg(), 4096, 4096, 0, &bodies, version).unwrap();
            // Cut inside the fixed header and inside the table/trailer.
            for cut in [10, Container::HEADER_LEN + 2] {
                assert!(
                    matches!(
                        Container::parse(&stream[..cut]).unwrap_err(),
                        Error::Truncated { .. }
                    ),
                    "cut {cut} {version:?}"
                );
            }
        }
    }

    #[test]
    fn parse_lenient_tolerates_payload_truncation_only() {
        let bodies = vec![vec![1u8; 100], vec![2u8; 100]];
        let stream = assemble_v2(&cfg(), 1024, 2048, 0, &bodies).unwrap();
        let meta_end = stream.len() - 200;

        // Strict parse refuses a truncated payload; lenient accepts and
        // reports the damage through check_payload.
        let cut = &stream[..stream.len() - 50];
        assert!(Container::parse(cut).is_err());
        let (container, offset) = Container::parse_lenient(cut).unwrap();
        assert_eq!(offset, meta_end);
        let checks = container.check_payload(&cut[offset..]);
        assert!(checks[0].ok());
        assert!(!checks[1].ok());
        assert_eq!(checks[1].computed_crc, None);

        // Metadata truncation is still fatal even for lenient parsing.
        assert!(Container::parse_lenient(&stream[..meta_end - 2]).is_err());
    }

    #[test]
    fn config_check() {
        let mut c = Container::new(&cfg(), 4096, 0);
        c.check_config(&cfg()).unwrap();
        assert!(c.check_config(&LzssConfig::dipperstein()).is_err());
        c.max_match += 1;
        assert!(c.check_config(&cfg()).is_err());
    }

    #[test]
    fn empty_stream_roundtrip() {
        for version in [ContainerVersion::V1, ContainerVersion::V2] {
            let stream = assemble_with(&cfg(), 4096, 0, crc32(b""), &[], version).unwrap();
            let (parsed, offset) = Container::parse(&stream).unwrap();
            assert_eq!(parsed.expected_chunks(), 0);
            assert_eq!(offset, stream.len());
            parsed.verify_chunk_crcs(&[]).unwrap();
            parsed.verify_stream_crc(b"").unwrap();
        }
    }
}
