//! The dedup front end: chunk, look up, compress misses, reassemble.
//!
//! [`DedupCompressor::compress_with`] splits the input into
//! content-defined segments (whole container chunks each, see
//! [`crate::chunker`]), serves segments whose SHA-256 it has seen from
//! the [`ChunkCache`], sends the rest through a caller-supplied segment
//! encoder — the GPU [`Culzss`] engine or the CPU reference — and
//! assembles one container v2 stream.
//!
//! Byte-compatibility is by construction, not by re-encoding: every
//! CULZSS engine compresses each container chunk independently of its
//! neighbours, so a chunk's compressed body depends only on the chunk's
//! raw bytes — a body compressed when the segment first appeared is
//! byte-identical to what the engine would emit for the same bytes at
//! any later position. The assembler stitches cached and fresh bodies
//! into the same rigid chunk grid the engine uses, rebuilds the size
//! and CRC tables, and folds the stream CRC from per-chunk raw CRCs via
//! [`culzss_lzss::crc::combine`] — so cache-on output is byte-identical
//! to cache-off output, and every existing decoder (strict, auto,
//! salvage) reads it unchanged.

use std::sync::Arc;

use culzss::{hetero, Culzss, CulzssError, CulzssParams, CulzssResult};
use culzss_lzss::container::{assemble_v2_precomputed, stream_crc_of, Container};
use culzss_lzss::crc::{combine, crc32};

use crate::cache::{CachedSegment, ChunkCache};
use crate::chunker::Chunker;
use crate::hash::sha256;

/// Per-call outcome counters from one [`DedupCompressor`] compression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupReport {
    /// Content-defined segments the input split into.
    pub segments: usize,
    /// Segments served from cache.
    pub hit_segments: usize,
    /// Segments compressed fresh.
    pub miss_segments: usize,
    /// Uncompressed input bytes.
    pub raw_bytes: usize,
    /// Uncompressed bytes whose compression was skipped (cache hits).
    pub bytes_from_cache: usize,
    /// Bytes of the assembled container stream.
    pub stream_bytes: usize,
}

impl DedupReport {
    /// Fraction of segments served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.hit_segments as f64 / self.segments as f64
        }
    }
}

/// Content-addressed dedup front end over a shared [`ChunkCache`].
///
/// The output is always a container **v2** stream (the checksummed
/// layout); it is byte-identical to what the wrapped engine emits
/// directly when that engine's `container_version` is V2 — the default
/// everywhere.
#[derive(Debug, Clone)]
pub struct DedupCompressor {
    cache: Arc<ChunkCache>,
    chunker: Chunker,
    params: CulzssParams,
}

impl DedupCompressor {
    /// A front end chunking on `params.chunk_size` with default segment
    /// bounds ([`Chunker::for_align`]).
    pub fn new(cache: Arc<ChunkCache>, params: CulzssParams) -> Self {
        let chunker = Chunker::for_align(params.chunk_size);
        Self { cache, chunker, params }
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    /// The chunker in effect.
    pub fn chunker(&self) -> Chunker {
        self.chunker.normalized()
    }

    /// Compresses `input`, encoding cache-miss segments with
    /// `encode_segment` (which must return the compressed body of each
    /// container chunk in the segment, in order — see
    /// [`gpu_segment_encoder`] / [`cpu_segment_encoder`]).
    pub fn compress_with<F>(
        &self,
        input: &[u8],
        mut encode_segment: F,
    ) -> CulzssResult<(Vec<u8>, DedupReport)>
    where
        F: FnMut(&[u8]) -> CulzssResult<Vec<Vec<u8>>>,
    {
        let chunk_size = self.params.chunk_size.max(1);
        let mut report = DedupReport { raw_bytes: input.len(), ..DedupReport::default() };
        let mut resolved: Vec<Arc<CachedSegment>> = Vec::new();
        let mut stream_crc = 0u32;

        for range in self.chunker.segments(input) {
            let raw = &input[range];
            let key = sha256(raw);
            report.segments += 1;
            let segment = match self.cache.lookup(&key) {
                Some(hit) => {
                    report.hit_segments += 1;
                    report.bytes_from_cache += raw.len();
                    hit
                }
                None => {
                    report.miss_segments += 1;
                    let bodies = encode_segment(raw)?;
                    let expected = raw.len().div_ceil(chunk_size);
                    if bodies.len() != expected {
                        return Err(CulzssError::InvalidParams(format!(
                            "segment encoder returned {} bodies for a {}-byte segment \
                             ({expected} chunks of {chunk_size})",
                            bodies.len(),
                            raw.len(),
                        )));
                    }
                    let body_crcs = bodies.iter().map(|b| crc32(b)).collect();
                    let raw_crcs = raw.chunks(chunk_size).map(crc32).collect();
                    let segment =
                        Arc::new(CachedSegment { bodies, body_crcs, raw_crcs, raw_len: raw.len() });
                    self.cache.insert(key, Arc::clone(&segment));
                    segment
                }
            };
            for &raw_crc in &segment.raw_crcs {
                stream_crc = combine(stream_crc, raw_crc);
            }
            resolved.push(segment);
        }

        debug_assert_eq!(stream_crc, stream_crc_of(input, chunk_size as u32));
        let bodies: Vec<&[u8]> =
            resolved.iter().flat_map(|seg| seg.bodies.iter().map(Vec::as_slice)).collect();
        let chunk_crcs: Vec<u32> =
            resolved.iter().flat_map(|seg| seg.body_crcs.iter().copied()).collect();
        let stream = assemble_v2_precomputed(
            &self.params.lzss_config(),
            chunk_size as u32,
            input.len() as u64,
            stream_crc,
            &bodies,
            &chunk_crcs,
        )?;
        report.stream_bytes = stream.len();
        Ok((stream, report))
    }

    /// [`Self::compress_with`] over the simulated-GPU engine.
    pub fn compress_gpu(
        &self,
        culzss: &Culzss,
        input: &[u8],
    ) -> CulzssResult<(Vec<u8>, DedupReport)> {
        self.compress_with(input, gpu_segment_encoder(culzss))
    }

    /// [`Self::compress_with`] over the CPU reference engine.
    pub fn compress_cpu(
        &self,
        input: &[u8],
        threads: usize,
    ) -> CulzssResult<(Vec<u8>, DedupReport)> {
        let params = self.params.clone();
        self.compress_with(input, cpu_segment_encoder(&params, threads))
    }
}

/// Segment encoder over a [`Culzss`] engine: compresses the segment as
/// a standalone input and splits the resulting container back into
/// per-chunk bodies (chunk compression is position-independent, so the
/// bodies are exactly what a whole-input run would have produced).
pub fn gpu_segment_encoder(
    culzss: &Culzss,
) -> impl FnMut(&[u8]) -> CulzssResult<Vec<Vec<u8>>> + '_ {
    move |segment| {
        let (stream, _) = culzss.compress(segment)?;
        split_stream_bodies(&stream)
    }
}

/// Segment encoder over the CPU reference
/// ([`hetero::cpu_compress_bodies`]) — byte-identical to the V1 GPU
/// kernel. Refuses an out-of-range `chunk_size` the way
/// [`hetero::cpu_compress`] does.
pub fn cpu_segment_encoder<'a>(
    params: &'a CulzssParams,
    threads: usize,
) -> impl FnMut(&[u8]) -> CulzssResult<Vec<Vec<u8>>> + 'a {
    move |segment| {
        params.validate_chunk_size()?;
        Ok(hetero::cpu_compress_bodies(segment, params, threads))
    }
}

/// Splits a container stream into its per-chunk compressed bodies.
pub fn split_stream_bodies(stream: &[u8]) -> CulzssResult<Vec<Vec<u8>>> {
    let (container, offset) = Container::parse(stream)?;
    let payload = &stream[offset..];
    Ok(container.chunk_layout().into_iter().map(|(range, _)| payload[range].to_vec()).collect())
}
