//! Streaming (batched) compression over `std::io` — the production shape
//! of the paper's in-memory API.
//!
//! Inputs larger than device memory (or arriving incrementally, as at a
//! network gateway) are processed in batches: each batch flows through
//! H2D → kernel → D2H → CPU post-processing, and consecutive batches
//! overlap in the pipelined model ("the concurrent execution and
//! streaming feature of new Fermi GPUs can be used to process those
//! chunks", §VII). The stream is a sequence of framed containers.

use std::io::{Read, Write};

use crate::api::Culzss;
use crate::error::{CulzssError, CulzssResult};
use culzss_gpusim::streams::{overlap_speedup, BatchTimeline};

/// Magic prefix of a streamed sequence of containers (`"CLZS"`).
pub const STREAM_MAGIC: [u8; 4] = *b"CLZS";

/// Default batch: 8 MiB, a few thousand chunks per launch.
pub const DEFAULT_BATCH: usize = 8 << 20;

/// Accumulated report for a streamed run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Number of batches processed.
    pub batches: usize,
    /// Uncompressed bytes consumed.
    pub bytes_in: u64,
    /// Compressed bytes produced (including framing).
    pub bytes_out: u64,
    /// Σ of the sequential per-batch pipeline totals.
    pub sequential_seconds: f64,
    /// Modelled makespan when consecutive batches overlap stages
    /// (ideal 4-stage pipeline over the measured/modelled batch times).
    pub pipelined_seconds: f64,
    /// Makespan under the Fermi stream model with *depth-first* issue —
    /// the head-of-line-blocked schedule a naive port gets.
    pub fermi_depth_first_seconds: f64,
    /// Makespan under the Fermi stream model with *breadth-first* issue —
    /// the era-correct submission order.
    pub fermi_breadth_first_seconds: f64,
}

impl StreamReport {
    /// Overlap speedup achieved by streaming.
    pub fn overlap_speedup(&self) -> f64 {
        overlap_speedup(self.sequential_seconds, self.pipelined_seconds)
    }
}

/// Streaming compressor wrapping a [`Culzss`] instance.
#[derive(Debug, Clone)]
pub struct StreamingCompressor {
    culzss: Culzss,
    batch_bytes: usize,
}

impl StreamingCompressor {
    /// Wraps `culzss` with the default batch size.
    pub fn new(culzss: Culzss) -> Self {
        Self { culzss, batch_bytes: DEFAULT_BATCH }
    }

    /// Overrides the batch size (clamped to at least one chunk).
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = bytes.max(self.culzss.params().chunk_size);
        self
    }

    /// Compresses everything from `input` into framed containers on
    /// `output`.
    pub fn compress_stream<R: Read, W: Write>(
        &self,
        input: &mut R,
        output: &mut W,
    ) -> CulzssResult<StreamReport> {
        let mut report = StreamReport::default();
        let mut timeline = BatchTimeline::new();
        output.write_all(&STREAM_MAGIC).map_err(io_err)?;

        let mut buffer = vec![0u8; self.batch_bytes];
        loop {
            let filled = read_full(input, &mut buffer).map_err(io_err)?;
            if filled == 0 {
                break;
            }
            let (body, stats) = self.culzss.compress(&buffer[..filled])?;
            output
                .write_all(&(body.len() as u32).to_le_bytes())
                .and_then(|()| output.write_all(&body))
                .map_err(io_err)?;
            report.bytes_in += filled as u64;
            report.bytes_out += 4 + body.len() as u64;
            timeline.push(&stats);
            if filled < buffer.len() {
                break;
            }
        }
        // End-of-stream frame.
        output.write_all(&0u32.to_le_bytes()).map_err(io_err)?;
        report.bytes_out += 8; // magic + terminator
        report.batches = timeline.batches();
        report.sequential_seconds = timeline.sequential_seconds();
        report.pipelined_seconds = timeline.pipelined_seconds();
        report.fermi_depth_first_seconds = timeline.fermi_depth_first_seconds();
        report.fermi_breadth_first_seconds = timeline.fermi_breadth_first_seconds();
        Ok(report)
    }

    /// Decompresses a stream produced by [`Self::compress_stream`].
    pub fn decompress_stream<R: Read, W: Write>(
        &self,
        input: &mut R,
        output: &mut W,
    ) -> CulzssResult<u64> {
        // Header reads distinguish running out of bytes (a typed
        // `Truncated`, like a cut inside a frame body) from a real I/O
        // failure: `read_exact` would fold both into an io error.
        let mut magic = [0u8; 4];
        let got = read_full(input, &mut magic).map_err(io_err)?;
        if got != magic.len() {
            return Err(CulzssError::Codec(culzss_lzss::Error::Truncated {
                needed: magic.len(),
                got,
            }));
        }
        if magic != STREAM_MAGIC {
            return Err(CulzssError::Codec(culzss_lzss::Error::InvalidContainer {
                reason: "bad stream magic".into(),
            }));
        }
        let mut total = 0u64;
        // One body buffer reused across frames (decompress churn fix).
        let mut body = Vec::new();
        loop {
            let mut len_bytes = [0u8; 4];
            let got = read_full(input, &mut len_bytes).map_err(io_err)?;
            if got != len_bytes.len() {
                return Err(CulzssError::Codec(culzss_lzss::Error::Truncated {
                    needed: len_bytes.len(),
                    got,
                }));
            }
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len == 0 {
                return Ok(total);
            }
            // The frame length is untrusted: read up to `len` bytes and
            // check the count, instead of allocating `len` up front (a
            // 4-byte field can demand 4 GiB).
            body.clear();
            input.take(len as u64).read_to_end(&mut body).map_err(io_err)?;
            if body.len() != len {
                return Err(CulzssError::Codec(culzss_lzss::Error::Truncated {
                    needed: len,
                    got: body.len(),
                }));
            }
            let (plain, _) = self.culzss.decompress(&body)?;
            output.write_all(&plain).map_err(io_err)?;
            total += plain.len() as u64;
        }
    }
}

fn io_err(e: std::io::Error) -> CulzssError {
    CulzssError::Codec(culzss_lzss::Error::Io { message: e.to_string() })
}

/// Reads until `buf` is full or EOF; returns bytes read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Version;
    use std::io::Cursor;

    fn compressor(batch: usize) -> StreamingCompressor {
        StreamingCompressor::new(Culzss::new(Version::V1).with_workers(2)).with_batch_bytes(batch)
    }

    #[test]
    fn multi_batch_roundtrip() {
        let data = culzss_datasets::Dataset::CFiles.generate(300 * 1024, 1);
        let sc = compressor(64 * 1024); // 5 batches
        let mut compressed = Vec::new();
        let report = sc.compress_stream(&mut Cursor::new(&data), &mut compressed).unwrap();
        assert_eq!(report.batches, 5);
        assert_eq!(report.bytes_in, data.len() as u64);
        assert_eq!(report.bytes_out, compressed.len() as u64);
        assert!(report.overlap_speedup() >= 1.0);
        // Fermi stream schedules: breadth-first never loses to
        // depth-first, and neither beats the idealized pipeline bound.
        assert!(report.fermi_breadth_first_seconds <= report.fermi_depth_first_seconds + 1e-12);
        // (5% slack: the analytic pipeline assumes uniform batch sizes,
        // the stream model uses the actual, variable ones.)
        assert!(report.pipelined_seconds <= report.fermi_breadth_first_seconds * 1.05 + 1e-9);

        let mut restored = Vec::new();
        let n = sc.decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
        assert_eq!(n, data.len() as u64);
        assert_eq!(restored, data);
    }

    #[test]
    fn exact_batch_boundary() {
        let data = vec![7u8; 128 * 1024];
        let sc = compressor(64 * 1024);
        let mut compressed = Vec::new();
        let report = sc.compress_stream(&mut Cursor::new(&data), &mut compressed).unwrap();
        assert_eq!(report.batches, 2);
        let mut restored = Vec::new();
        sc.decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_stream() {
        let sc = compressor(64 * 1024);
        let mut compressed = Vec::new();
        let report = sc.compress_stream(&mut Cursor::new(b""), &mut compressed).unwrap();
        assert_eq!(report.batches, 0);
        let mut restored = Vec::new();
        let n = sc.decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
        assert_eq!(n, 0);
        assert!(restored.is_empty());
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![1u8; 100 * 1024];
        let sc = compressor(64 * 1024);
        let mut compressed = Vec::new();
        sc.compress_stream(&mut Cursor::new(&data), &mut compressed).unwrap();
        let mut restored = Vec::new();
        let err = sc.decompress_stream(
            &mut Cursor::new(&compressed[..compressed.len() - 6]),
            &mut restored,
        );
        assert!(err.is_err());
    }

    #[test]
    fn truncation_sweep_yields_typed_errors_at_every_cut() {
        // Cut the stream at every possible byte: every proper prefix
        // must fail with a typed codec error — never a raw io error —
        // and a cut inside the magic or a frame-length header must be
        // the typed `Truncated`, not `read_exact`'s UnexpectedEof.
        let data = culzss_datasets::Dataset::CFiles.generate(12 * 1024, 5);
        let sc = compressor(4 * 1024); // 3 frames
        let mut compressed = Vec::new();
        sc.compress_stream(&mut Cursor::new(&data), &mut compressed).unwrap();
        for cut in 0..compressed.len() {
            let mut restored = Vec::new();
            let err = sc
                .decompress_stream(&mut Cursor::new(&compressed[..cut]), &mut restored)
                .expect_err("every proper prefix must fail");
            assert!(
                !matches!(&err, CulzssError::Codec(culzss_lzss::Error::Io { .. })),
                "cut at {cut}: raw io error leaked: {err:?}"
            );
            if cut < 4 {
                assert!(
                    matches!(
                        &err,
                        CulzssError::Codec(culzss_lzss::Error::Truncated { needed: 4, got })
                            if *got == cut
                    ),
                    "cut inside the magic at {cut}: {err:?}"
                );
            }
        }
        // A cut two bytes into the first frame-length header,
        // spelled out.
        let mut restored = Vec::new();
        let err =
            sc.decompress_stream(&mut Cursor::new(&compressed[..6]), &mut restored).unwrap_err();
        assert!(
            matches!(err, CulzssError::Codec(culzss_lzss::Error::Truncated { needed: 4, got: 2 })),
            "{err:?}"
        );
        // And the untouched stream still round-trips.
        let mut restored = Vec::new();
        sc.decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn absurd_frame_length_is_a_typed_truncation_not_an_allocation() {
        // Frame header claims 4 GiB; only a few bytes follow.
        let mut stream = STREAM_MAGIC.to_vec();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(b"tiny");
        let sc = compressor(64 * 1024);
        let mut restored = Vec::new();
        let err = sc.decompress_stream(&mut Cursor::new(&stream), &mut restored).unwrap_err();
        assert!(matches!(err, CulzssError::Codec(culzss_lzss::Error::Truncated { .. })), "{err:?}");
    }

    #[test]
    fn bad_magic_rejected() {
        let sc = compressor(64 * 1024);
        let mut restored = Vec::new();
        assert!(sc.decompress_stream(&mut Cursor::new(b"XXXX\0\0\0\0"), &mut restored).is_err());
    }

    #[test]
    fn pipelining_beats_sequential_with_many_batches() {
        let data = culzss_datasets::Dataset::DeMap.generate(512 * 1024, 2);
        let sc = compressor(32 * 1024); // 16 batches
        let mut compressed = Vec::new();
        let report = sc.compress_stream(&mut Cursor::new(&data), &mut compressed).unwrap();
        assert!(report.batches >= 16);
        assert!(report.pipelined_seconds < report.sequential_seconds, "{report:?}");
    }
}
