//! Salvage decoding: recover every undamaged chunk from a corrupted
//! container.
//!
//! The container's chunks are compressed independently — the very
//! property the paper exploits to hand each chunk to its own CUDA block
//! also means one damaged chunk need not doom its neighbours. Salvage
//! decoding walks the chunk table (which must itself be intact; container
//! v2 protects it with a metadata CRC), decodes every chunk whose body is
//! present and passes its CRC, and replaces each damaged chunk with a
//! zero-filled hole of the correct uncompressed length, so undamaged data
//! stays at its original offsets.
//!
//! The result is always `total_len` bytes plus a [`SalvageReport`] naming
//! each hole. A truncated payload damages exactly the chunks whose bytes
//! the truncation removed; a v1 stream (no CRCs) can still be salvaged,
//! but only structural decode failures are detectable.

use culzss_lzss::container::Container;
use culzss_lzss::error::Error;
use culzss_lzss::serial;

use crate::params::header_config;

/// Why a chunk could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DamageKind {
    /// The compressed body extends past the end of the available payload.
    Truncated,
    /// The body failed its CRC-32 check (v2 streams only).
    CrcMismatch {
        /// CRC recorded in the container.
        expected_crc: u32,
        /// CRC computed over the received bytes.
        got_crc: u32,
    },
    /// The body failed to decode, or decoded to the wrong length.
    DecodeFailed {
        /// The underlying decode error.
        error: Error,
    },
}

/// One unrecoverable chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedChunk {
    /// Chunk index in the container.
    pub index: usize,
    /// The zero-filled hole in the salvaged output (uncompressed offsets).
    pub byte_range: std::ops::Range<usize>,
    /// What went wrong.
    pub kind: DamageKind,
}

/// Outcome summary of a salvage decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Total chunks the container declared.
    pub total_chunks: usize,
    /// Chunks that could not be recovered, in index order.
    pub damaged: Vec<DamagedChunk>,
    /// Bytes recovered from intact chunks.
    pub recovered_bytes: usize,
    /// Bytes zero-filled in place of damaged chunks.
    pub hole_bytes: usize,
    /// Whole-stream CRC verdict: `None` when it could not be checked
    /// meaningfully (v1 stream, or holes present), `Some(ok)` otherwise.
    pub stream_crc_ok: Option<bool>,
}

impl SalvageReport {
    /// Whether the salvage found nothing wrong (equivalent to a normal
    /// decode succeeding, minus the v1 blind spots).
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty() && self.stream_crc_ok != Some(false)
    }
}

/// Salvage-decodes a container `bytes` on the CPU with the configuration
/// taken from its header. Fails only if the metadata itself is unusable
/// (bad magic, tampered header/table, truncated before the payload, or a
/// `total_len` more than `bytes` could ever decode to).
pub fn salvage(bytes: &[u8]) -> culzss_lzss::error::Result<(Vec<u8>, SalvageReport)> {
    let (container, payload_offset) = Container::parse_lenient(bytes)?;
    let config = header_config(&container)?;
    // A Fixed16 match token spends two stream bytes on at most
    // `max_match` output bytes, so no stream decodes to more than
    // `len / 2 × max_match` bytes. The output and its zero-filled holes
    // are sized from `total_len`: refuse a larger claim before allocating.
    let limit = (bytes.len() as u64 / 2).saturating_mul(config.max_match as u64);
    if container.total_len > limit {
        return Err(Error::InvalidContainer {
            reason: format!(
                "total_len {} exceeds the {limit} bytes a {}-byte stream can decode to",
                container.total_len,
                bytes.len()
            ),
        });
    }
    let payload = &bytes[payload_offset.min(bytes.len())..];

    let mut out = Vec::with_capacity(container.total_len as usize);
    let mut damaged = Vec::new();
    for check in container.check_payload(payload) {
        let hole_start = out.len();
        let fail = |kind| DamagedChunk {
            index: check.index,
            byte_range: hole_start..hole_start + check.uncompressed_len,
            kind,
        };
        let verdict = match (check.stored_crc, check.computed_crc) {
            (_, None) => Err(fail(DamageKind::Truncated)),
            (Some(expected), Some(got)) if expected != got => {
                Err(fail(DamageKind::CrcMismatch { expected_crc: expected, got_crc: got }))
            }
            _ => serial::decode_body(
                &payload[check.comp_range.clone()],
                &config,
                check.uncompressed_len,
            )
            .map_err(|error| fail(DamageKind::DecodeFailed { error })),
        };
        match verdict {
            Ok(chunk) => out.extend_from_slice(&chunk),
            Err(damage) => {
                out.resize(hole_start + check.uncompressed_len, 0);
                damaged.push(damage);
            }
        }
    }

    let hole_bytes: usize = damaged.iter().map(|d| d.byte_range.len()).sum();
    // The stream CRC is only meaningful over a hole-free reconstruction.
    let stream_crc_ok = match (container.stream_crc, damaged.is_empty()) {
        (Some(_), true) => Some(container.verify_stream_crc(&out).is_ok()),
        _ => None,
    };
    let report = SalvageReport {
        total_chunks: container.chunk_comp_sizes.len(),
        damaged,
        recovered_bytes: out.len() - hole_bytes,
        hole_bytes,
        stream_crc_ok,
    };
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Culzss;
    use culzss_datasets::Dataset;
    use culzss_lzss::container::ContainerVersion;

    fn compressed(version: ContainerVersion) -> (Vec<u8>, Vec<u8>, Culzss) {
        let input = Dataset::CFiles.generate(5 * 4096 + 700, 41); // 6 chunks
        let mut params = crate::CulzssParams::v1();
        params.container_version = version;
        let gpu = Culzss::with_device(culzss_gpusim::DeviceSpec::gtx480(), params).with_workers(2);
        let (stream, _) = gpu.compress(&input).unwrap();
        (input, stream, gpu)
    }

    #[test]
    fn clean_stream_salvages_to_identity() {
        let (input, stream, _) = compressed(ContainerVersion::V2);
        let (out, report) = salvage(&stream).unwrap();
        assert_eq!(out, input);
        assert!(report.is_clean());
        assert_eq!(report.total_chunks, 6);
        assert_eq!(report.recovered_bytes, input.len());
        assert_eq!(report.stream_crc_ok, Some(true));
    }

    #[test]
    fn one_flipped_chunk_leaves_the_rest_intact() {
        let (input, stream, gpu) = compressed(ContainerVersion::V2);
        let (container, offset) = Container::parse(&stream).unwrap();
        let layout = container.chunk_layout();

        // Flip a byte in the middle of chunk 2's body.
        let mut bad = stream.clone();
        let target = offset + layout[2].0.start + layout[2].0.len() / 2;
        bad[target] ^= 0x40;

        // The strict path refuses outright…
        assert!(gpu.decompress_auto(&bad).is_err());

        // …salvage recovers everything else.
        let (out, report) = salvage(&bad).unwrap();
        assert_eq!(out.len(), input.len());
        assert_eq!(report.damaged.len(), 1);
        let d = &report.damaged[0];
        assert_eq!(d.index, 2);
        assert_eq!(d.byte_range, 2 * 4096..3 * 4096);
        assert!(matches!(d.kind, DamageKind::CrcMismatch { .. }));
        assert_eq!(out[d.byte_range.clone()], vec![0u8; 4096]);
        assert_eq!(out[..d.byte_range.start], input[..d.byte_range.start]);
        assert_eq!(out[d.byte_range.end..], input[d.byte_range.end..]);
        assert_eq!(report.hole_bytes, 4096);
        assert_eq!(report.stream_crc_ok, None);
        assert!(!report.is_clean());
    }

    #[test]
    fn truncated_tail_damages_only_the_removed_chunks() {
        let (input, stream, _) = compressed(ContainerVersion::V2);
        let (container, offset) = Container::parse(&stream).unwrap();
        let layout = container.chunk_layout();

        // Cut into the middle of chunk 4's body: chunks 4 and 5 are gone.
        let cut = offset + layout[4].0.start + 3;
        let (out, report) = salvage(&stream[..cut]).unwrap();
        assert_eq!(out.len(), input.len());
        assert_eq!(report.damaged.iter().map(|d| d.index).collect::<Vec<_>>(), vec![4, 5]);
        assert!(report.damaged.iter().all(|d| d.kind == DamageKind::Truncated));
        assert_eq!(out[..4 * 4096], input[..4 * 4096]);
    }

    #[test]
    fn v1_streams_salvage_structural_damage() {
        let (input, stream, _) = compressed(ContainerVersion::V1);
        // Truncation is detectable even without CRCs.
        let (container, offset) = Container::parse(&stream).unwrap();
        let cut = offset + container.chunk_layout()[5].0.start + 1;
        let (out, report) = salvage(&stream[..cut]).unwrap();
        assert_eq!(out.len(), input.len());
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].index, 5);
        assert_eq!(report.stream_crc_ok, None); // v1: nothing to check
        assert_eq!(out[..5 * 4096], input[..5 * 4096]);
    }

    #[test]
    fn tampered_metadata_is_not_salvageable() {
        let (_, stream, _) = compressed(ContainerVersion::V2);
        let mut bad = stream.clone();
        bad[Container::HEADER_LEN] ^= 0x01; // size table
        assert!(matches!(salvage(&bad).unwrap_err(), Error::HeaderCorrupt { .. }));
    }

    #[test]
    fn non_container_input_is_a_typed_error() {
        assert!(salvage(b"").is_err());
        assert!(salvage(b"not a container at all").is_err());
    }
}
