//! Differential pins for the dedup front end: a stream assembled from
//! cache hits must be byte-identical to the stream the engine would
//! have produced without a cache, and every v2-capable decoder in the
//! workspace — the GPU-path auto decoder, the threaded CPU decoder, and
//! the salvage decoder — must read it unchanged. Cache state must never
//! be observable in the output bytes.

use std::sync::Arc;

use culzss::{hetero, salvage, Culzss, CulzssParams, Version};
use culzss_datasets::{edits, Dataset};
use culzss_dedup::{ChunkCache, DedupCompressor};

fn front_end(params: &CulzssParams) -> DedupCompressor {
    DedupCompressor::new(Arc::new(ChunkCache::new(64 << 20)), params.clone())
}

/// A fully-cached (second-pass) stream decodes through every decoder.
#[test]
fn every_decoder_reads_the_fully_cached_stream() {
    let input = edits::snapshot(256 * 1024, 41, 1);
    let params = CulzssParams::v1();
    let dedup = front_end(&params);
    dedup.compress_cpu(&input, 2).unwrap();
    let (stream, report) = dedup.compress_cpu(&input, 2).unwrap();
    assert_eq!(report.miss_segments, 0, "second pass must be fully cached");
    assert_eq!(report.bytes_from_cache, input.len());

    let (auto, _) = Culzss::new(Version::V1).decompress_auto(&stream).unwrap();
    assert_eq!(auto, input, "auto decoder");
    assert_eq!(hetero::cpu_decompress(&stream, 2).unwrap(), input, "cpu decoder");
    let (salvaged, damage) = salvage::salvage(&stream).unwrap();
    assert_eq!(salvaged, input, "salvage decoder");
    assert!(damage.damaged.is_empty(), "{damage:?}");
    assert_eq!(damage.stream_crc_ok, Some(true));
}

/// A stream mixing cache hits with freshly compressed segments (an
/// edited resubmission) is byte-identical to the cache-off stream and
/// decodes through every decoder.
#[test]
fn mixed_hit_miss_streams_match_cache_off_and_decode_everywhere() {
    let params = CulzssParams::v1();
    let dedup = front_end(&params);
    let base = edits::snapshot(512 * 1024, 17, 1);
    dedup.compress_cpu(&base, 2).unwrap();

    let edited = edits::snapshot(512 * 1024, 17, 2);
    let (stream, report) = dedup.compress_cpu(&edited, 2).unwrap();
    assert!(report.hit_segments > 0, "edit generations must share segments: {report:?}");
    assert!(report.miss_segments > 0, "the edits must invalidate something: {report:?}");

    assert_eq!(stream, hetero::cpu_compress(&edited, &params, 2).unwrap());
    assert_eq!(hetero::cpu_decompress(&stream, 2).unwrap(), edited);
    let (auto, _) = Culzss::new(Version::V1).decompress_auto(&stream).unwrap();
    assert_eq!(auto, edited);
    let (salvaged, damage) = salvage::salvage(&stream).unwrap();
    assert_eq!(salvaged, edited);
    assert!(damage.damaged.is_empty(), "{damage:?}");
}

/// Cold and warm cache-on streams equal the cache-off stream for both
/// GPU engine versions across dissimilar corpora.
#[test]
fn cache_on_equals_cache_off_for_both_gpu_engines() {
    for version in [Version::V1, Version::V2] {
        let culzss = Culzss::new(version).with_workers(2);
        for (slug, input) in [
            ("incremental-edits", edits::snapshot(192 * 1024, 5, 2)),
            ("highly-compressible", Dataset::HighlyCompressible.generate(160 * 1024, 5)),
        ] {
            let reference = culzss.compress(&input).unwrap().0;
            let dedup = front_end(culzss.params());
            let (cold, _) = dedup.compress_gpu(&culzss, &input).unwrap();
            let (warm, warm_report) = dedup.compress_gpu(&culzss, &input).unwrap();
            assert_eq!(cold, reference, "{version:?}/{slug} cold");
            assert_eq!(warm, reference, "{version:?}/{slug} warm");
            assert_eq!(warm_report.miss_segments, 0, "{version:?}/{slug}");
        }
    }
}

/// Under V1 parameters the CPU and GPU engine paths produce identical
/// bytes, so a warm CPU-path stream also equals the GPU engine stream —
/// the cache front end preserves that cross-path identity.
#[test]
fn cpu_cached_stream_matches_the_gpu_engine_stream_under_v1() {
    let input = Dataset::Dictionary.generate(128 * 1024, 13);
    let culzss = Culzss::new(Version::V1).with_workers(2);
    let dedup = front_end(culzss.params());
    dedup.compress_cpu(&input, 2).unwrap();
    let (warm, report) = dedup.compress_cpu(&input, 2).unwrap();
    assert_eq!(report.miss_segments, 0);
    assert_eq!(warm, culzss.compress(&input).unwrap().0);
}

/// An out-of-range chunk size is a typed refusal on the CPU path, as it
/// is on the GPU path, not a panic inside the chunk loop.
#[test]
fn cpu_front_end_refuses_a_zero_chunk_size() {
    let params = CulzssParams { chunk_size: 0, ..CulzssParams::v1() };
    let err = front_end(&params).compress_cpu(&[7u8; 8192], 1).unwrap_err();
    assert!(matches!(err, culzss::CulzssError::InvalidParams(_)), "{err:?}");
}
