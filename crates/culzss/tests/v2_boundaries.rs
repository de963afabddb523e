//! V2 kernel boundary behaviour: the per-position match records must
//! respect chunk independence (no cross-chunk references), segment
//! boundaries must be invisible (the paper's "extended buffers"), and
//! every record must equal the single-threaded reference search.

use culzss::kernel_v2;
use culzss::{Culzss, CulzssParams, Version};
use culzss_gpusim::{DeviceSpec, GpuSim};
use culzss_lzss::matchfind::{BruteForce, MatchFinder};

fn sim() -> GpuSim {
    GpuSim::new(DeviceSpec::gtx480()).with_workers(2)
}

fn record_input(seed: u64, len: usize) -> Vec<u8> {
    // Period-67 data with noise: matches frequently straddle the
    // 128-position segment boundaries.
    (0..len)
        .map(|i| {
            let x = (i as u64 % 67).wrapping_mul(seed | 1);
            if i % 251 == 0 {
                (i % 256) as u8
            } else {
                (x % 26) as u8 + b'a'
            }
        })
        .collect()
}

#[test]
fn every_record_matches_the_reference_search() {
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    let input = record_input(3, 3 * params.chunk_size + 777);
    let (records, _) = kernel_v2::run(&sim(), &input, &params).unwrap();
    for (chunk_idx, (chunk, recs)) in input.chunks(params.chunk_size).zip(&records).enumerate() {
        for (p, &(distance, length)) in recs.iter().enumerate() {
            let want = BruteForce.find(chunk, p, &config);
            assert_eq!(
                (usize::from(distance), usize::from(length)),
                want.map_or((0, 0), |m| (m.distance, m.length)),
                "chunk {chunk_idx} pos {p}"
            );
        }
    }
}

#[test]
fn records_never_reference_before_their_chunk() {
    let params = CulzssParams::v2();
    let input = record_input(5, 2 * params.chunk_size);
    let (records, _) = kernel_v2::run(&sim(), &input, &params).unwrap();
    for recs in &records {
        for (p, &(distance, length)) in recs.iter().enumerate() {
            if length > 0 {
                assert!(
                    usize::from(distance) <= p,
                    "pos {p}: distance {distance} crosses the chunk start"
                );
                assert!(usize::from(distance) <= params.window_size);
            }
        }
    }
}

#[test]
fn matches_may_extend_to_the_exact_chunk_end() {
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    // A chunk ending in a long repeat: the final positions should carry
    // matches clipped exactly at the boundary.
    let mut input = record_input(7, params.chunk_size - 64);
    input.extend(std::iter::repeat_n(b'z', 64));
    assert_eq!(input.len(), params.chunk_size);
    let (records, _) = kernel_v2::run(&sim(), &input, &params).unwrap();
    let recs = &records[0];
    // Position chunk-4: only 4 bytes remain; max possible length is 4.
    let near_end = params.chunk_size - 4;
    let (_, len) = recs[near_end];
    assert!(usize::from(len) <= 4);
    if usize::from(len) >= config.min_match {
        assert!(len >= 3);
    }
    // And nothing can match at the very last two positions (below
    // min_match).
    assert_eq!(recs[params.chunk_size - 1].1, 0);
    assert_eq!(recs[params.chunk_size - 2].1, 0);
}

#[test]
fn segment_boundaries_are_invisible_in_the_output() {
    // Compress data whose matches straddle every 128-position segment
    // boundary; the stream must equal the boundary-free serial reference
    // (already checked for the whole pipeline elsewhere, but this input
    // is adversarial for the cooperative-load path specifically).
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    let mut input = Vec::new();
    // 130-byte period: every repetition lands 2 positions later in the
    // next segment.
    let pattern: Vec<u8> = (0..130u32).map(|i| (i % 26) as u8 + b'A').collect();
    while input.len() < 2 * params.chunk_size {
        input.extend_from_slice(&pattern);
    }
    input.truncate(2 * params.chunk_size);

    let culzss = Culzss::new(Version::V2).with_workers(2);
    let (stream, _) = culzss.compress(&input).unwrap();
    let bodies: Vec<Vec<u8>> = input
        .chunks(params.chunk_size)
        .map(|c| culzss_lzss::format::encode(&culzss_lzss::serial::tokenize(c, &config), &config))
        .collect();
    let reference = culzss_lzss::container::assemble_v2(
        &config,
        params.chunk_size as u32,
        input.len() as u64,
        culzss_lzss::container::stream_crc_of(&input, params.chunk_size as u32),
        &bodies,
    )
    .unwrap();
    assert_eq!(stream, reference);
    assert_eq!(culzss.decompress(&stream).unwrap().0, input);
}

#[test]
fn tiny_final_chunks_are_fully_recorded() {
    let params = CulzssParams::v2();
    for tail in [1usize, 2, 3, 130] {
        let input = record_input(9, params.chunk_size + tail);
        let (records, _) = kernel_v2::run(&sim(), &input, &params).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].len(), tail, "tail {tail}");
    }
}
