//! Corruption matrix: every engine's strict decoder must turn damaged
//! input into a typed error — never a panic, never wrong bytes.
//!
//! For the checksummed container v2 (the default emission of the
//! CULZSS and pthread engines) the guarantee is total: *every* byte of
//! the stream is covered by some checksum (header and tables by the
//! metadata CRC, chunk bodies by per-chunk CRCs, the reassembled output
//! by the stream CRC), so a single-bit flip anywhere must be detected,
//! and any truncation must be detected. The tests prove it by sweeping
//! a flip across every byte and a cut across every prefix.
//!
//! Formats without that armour get the weaker, still-mandatory
//! guarantee: no panic, and no silently wrong output on truncation.
//! Salvage decoding must recover exactly the undamaged chunks.

use culzss::hetero;
use culzss::{Culzss, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::{Container, ContainerVersion};

fn fixture_input() -> Vec<u8> {
    // Two full chunks plus a tail chunk, moderately compressible.
    Dataset::CFiles.generate(2 * 4096 + 500, 2011)
}

/// `(name, stream, strict decoder)` for every engine that emits the
/// checksummed container v2 by default.
#[allow(clippy::type_complexity)]
fn v2_container_engines(input: &[u8]) -> Vec<(&'static str, Vec<u8>, Box<dyn Fn(&[u8]) -> bool>)> {
    let v1 = hetero::cpu_compress(input, &CulzssParams::v1(), 2).unwrap();
    let v2 = hetero::cpu_compress(input, &CulzssParams::v2(), 2).unwrap();
    // V3 has no CPU twin — the selection pass *is* the kernel — so its
    // stream comes from the engine itself; the flip/truncation sweeps
    // cover the container the on-device compaction actually emits.
    let v3 = Culzss::new(Version::V3).with_workers(2).compress(input).unwrap().0;
    let pt = culzss_pthread::compress(input, &LzssConfig::dipperstein(), 3).unwrap();
    vec![
        ("culzss-v1", v1, Box::new(|b: &[u8]| hetero::cpu_decompress(b, 1).is_err())),
        ("culzss-v2", v2, Box::new(|b: &[u8]| hetero::cpu_decompress(b, 1).is_err())),
        (
            "culzss-v3",
            v3,
            Box::new(|b: &[u8]| Culzss::new(Version::V3).decompress_auto(b).is_err()),
        ),
        (
            "pthread",
            pt,
            Box::new(|b: &[u8]| {
                culzss_pthread::decompress(b, &LzssConfig::dipperstein(), 2).is_err()
            }),
        ),
    ]
}

#[test]
fn every_byte_flip_in_a_v2_container_is_detected() {
    let input = fixture_input();
    for (engine, stream, rejects) in v2_container_engines(&input) {
        for at in 0..stream.len() {
            let mut bad = stream.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(
                rejects(&bad),
                "[{engine}] flip of bit {} at byte {at}/{} was not detected",
                at % 8,
                stream.len()
            );
        }
    }
}

#[test]
fn every_truncation_of_a_v2_container_is_detected() {
    // Strict decoding demands the exact payload length, so every proper
    // prefix — header boundaries, table boundaries, every chunk
    // boundary and the off-by-ones around them — must be refused.
    let input = fixture_input();
    for (engine, stream, rejects) in v2_container_engines(&input) {
        for cut in 0..stream.len() {
            assert!(rejects(&stream[..cut]), "[{engine}] truncation to {cut} bytes accepted");
        }
    }
}

#[test]
fn chunk_table_tampering_is_a_typed_header_error() {
    let input = fixture_input();
    let stream = hetero::cpu_compress(&input, &CulzssParams::v1(), 2).unwrap();
    // Grow chunk 0's declared size: without the metadata CRC this would
    // shift every later chunk; with it, the parse fails before any
    // chunk is read.
    let mut bad = stream.clone();
    bad[Container::HEADER_LEN] = bad[Container::HEADER_LEN].wrapping_add(1);
    match hetero::cpu_decompress(&bad, 1) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("metadata is corrupt"), "unexpected error: {msg}");
        }
        Ok(_) => panic!("tampered chunk table decoded"),
    }
}

#[test]
fn legacy_v1_streams_reject_truncation_and_never_panic_on_flips() {
    // The checksum-free v1 container can't detect every payload flip —
    // that blind spot is why v2 exists — but it must stay structurally
    // sound: truncations are typed errors, and a flipped byte either
    // fails or decodes (possibly to wrong bytes, which is the documented
    // v1 risk); it must never panic.
    let input = fixture_input();
    let mut params = CulzssParams::v1();
    params.container_version = ContainerVersion::V1;
    let stream = hetero::cpu_compress(&input, &params, 2).unwrap();
    for cut in 0..stream.len() {
        assert!(
            hetero::cpu_decompress(&stream[..cut], 1).is_err(),
            "v1 truncation to {cut} bytes accepted"
        );
    }
    for at in 0..stream.len() {
        let mut bad = stream.clone();
        bad[at] ^= 1 << (at % 8);
        let _ = hetero::cpu_decompress(&bad, 1); // must not panic
    }
}

#[test]
fn salvage_recovers_every_undamaged_chunk_end_to_end() {
    let input = fixture_input();
    let culzss = Culzss::new(Version::V1).with_workers(2);
    let (stream, _) = culzss.compress(&input).unwrap();
    let (container, offset) = Container::parse(&stream).unwrap();
    let layout = container.chunk_layout();

    // Damage chunk 1's body; strict decode refuses, salvage recovers
    // chunks 0 and 2 byte-exactly and zero-fills the hole.
    let mut bad = stream.clone();
    let target = offset + layout[1].0.start + layout[1].0.len() / 2;
    bad[target] ^= 0x08;
    assert!(culzss.decompress_auto(&bad).is_err());

    let (out, report) = culzss.decompress_salvage(&bad).unwrap();
    assert_eq!(out.len(), input.len());
    assert_eq!(report.total_chunks, 3);
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].index, 1);
    assert_eq!(out[..4096], input[..4096]);
    assert_eq!(out[4096..8192], vec![0u8; 4096][..]);
    assert_eq!(out[8192..], input[8192..]);
    assert_eq!(report.hole_bytes, 4096);
    assert_eq!(report.recovered_bytes, input.len() - 4096);
}

/// Both GPU decode engines must see damage identically: sweep a bit
/// flip across every byte and a cut across every prefix of a default
/// (container v2) stream, and demand the warp decoder returns the
/// **same typed error** the serial decoder does — never wrong bytes,
/// never a panic, never a detection the other engine misses.
#[test]
fn warp_decoder_matches_serial_typed_errors_on_damage_sweeps() {
    let input = fixture_input();
    let serial = Culzss::new(Version::V1);
    let warp = Culzss::new(Version::V1).with_decode_engine(DecodeEngine::WarpParallel);
    let (stream, _) = serial.compress(&input).unwrap();

    let check = |label: String, bad: &[u8]| match (
        serial.decompress_auto(bad),
        warp.decompress_auto(bad),
    ) {
        (Err(se), Err(we)) => {
            assert_eq!(se.to_string(), we.to_string(), "{label}: engines return different errors")
        }
        (Ok(_), Ok(_)) => panic!("{label}: damage to a v2 container went undetected"),
        (s, w) => panic!(
            "{label}: engines disagree on detection (serial {:?}, warp {:?})",
            s.map(|_| "ok"),
            w.map(|_| "ok")
        ),
    };

    for at in 0..stream.len() {
        let mut bad = stream.clone();
        bad[at] ^= 1 << (at % 8);
        check(format!("flip at byte {at}"), &bad);
    }
    for cut in 0..stream.len() {
        check(format!("truncation to {cut} bytes"), &stream[..cut]);
    }
}

/// Salvage decoding is a CPU-side recovery path and must behave
/// identically whichever decode engine the pipeline is configured
/// with: same recovered bytes, same damage report.
#[test]
fn salvage_behaviour_is_identical_across_decode_engines() {
    let input = fixture_input();
    let serial = Culzss::new(Version::V1).with_workers(2);
    let warp =
        Culzss::new(Version::V1).with_workers(2).with_decode_engine(DecodeEngine::WarpParallel);
    let (stream, _) = serial.compress(&input).unwrap();
    let (container, offset) = Container::parse(&stream).unwrap();
    let layout = container.chunk_layout();

    let mut bad = stream.clone();
    let target = offset + layout[1].0.start + layout[1].0.len() / 2;
    bad[target] ^= 0x08;

    let (serial_out, serial_report) = serial.decompress_salvage(&bad).unwrap();
    let (warp_out, warp_report) = warp.decompress_salvage(&bad).unwrap();
    assert_eq!(serial_out, warp_out, "salvage bytes differ between decode engines");
    assert_eq!(
        format!("{serial_report:?}"),
        format!("{warp_report:?}"),
        "salvage reports differ between decode engines"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary bytes into every decompress entry point: typed
        /// errors only, no panics, no runaway allocations.
        #[test]
        fn arbitrary_bytes_never_panic_any_decoder(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let _ = hetero::cpu_decompress(&data, 1);
            let _ = culzss_lzss::serial::decompress(&data, &LzssConfig::dipperstein());
            let _ = culzss_pthread::decompress(&data, &LzssConfig::dipperstein(), 2);
            let _ = culzss_bzip2::decompress(&data);
            let _ = culzss::salvage::salvage(&data);
        }

        /// Arbitrary mutations of a valid v2 stream either fail typed
        /// or (when mutations cancel out) decode to exactly the input —
        /// never to wrong bytes.
        #[test]
        fn mutated_streams_never_return_wrong_bytes(
            input in proptest::collection::vec(any::<u8>(), 1..4096),
            mutations in proptest::collection::vec((0usize..1 << 16, any::<u8>()), 1..8),
        ) {
            let stream = hetero::cpu_compress(&input, &CulzssParams::v1(), 1).unwrap();
            let mut bad = stream.clone();
            for (at, bits) in mutations {
                let at = at % bad.len();
                bad[at] ^= bits | 1; // always changes the byte
            }
            if let Ok(out) = hetero::cpu_decompress(&bad, 1) {
                prop_assert_eq!(out, input);
            }
        }
    }
}
