//! Golden wire-format regression tests.
//!
//! `tests/golden/<engine>.bin` holds the compressed stream each engine
//! produced for one fixed, deterministic input
//! (`Dataset::CFiles.generate(8192, 2011)`). The tests pin the formats
//! in both directions:
//!
//! * **decode**: today's decoder must restore the checked-in stream to
//!   the fixture input (old streams stay readable);
//! * **encode**: today's encoder must reproduce the checked-in stream
//!   byte for byte (the wire format — header layout, token packing,
//!   size tables — has not drifted).
//!
//! Container engines are pinned twice: `<engine>.bin` holds the legacy
//! v1 (checksum-free) container, emitted through the explicit
//! [`ContainerVersion::V1`] knob, and `<engine>.c2.bin` holds the
//! checksummed container v2 stream the same engine emits by default.
//! Both generations must keep decoding, and both emitters must stay
//! byte-exact.
//!
//! An intentional format change must regenerate the fixtures — run
//! `cargo test --test golden -- --ignored regenerate` — and call out the
//! compatibility break in the change description.

use std::path::PathBuf;

use culzss::{Culzss, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::DeviceSpec;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::ContainerVersion;
use culzss_lzss::serial;

const INPUT_BYTES: usize = 8192;
const SEED: u64 = 2011;

fn fixture_input() -> Vec<u8> {
    Dataset::CFiles.generate(INPUT_BYTES, SEED)
}

fn fixture_path(engine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{engine}.bin"))
}

fn read_fixture(engine: &str) -> Vec<u8> {
    let path = fixture_path(engine);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} — regenerate with the ignored test: {e}", path.display())
    })
}

/// A [`Culzss`] engine pinned to an explicit container version.
fn culzss_versioned(version: Version, container: ContainerVersion) -> Culzss {
    let mut params = CulzssParams::for_version(version);
    params.container_version = container;
    Culzss::with_device(DeviceSpec::gtx480(), params).with_workers(2)
}

/// The pthread wrapper's default chunking, with an explicit container
/// version.
fn pthread_versioned(input: &[u8], container: ContainerVersion) -> Vec<u8> {
    let chunk_size = input.len().div_ceil(3).max(1);
    culzss_pthread::compress_chunked_versioned(
        input,
        &LzssConfig::dipperstein(),
        chunk_size,
        3,
        culzss_lzss::matchfind::FinderKind::BruteForce,
        container,
    )
    .unwrap()
}

/// `(engine name, encode, decode)` for every wire format in the repo.
/// `<engine>.c2` variants emit the checksummed container v2 through the
/// same codec defaults tenants get.
#[allow(clippy::type_complexity)]
fn engines() -> Vec<(&'static str, Box<dyn Fn(&[u8]) -> Vec<u8>>, Box<dyn Fn(&[u8]) -> Vec<u8>>)> {
    let config = LzssConfig::dipperstein();
    let decode_config = config.clone();
    let culzss_decode = |version: Version| {
        Box::new(move |bytes: &[u8]| {
            Culzss::new(version).with_workers(2).decompress(bytes).unwrap().0
        }) as Box<dyn Fn(&[u8]) -> Vec<u8>>
    };
    let pthread_decode = || {
        Box::new(|bytes: &[u8]| {
            culzss_pthread::decompress(bytes, &LzssConfig::dipperstein(), 3).unwrap()
        }) as Box<dyn Fn(&[u8]) -> Vec<u8>>
    };
    vec![
        (
            "v1",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V1, ContainerVersion::V1).compress(input).unwrap().0
            }) as Box<dyn Fn(&[u8]) -> Vec<u8>>,
            culzss_decode(Version::V1),
        ),
        (
            "v1.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V1).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V1),
        ),
        (
            "v2",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V2, ContainerVersion::V1).compress(input).unwrap().0
            }),
            culzss_decode(Version::V2),
        ),
        (
            "v2.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V2).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V2),
        ),
        // V3 only emits container v2 (it post-dates the checksummed
        // container); its fixture is byte-identical to v2.c2 by the V3
        // byte-compat guarantee, and pinning it separately means a V3
        // kernel regression cannot hide behind the V2 fixture.
        (
            "v3.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V3).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V3),
        ),
        (
            "lzss",
            Box::new(move |input: &[u8]| serial::compress(input, &config).unwrap()),
            Box::new(move |bytes: &[u8]| serial::decompress(bytes, &decode_config).unwrap()),
        ),
        (
            "pthread",
            Box::new(|input: &[u8]| pthread_versioned(input, ContainerVersion::V1)),
            pthread_decode(),
        ),
        (
            "pthread.c2",
            Box::new(|input: &[u8]| {
                culzss_pthread::compress(input, &LzssConfig::dipperstein(), 3).unwrap()
            }),
            pthread_decode(),
        ),
        (
            "bzip2",
            Box::new(|input: &[u8]| culzss_bzip2::compress(input).unwrap()),
            Box::new(|bytes: &[u8]| culzss_bzip2::decompress(bytes).unwrap()),
        ),
    ]
}

#[test]
fn golden_streams_decode_to_the_fixture_input() {
    let input = fixture_input();
    for (engine, _, decode) in engines() {
        let stream = read_fixture(engine);
        assert_eq!(decode(&stream), input, "[{engine}] golden stream no longer decodes");
    }
}

#[test]
fn encoders_reproduce_the_golden_streams() {
    let input = fixture_input();
    for (engine, encode, _) in engines() {
        let golden = read_fixture(engine);
        let fresh = encode(&input);
        assert_eq!(
            fresh,
            golden,
            "[{engine}] wire format drifted from tests/golden/{engine}.bin \
             (fresh {} bytes vs golden {} bytes); if intentional, regenerate the fixture",
            fresh.len(),
            golden.len()
        );
    }
}

/// Every golden fixture, through **both** GPU decode engines: the
/// CULZSS container fixtures must decode to identical bytes (the
/// fixture input) under the serial and the warp-parallel decoder, and
/// the fixtures in foreign wire formats (raw LZSS, pthread flag-bit
/// bodies, bzip2) must draw the **same typed rejection** from both.
#[test]
fn golden_streams_decode_identically_through_both_decode_engines() {
    let input = fixture_input();
    let serial = Culzss::new(Version::V1).with_workers(2);
    let warp =
        Culzss::new(Version::V1).with_workers(2).with_decode_engine(DecodeEngine::WarpParallel);
    let culzss_fixtures = ["v1", "v1.c2", "v2", "v2.c2", "v3.c2"];
    for (engine, _, _) in engines() {
        let stream = read_fixture(engine);
        let s = serial.decompress_auto(&stream);
        let w = warp.decompress_auto(&stream);
        if culzss_fixtures.contains(&engine) {
            let s = s.unwrap_or_else(|e| panic!("[{engine}] serial decode failed: {e}")).0;
            let w = w.unwrap_or_else(|e| panic!("[{engine}] warp decode failed: {e}")).0;
            assert_eq!(s, input, "[{engine}] serial decode diverges from the fixture input");
            assert_eq!(w, s, "[{engine}] warp decode diverges from the serial decode");
        } else {
            let se = s.expect_err(&format!("[{engine}] serial engine accepted a foreign format"));
            let we = w.expect_err(&format!("[{engine}] warp engine accepted a foreign format"));
            assert_eq!(
                se.to_string(),
                we.to_string(),
                "[{engine}] engines disagree on the rejection error"
            );
        }
    }
}

/// Rewrites every fixture from the current encoders. Ignored by default;
/// run explicitly after an intentional format change:
/// `cargo test --test golden -- --ignored regenerate`.
#[test]
#[ignore = "rewrites the golden fixtures; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    let input = fixture_input();
    std::fs::create_dir_all(fixture_path("v1").parent().unwrap()).unwrap();
    for (engine, encode, decode) in engines() {
        let stream = encode(&input);
        assert_eq!(decode(&stream), input, "[{engine}] refusing to write a broken fixture");
        std::fs::write(fixture_path(engine), &stream).unwrap();
    }
}

/// `tests/golden/model_counts.txt` pins the modelled cost of every
/// CULZSS launch over two inputs: each field of the launch's merged
/// `BlockMetrics` plus `cost.cycles`, floats by their exact bits. The
/// first input is the wire-format fixture input; the second is a
/// highly compressible input of odd length, whose long matches cross
/// the V3 selection walk's segment boundaries and whose last chunk and
/// segment are partial. A kernel refactor must leave every line
/// unchanged; an intentional change to what a kernel logs or charges
/// regenerates the file with
/// `cargo test --test golden -- --ignored regenerate`.
fn model_counts_path() -> PathBuf {
    fixture_path("v1").with_file_name("model_counts.txt")
}

fn model_count_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("c-files-8192", fixture_input()),
        ("highly-6001", Dataset::HighlyCompressible.generate(6001, SEED)),
    ]
}

/// `input launch field value` lines for every launch over every input.
fn model_count_lines() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, input) in model_count_inputs() {
        let mut launches = Vec::new();
        for (label, version, shared) in [
            ("enc-v1", Version::V1, true),
            ("enc-v2", Version::V2, true),
            ("enc-v2-global", Version::V2, false),
            ("enc-v3", Version::V3, true),
            ("enc-v3-global", Version::V3, false),
        ] {
            let mut params = CulzssParams::for_version(version);
            params.use_shared_memory = shared;
            let engine = Culzss::with_device(DeviceSpec::gtx480(), params).with_workers(2);
            let (stream, stats) = engine.compress(&input).unwrap();
            launches.push((label, stats.launch.unwrap()));
            if label == "enc-v2" {
                for (label, decode) in
                    [("dec-serial", DecodeEngine::Serial), ("dec-warp", DecodeEngine::WarpParallel)]
                {
                    let (restored, stats) =
                        engine.clone().with_decode_engine(decode).decompress(&stream).unwrap();
                    assert_eq!(restored, input, "[{name}/{label}] round trip failed");
                    launches.push((label, stats.launch.unwrap()));
                }
            }
        }
        for (label, launch) in launches {
            let m = &launch.metrics;
            let fields: [(&str, String); 12] = [
                ("warp_issue_ops", format!("{:#018x}", m.warp_issue_ops.to_bits())),
                ("thread_ops", m.thread_ops.to_string()),
                ("global_transactions", format!("{:#018x}", m.global_transactions.to_bits())),
                ("global_bytes", m.global_bytes.to_string()),
                ("shared_cycles", format!("{:#018x}", m.shared_cycles.to_bits())),
                ("shared_accesses", m.shared_accesses.to_string()),
                ("cached_accesses", m.cached_accesses.to_string()),
                ("barriers", m.barriers.to_string()),
                ("blocks", m.blocks.to_string()),
                ("shared_mem_used", m.shared_mem_used.to_string()),
                ("block_dim", m.block_dim.to_string()),
                ("cost.cycles", format!("{:#018x}", launch.cost.cycles.to_bits())),
            ];
            for (field, value) in fields {
                writeln!(out, "{name} {label} {field} {value}").unwrap();
            }
        }
    }
    out
}

/// The highly compressible input must exercise the V3 walk's resume
/// path: some selected match starts in one 128-position segment and
/// ends in the next.
#[test]
fn model_count_inputs_cross_segment_boundaries() {
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    let (_, input) = model_count_inputs().pop().unwrap();
    let sim = culzss_gpusim::GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
    let (records, _) = culzss::kernel_v2::run(&sim, &input, &params).unwrap();
    let mut crossings = 0usize;
    for (chunk, recs) in input.chunks(params.chunk_size).zip(&records) {
        let mut tokens = Vec::new();
        culzss::metered::select_records_into(chunk, recs, &config, &mut tokens);
        let mut pos = 0usize;
        for token in tokens {
            let len = token.coverage();
            let tpb = params.threads_per_block;
            crossings += usize::from(token.is_match() && pos / tpb != (pos + len - 1) / tpb);
            pos += len;
        }
    }
    assert!(crossings > 0, "no selected match crosses a segment boundary");
}

#[test]
fn launches_reproduce_the_golden_model_counts() {
    let path = model_counts_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {} — regenerate with the ignored test: {e}", path.display())
    });
    let fresh = model_count_lines();
    let drifted: Vec<_> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(g, f)| g != f)
        .map(|(g, f)| format!("  golden {g}\n  fresh  {f}"))
        .collect();
    assert!(drifted.is_empty(), "modelled counts drifted:\n{}", drifted.join("\n"));
    assert_eq!(golden.lines().count(), fresh.lines().count(), "launch or field set changed");
}

/// Rewrites `tests/golden/model_counts.txt` from the current kernels.
/// Ignored by default; run only after an intentional cost-model change.
#[test]
#[ignore = "rewrites the modelled-count fixture; run only after an intentional cost-model change"]
fn regenerate_model_counts() {
    std::fs::write(model_counts_path(), model_count_lines()).unwrap();
}
