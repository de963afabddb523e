//! The sanitizer only observes: a launch on an armed simulator returns
//! exactly what the same launch returns unarmed — outputs, per-block
//! metrics, priced cost and kernel time, bit for bit — plus a report.
//!
//! Covered: the V1, V2 and V3 compression kernels and both decode
//! engines, on all five corpora, at 0, 1, 4096 (one chunk), 4097 (one
//! chunk plus one byte) and six chunks plus a tail.

use culzss::pipeline::BufferPool;
use culzss::{kernel_v1, kernel_v2, v3, Culzss, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::{DeviceSpec, GpuSim};

/// Asserts `armed` is `plain` plus a sanitizer report.
fn assert_only_observed(what: &str, plain: &LaunchStats, armed: &LaunchStats) {
    assert!(plain.sanitizer.is_none() && armed.sanitizer.is_some(), "{what}: reports");
    assert_eq!(plain.per_block, armed.per_block, "{what}: per-block metrics");
    assert_eq!(plain.metrics, armed.metrics, "{what}: merged metrics");
    // `{:?}` prints each f64 in its shortest round-trip form: equal
    // strings mean equal bits.
    assert_eq!(format!("{:?}", plain.cost), format!("{:?}", armed.cost), "{what}: cost");
    assert_eq!(plain.kernel_seconds.to_bits(), armed.kernel_seconds.to_bits(), "{what}: time");
}

fn samples() -> Vec<(String, Vec<u8>)> {
    let sizes = [0, 1, 4096, 4097, 6 * 4096 + 123];
    let mut samples = Vec::new();
    for dataset in Dataset::ALL {
        let data = dataset.generate(sizes[4], 2011);
        for len in sizes {
            samples.push((format!("{} {len} B", dataset.slug()), data[..len].to_vec()));
        }
    }
    samples
}

#[test]
fn compression_kernels_run_identically_armed() {
    let plain = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
    let armed = plain.clone().with_sanitizer();
    let (v1, v2, v3_params) = (CulzssParams::v1(), CulzssParams::v2(), CulzssParams::v3());
    let pool = BufferPool::new();
    for (what, input) in samples() {
        let (out, p) = kernel_v1::run_pooled(&plain, &input, &v1, &pool).unwrap();
        let (armed_out, a) = kernel_v1::run_pooled(&armed, &input, &v1, &pool).unwrap();
        assert_eq!(out, armed_out, "{what} V1: bodies");
        assert_only_observed(&format!("{what} V1"), &p, &a);

        let (out, p) = kernel_v2::run(&plain, &input, &v2).unwrap();
        let (armed_out, a) = kernel_v2::run(&armed, &input, &v2).unwrap();
        assert_eq!(out, armed_out, "{what} V2: records");
        assert_only_observed(&format!("{what} V2"), &p, &a);

        let (out, p) = v3::run_pooled(&plain, &input, &v3_params, &pool).unwrap();
        let (armed_out, a) = v3::run_pooled(&armed, &input, &v3_params, &pool).unwrap();
        assert_eq!(out, armed_out, "{what} V3: bodies");
        assert_only_observed(&format!("{what} V3"), &p, &a);
    }
}

#[test]
fn decode_engines_run_identically_armed() {
    for engine in [DecodeEngine::Serial, DecodeEngine::WarpParallel] {
        let plain = Culzss::new(Version::V2).with_workers(2).with_decode_engine(engine);
        let armed = plain.clone().with_sanitizer();
        for (what, input) in samples() {
            let (stream, _) = plain.compress(&input).unwrap();
            let (out, p) = plain.decompress_auto(&stream).unwrap();
            let (armed_out, a) = armed.decompress_auto(&stream).unwrap();
            assert!(out == input && armed_out == input, "{what} {engine:?}: decode");
            let what = format!("{what} {engine:?}");
            assert_only_observed(&what, p.launch.as_ref().unwrap(), a.launch.as_ref().unwrap());
        }
    }
}
