//! Cross-crate integration tests: every implementation on every dataset,
//! plus wire-format interoperability between the CPU and GPU codecs.

use culzss::hetero::HeteroCompressor;
use culzss::{Culzss, CulzssParams, Version};
use culzss_datasets::Dataset;
use culzss_lzss::{serial, LzssConfig};

const SIZE: usize = 96 * 1024;
const SEED: u64 = 0xE2E;

#[test]
fn serial_roundtrips_every_dataset() {
    let config = LzssConfig::dipperstein();
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = serial::compress(&data, &config).unwrap();
        assert_eq!(serial::decompress(&compressed, &config).unwrap(), data, "{}", dataset.slug());
        assert!(compressed.len() < data.len(), "{} did not compress", dataset.slug());
    }
}

#[test]
fn pthread_roundtrips_every_dataset() {
    let config = LzssConfig::dipperstein();
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = culzss_pthread::compress(&data, &config, 4).unwrap();
        assert_eq!(
            culzss_pthread::decompress(&compressed, &config, 4).unwrap(),
            data,
            "{}",
            dataset.slug()
        );
    }
}

#[test]
fn bzip2_roundtrips_every_dataset() {
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = culzss_bzip2::compress(&data).unwrap();
        assert_eq!(culzss_bzip2::decompress(&compressed).unwrap(), data, "{}", dataset.slug());
    }
}

#[test]
fn culzss_v1_roundtrips_every_dataset() {
    let culzss = Culzss::new(Version::V1).with_workers(2);
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let (compressed, _) = culzss.compress(&data).unwrap();
        assert_eq!(culzss.decompress(&compressed).unwrap().0, data, "{}", dataset.slug());
    }
}

#[test]
fn culzss_v2_roundtrips_every_dataset() {
    let culzss = Culzss::new(Version::V2).with_workers(2);
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let (compressed, _) = culzss.compress(&data).unwrap();
        assert_eq!(culzss.decompress(&compressed).unwrap().0, data, "{}", dataset.slug());
    }
}

#[test]
fn pthread_and_gpu_containers_are_wire_compatible() {
    // The container format is shared: a stream produced by the CPU
    // threaded compressor (with the GPU token configuration and chunk
    // size) decompresses on the simulated GPU, and vice versa.
    let params = CulzssParams::v1();
    let config = params.lzss_config();
    let data = Dataset::CFiles.generate(SIZE, SEED);

    let cpu_stream =
        culzss_pthread::compress_chunked(&data, &config, params.chunk_size, 4).unwrap();
    let gpu = Culzss::new(Version::V1).with_workers(2);
    let (gpu_restored, _) = gpu.decompress(&cpu_stream).unwrap();
    assert_eq!(gpu_restored, data);

    let (gpu_stream, _) = gpu.compress(&data).unwrap();
    let cpu_restored = culzss_pthread::decompress(&gpu_stream, &config, 4).unwrap();
    assert_eq!(cpu_restored, data);

    // Same inputs, same algorithm, same format ⇒ identical bytes.
    assert_eq!(cpu_stream, gpu_stream);
}

#[test]
fn hetero_streams_interoperate_with_every_decompressor() {
    let data = Dataset::KernelTarball.generate(128 * 1024, 33);
    let hetero = HeteroCompressor::new(Culzss::new(Version::V1).with_workers(2), 0.5, 2);
    let (stream, stats) = hetero.compress(&data).unwrap();
    assert!(stats.cpu_chunks > 0 && stats.gpu_chunks > 0);

    // GPU decompressor.
    let gpu = Culzss::new(Version::V1).with_workers(2);
    assert_eq!(gpu.decompress(&stream).unwrap().0, data);
    // Auto decompressor.
    assert_eq!(gpu.decompress_auto(&stream).unwrap().0, data);
    // CPU chunked decompressor (same container, same config).
    let config = gpu.params().lzss_config();
    assert_eq!(culzss_pthread::decompress(&stream, &config, 3).unwrap(), data);
}

#[test]
fn v1_output_equals_per_chunk_serial_compression() {
    // V1 is "the serial algorithm per 4 KB chunk" — byte-for-byte.
    let params = CulzssParams::v1();
    let config = params.lzss_config();
    let data = Dataset::KernelTarball.generate(SIZE, SEED);
    let gpu = Culzss::new(Version::V1).with_workers(2);
    let (gpu_stream, _) = gpu.compress(&data).unwrap();

    let bodies: Vec<Vec<u8>> = data
        .chunks(params.chunk_size)
        .map(|chunk| culzss_lzss::format::encode(&serial::tokenize(chunk, &config), &config))
        .collect();
    let reference = culzss_lzss::container::assemble_v2(
        &config,
        params.chunk_size as u32,
        data.len() as u64,
        culzss_lzss::container::stream_crc_of(&data, params.chunk_size as u32),
        &bodies,
    )
    .unwrap();
    assert_eq!(gpu_stream, reference);
}

#[test]
fn multi_gpu_extension_compresses_consistently() {
    // The future-work multi-GPU path: two simulated devices split the
    // grid; results must equal the single-device run.
    use culzss_gpusim::multi::MultiGpu;
    use culzss_gpusim::DeviceSpec;

    let data = Dataset::DeMap.generate(SIZE, SEED);
    let params = CulzssParams::v2();

    let single = Culzss::new(Version::V2).with_workers(2);
    let (single_stream, _) = single.compress(&data).unwrap();

    let multi = MultiGpu::new(vec![DeviceSpec::gtx480(), DeviceSpec::c2050()]);
    let chunks = params.chunk_count(data.len());
    let result = multi
        .launch_partitioned(chunks, params.threads_per_block, params.shared_bytes(), |range| {
            culzss::kernel_v2::V2MatchKernel::new(&data, &params).with_chunk_offset(range.start)
        })
        .unwrap();
    // Reassemble records in global chunk order and run the CPU selection.
    let mut records = Vec::new();
    for r in &result.per_device {
        for block in &r.outputs {
            records.push(block.clone());
        }
    }
    let config = params.lzss_config();
    let bodies: Vec<Vec<u8>> = data
        .chunks(params.chunk_size)
        .zip(&records)
        .map(|(chunk, recs)| {
            let mut tokens = Vec::new();
            culzss::metered::select_records_into(chunk, recs, &config, &mut tokens);
            culzss_lzss::format::encode(&tokens, &config)
        })
        .collect();
    let multi_stream = culzss_lzss::container::assemble_v2(
        &config,
        params.chunk_size as u32,
        data.len() as u64,
        culzss_lzss::container::stream_crc_of(&data, params.chunk_size as u32),
        &bodies,
    )
    .unwrap();
    assert_eq!(multi_stream, single_stream);
}
