//! Heterogeneous CPU+GPU compression — the paper's §VII item: "a
//! combined CPU and GPU heterogeneous implementation can give benefits
//! for the execution time. Since the chip designers are already looking
//! into putting both in a die …".
//!
//! The chunk grid is split at a chunk boundary: the leading fraction goes
//! to CPU worker threads (running the identical per-chunk algorithm with
//! the identical Fixed16 token configuration), the rest to the simulated
//! GPU; both proceed concurrently and the bodies merge into one standard
//! container — byte-identical to a pure-GPU run, which the tests pin
//! down. The two engines' times combine as `max(cpu, gpu)` plus the
//! serial merge.
//!
//! The CPU side is the workspace's one chunk-parallel CPU codec
//! ([`encode_chunks`] / [`decode_container`]); the Pthread baseline runs
//! the same loops with its own configuration and match finder.

use std::time::Instant;

use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::{assemble_with, stream_crc_of, Container};
use culzss_lzss::error::{Error, Result};
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::serial;

use crate::api::Culzss;
use crate::error::CulzssResult;
use crate::kernel_v1;
use crate::params::{header_config, CulzssParams, Version};

/// The chunk-parallel CPU encoder: cuts `input` into `chunk_size`-byte
/// pieces and compresses them with `threads` workers, each owning a
/// static contiguous range of chunks (the paper's Pthread scheme: one
/// chunk per thread when `chunks == threads`). Matches never cross a
/// chunk boundary, so the bodies depend on `chunk_size` but not on
/// `threads`.
///
/// Each worker drives one reusable [`serial::Tokenizer`] with `finder`,
/// so finder state and token buffer are recycled across its range.
/// `chunk_size` must be positive.
pub fn encode_chunks(
    input: &[u8],
    config: &LzssConfig,
    chunk_size: usize,
    threads: usize,
    finder: FinderKind,
) -> Vec<Vec<u8>> {
    let chunks: Vec<&[u8]> = input.chunks(chunk_size).collect();
    let mut bodies: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    if !chunks.is_empty() {
        let threads = threads.clamp(1, chunks.len());
        let per_worker = chunks.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (chunk_range, body_range) in
                chunks.chunks(per_worker).zip(bodies.chunks_mut(per_worker))
            {
                scope.spawn(move |_| {
                    let mut tokenizer = serial::Tokenizer::with_finder(config, finder);
                    for (chunk, body) in chunk_range.iter().zip(body_range.iter_mut()) {
                        tokenizer.compress_chunk_into(chunk, config, body);
                    }
                });
            }
        })
        .expect("CPU compression worker panicked");
    }
    bodies
}

/// The chunk-parallel CPU decoder: decodes the chunks of a parsed
/// container with `threads` workers over static ranges of the chunk
/// table, then checks the total length and the stream CRC. `payload` is
/// the container's bytes after the header and `config` the token
/// configuration to decode with; checking it against the header is the
/// caller's job.
pub fn decode_container(
    container: &Container,
    payload: &[u8],
    config: &LzssConfig,
    threads: usize,
) -> Result<Vec<u8>> {
    container.verify_chunk_crcs(payload)?;
    let layout = container.chunk_layout();
    let mut pieces: Vec<Result<Vec<u8>>> = Vec::new();
    pieces.resize_with(layout.len(), || Ok(Vec::new()));
    if !layout.is_empty() {
        let threads = threads.clamp(1, layout.len());
        let per_worker = layout.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (jobs, outs) in layout.chunks(per_worker).zip(pieces.chunks_mut(per_worker)) {
                scope.spawn(move |_| {
                    for ((range, unc_len), out) in jobs.iter().zip(outs.iter_mut()) {
                        *out = serial::decode_body(&payload[range.clone()], config, *unc_len);
                    }
                });
            }
        })
        .expect("CPU decompression worker panicked");
    }
    let mut out = Vec::with_capacity(container.total_len as usize);
    for piece in pieces {
        out.extend_from_slice(&piece?);
    }
    if out.len() as u64 != container.total_len {
        return Err(Error::SizeMismatch {
            expected: container.total_len as usize,
            actual: out.len(),
        });
    }
    container.verify_stream_crc(&out)?;
    Ok(out)
}

/// Compresses the per-chunk bodies of `input` on the host CPU with
/// `threads` workers, using the identical per-chunk algorithm and token
/// configuration as the V1 GPU kernel — each body is byte-identical to
/// what the kernel would emit for that chunk. This is the CPU engine of
/// [`HeteroCompressor`], exposed so fallback paths (e.g. a service
/// degrading off a failed device) can produce wire-compatible streams.
///
/// It runs [`encode_chunks`] with the fastest exact finder for the
/// configuration (the hash chain for every CULZSS preset), so the
/// per-chunk loop neither allocates nor brute-force-scans — output stays
/// byte-identical by the finder's longest-match/smallest-distance
/// contract.
pub fn cpu_compress_bodies(input: &[u8], params: &CulzssParams, threads: usize) -> Vec<Vec<u8>> {
    let config = params.lzss_config();
    encode_chunks(input, &config, params.chunk_size, threads, FinderKind::auto_exact(&config))
}

/// Pure-CPU compression into the standard container — byte-identical to
/// a pure-GPU V1 run with the same `params`.
pub fn cpu_compress(input: &[u8], params: &CulzssParams, threads: usize) -> CulzssResult<Vec<u8>> {
    params.validate_chunk_size()?;
    let config = params.lzss_config();
    config.validate()?;
    let bodies = cpu_compress_bodies(input, params, threads);
    Ok(assemble_with(
        &config,
        params.chunk_size as u32,
        input.len() as u64,
        stream_crc_of(input, params.chunk_size as u32),
        &bodies,
        params.container_version,
    )?)
}

/// Pure-CPU decompression of any CULZSS (Fixed16) container, reading the
/// token configuration from the header like
/// [`Culzss::decompress_auto`](crate::Culzss::decompress_auto) — the
/// host-side fallback when no device is available.
pub fn cpu_decompress(bytes: &[u8], threads: usize) -> CulzssResult<Vec<u8>> {
    let (container, payload_offset) = Container::parse(bytes)?;
    let config = header_config(&container)?;
    Ok(decode_container(&container, &bytes[payload_offset..], &config, threads)?)
}

/// Timing summary of a heterogeneous run.
#[derive(Debug, Clone, Copy)]
pub struct HeteroStats {
    /// Chunks processed on the CPU.
    pub cpu_chunks: usize,
    /// Chunks processed on the (simulated) GPU.
    pub gpu_chunks: usize,
    /// Measured CPU-side compression seconds.
    pub cpu_seconds: f64,
    /// Modelled GPU-side seconds (transfers + kernel).
    pub gpu_seconds: f64,
    /// Measured merge/assembly seconds.
    pub merge_seconds: f64,
}

impl HeteroStats {
    /// Combined wall time with both engines running concurrently.
    pub fn total_seconds(&self) -> f64 {
        self.cpu_seconds.max(self.gpu_seconds) + self.merge_seconds
    }
}

/// Heterogeneous compressor: a [`Culzss`] device plus CPU workers.
#[derive(Debug, Clone)]
pub struct HeteroCompressor {
    culzss: Culzss,
    /// Fraction of chunks handled by the CPU (0.0..=1.0).
    cpu_fraction: f64,
    /// CPU worker threads.
    cpu_threads: usize,
}

impl HeteroCompressor {
    /// Wraps `culzss` with a CPU share of `cpu_fraction`.
    pub fn new(culzss: Culzss, cpu_fraction: f64, cpu_threads: usize) -> Self {
        Self { culzss, cpu_fraction: cpu_fraction.clamp(0.0, 1.0), cpu_threads: cpu_threads.max(1) }
    }

    /// The configured CPU share.
    pub fn cpu_fraction(&self) -> f64 {
        self.cpu_fraction
    }

    /// Calibrates the CPU share from a probe run over `sample`: measures
    /// CPU throughput and models GPU throughput on the same bytes, then
    /// sets the share so both engines finish together
    /// (`cpu/(cpu+gpu) = tput_cpu/(tput_cpu+tput_gpu)`).
    pub fn auto_balance(mut self, sample: &[u8]) -> CulzssResult<Self> {
        let params = self.v1_params()?;
        if sample.is_empty() {
            return Ok(self);
        }
        // Probe CPU throughput (same tokenizer the workers use).
        let started = Instant::now();
        let config = params.lzss_config();
        let mut tokenizer = serial::Tokenizer::new(&config);
        for chunk in sample.chunks(params.chunk_size) {
            std::hint::black_box(tokenizer.tokenize(chunk, &config));
        }
        let cpu_seconds = started.elapsed().as_secs_f64().max(1e-9);
        // Probe GPU throughput (modelled, same bytes).
        let (bodies, launch) = self.run_gpu(sample)?;
        self.culzss.pool().release_all_bytes(bodies);
        let device = self.culzss.device();
        let gpu_seconds =
            (launch.cost.work_cycles / device.sm_count as f64 / device.clock_hz).max(1e-9);
        let cpu_tput = 1.0 / cpu_seconds;
        let gpu_tput = 1.0 / gpu_seconds;
        self.cpu_fraction = (cpu_tput / (cpu_tput + gpu_tput)).clamp(0.0, 1.0);
        Ok(self)
    }

    /// Compresses `input`, splitting chunks between CPU and GPU.
    ///
    /// Only V1 parameters are supported (the GPU side runs the per-chunk
    /// kernel; V2's match arrays would come back to the CPU anyway, which
    /// makes heterogeneous splitting pointless there); other versions
    /// are refused with [`CulzssError::InvalidParams`](crate::CulzssError).
    pub fn compress(&self, input: &[u8]) -> CulzssResult<(Vec<u8>, HeteroStats)> {
        let params = self.v1_params()?;
        let config = params.lzss_config();
        params.validate(self.culzss.device())?;

        let total_chunks = params.chunk_count(input.len());
        let cpu_chunks =
            ((total_chunks as f64 * self.cpu_fraction).round() as usize).min(total_chunks);
        let split = cpu_chunks * params.chunk_size;
        let split = split.min(input.len());
        let (cpu_part, gpu_part) = input.split_at(split);

        // CPU side: identical per-chunk algorithm, measured, threaded
        // over static ranges like the Pthread baseline.
        let cpu_started = Instant::now();
        let cpu_bodies = cpu_compress_bodies(cpu_part, params, self.cpu_threads);
        let cpu_seconds = cpu_started.elapsed().as_secs_f64();

        // GPU side: the V1 kernel over the remaining chunks.
        let (gpu_bodies, gpu_seconds) = if gpu_part.is_empty() {
            (Vec::new(), 0.0)
        } else {
            let (bodies, launch) = self.run_gpu(gpu_part)?;
            let device = self.culzss.device();
            let transfers = culzss_gpusim::transfer::transfer_seconds(device, gpu_part.len())
                + culzss_gpusim::transfer::transfer_seconds(
                    device,
                    bodies.iter().map(|b| b.len()).sum(),
                );
            (bodies, launch.kernel_seconds + transfers)
        };

        // Merge into one container, in chunk order.
        let merge_started = Instant::now();
        let mut bodies = cpu_bodies;
        let gpu_count = gpu_bodies.len();
        bodies.extend(gpu_bodies);
        let stream = assemble_with(
            &config,
            params.chunk_size as u32,
            input.len() as u64,
            stream_crc_of(input, params.chunk_size as u32),
            &bodies,
            params.container_version,
        )?;
        let cpu_chunks = bodies.len() - gpu_count;
        self.culzss.pool().release_all_bytes(bodies);
        let merge_seconds = merge_started.elapsed().as_secs_f64();

        Ok((
            stream,
            HeteroStats {
                cpu_chunks,
                gpu_chunks: gpu_count,
                cpu_seconds,
                gpu_seconds,
                merge_seconds,
            },
        ))
    }

    /// The wrapped instance's parameters, which must be V1's.
    fn v1_params(&self) -> CulzssResult<&CulzssParams> {
        let params = self.culzss.params();
        if params.version != Version::V1 {
            return Err(crate::CulzssError::InvalidParams(format!(
                "heterogeneous compression runs the V1 kernel, not {:?}",
                params.version
            )));
        }
        Ok(params)
    }

    /// The V1 kernel over `input` on the wrapped instance's simulator and
    /// buffer pool, so its workers, fault model and sanitizer apply.
    fn run_gpu(
        &self,
        input: &[u8],
    ) -> CulzssResult<(Vec<Vec<u8>>, culzss_gpusim::exec::LaunchStats)> {
        let culzss = &self.culzss;
        Ok(kernel_v1::run_pooled(culzss.sim(), input, culzss.params(), culzss.pool())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Version;
    use culzss_datasets::Dataset;

    fn gpu() -> Culzss {
        Culzss::new(Version::V1).with_workers(2)
    }

    #[test]
    fn output_is_byte_identical_to_pure_gpu() {
        let input = Dataset::CFiles.generate(160 * 1024, 21);
        let (reference, _) = gpu().compress(&input).unwrap();
        for fraction in [0.0, 0.25, 0.5, 1.0] {
            let hetero = HeteroCompressor::new(gpu(), fraction, 2);
            let (stream, stats) = hetero.compress(&input).unwrap();
            assert_eq!(stream, reference, "fraction {fraction}");
            assert_eq!(
                stats.cpu_chunks + stats.gpu_chunks,
                gpu().params().chunk_count(input.len())
            );
        }
    }

    #[test]
    fn decompresses_via_the_standard_path() {
        let input = Dataset::HighlyCompressible.generate(96 * 1024, 23);
        let hetero = HeteroCompressor::new(gpu(), 0.5, 2);
        let (stream, _) = hetero.compress(&input).unwrap();
        let (restored, _) = gpu().decompress(&stream).unwrap();
        assert_eq!(restored, input);
    }

    #[test]
    fn stats_partition_matches_fraction() {
        let input = Dataset::DeMap.generate(128 * 1024, 25); // 32 chunks
        let hetero = HeteroCompressor::new(gpu(), 0.25, 2);
        let (_, stats) = hetero.compress(&input).unwrap();
        assert_eq!(stats.cpu_chunks, 8);
        assert_eq!(stats.gpu_chunks, 24);
        assert!(stats.total_seconds() >= stats.merge_seconds);
    }

    #[test]
    fn all_cpu_and_all_gpu_edges() {
        let input = Dataset::Dictionary.generate(64 * 1024, 27);
        let all_cpu = HeteroCompressor::new(gpu(), 1.0, 3);
        let (_, s) = all_cpu.compress(&input).unwrap();
        assert_eq!(s.gpu_chunks, 0);
        assert_eq!(s.gpu_seconds, 0.0);

        let all_gpu = HeteroCompressor::new(gpu(), 0.0, 3);
        let (_, s) = all_gpu.compress(&input).unwrap();
        assert_eq!(s.cpu_chunks, 0);
    }

    #[test]
    fn empty_input() {
        let hetero = HeteroCompressor::new(gpu(), 0.5, 2);
        let (stream, stats) = hetero.compress(b"").unwrap();
        assert_eq!(stats.cpu_chunks + stats.gpu_chunks, 0);
        let (restored, _) = gpu().decompress(&stream).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn edge_fractions_match_the_pure_engine_outputs() {
        let input = Dataset::KernelTarball.generate(96 * 1024, 29);
        let (gpu_reference, _) = gpu().compress(&input).unwrap();
        let cpu_reference = cpu_compress(&input, gpu().params(), 3).unwrap();
        // The CPU engine is wire-identical to the V1 kernel by design…
        assert_eq!(cpu_reference, gpu_reference);

        // …so both edge fractions reproduce their engine exactly.
        let (all_gpu, stats) = HeteroCompressor::new(gpu(), 0.0, 2).compress(&input).unwrap();
        assert_eq!(stats.cpu_chunks, 0);
        assert_eq!(all_gpu, gpu_reference);

        let (all_cpu, stats) = HeteroCompressor::new(gpu(), 1.0, 2).compress(&input).unwrap();
        assert_eq!(stats.gpu_chunks, 0);
        assert_eq!(all_cpu, cpu_reference);
    }

    #[test]
    fn mid_fraction_rounds_to_a_chunk_boundary() {
        // 160 KiB / 4 KiB chunks = 40; 0.33 · 40 = 13.2 → 13 CPU chunks.
        let input = Dataset::CFiles.generate(160 * 1024, 31);
        let (stream, stats) = HeteroCompressor::new(gpu(), 0.33, 2).compress(&input).unwrap();
        assert_eq!(stats.cpu_chunks, 13);
        assert_eq!(stats.gpu_chunks, 27);
        // The split lands on a chunk boundary, so the merged container
        // is still byte-identical to a single-engine run.
        let (reference, _) = gpu().compress(&input).unwrap();
        assert_eq!(stream, reference);

        // Rounding, not truncation: 0.99 · 40 = 39.6 → all 40 chunks.
        let (_, stats) = HeteroCompressor::new(gpu(), 0.99, 2).compress(&input).unwrap();
        assert_eq!(stats.cpu_chunks, 40);
        assert_eq!(stats.gpu_chunks, 0);
    }

    #[test]
    fn the_gpu_share_runs_on_the_wrapped_instances_simulator() {
        use culzss_gpusim::{DeviceFaultConfig, DeviceFaultModel, FaultKind};
        let input = Dataset::CFiles.generate(64 * 1024, 35);
        let dead = DeviceFaultModel::new(DeviceFaultConfig::new(3).dead_at(0, None));
        let hetero = HeteroCompressor::new(gpu().with_fault_model(dead), 0.5, 2);
        let err = hetero.compress(&input).unwrap_err();
        assert!(
            matches!(
                err,
                crate::CulzssError::Launch(culzss_gpusim::exec::LaunchError::DeviceFault {
                    kind: FaultKind::Dead,
                    launch_index: 0
                })
            ),
            "{err:?}"
        );
        // With no GPU share there is no launch to fail.
        let dead = DeviceFaultModel::new(DeviceFaultConfig::new(3).dead_at(0, None));
        let all_cpu = HeteroCompressor::new(gpu().with_fault_model(dead), 1.0, 2);
        assert_eq!(all_cpu.compress(&input).unwrap().1.gpu_chunks, 0);
    }

    #[test]
    fn non_v1_parameters_are_refused() {
        let input = Dataset::CFiles.generate(16 * 1024, 37);
        for version in [Version::V2, Version::V3] {
            let hetero = HeteroCompressor::new(Culzss::new(version).with_workers(2), 0.5, 2);
            let err = hetero.compress(&input).unwrap_err();
            assert!(matches!(err, crate::CulzssError::InvalidParams(_)), "{err:?}");
            let err = hetero.auto_balance(&input).unwrap_err();
            assert!(matches!(err, crate::CulzssError::InvalidParams(_)), "{err:?}");
        }
    }

    #[test]
    fn cpu_compress_refuses_out_of_range_chunk_sizes() {
        for chunk_size in [0, u32::MAX as usize + 4097] {
            let params = CulzssParams { chunk_size, ..CulzssParams::v1() };
            let err = cpu_compress(b"abc", &params, 1).unwrap_err();
            assert_eq!(
                err,
                crate::CulzssError::InvalidParams("chunk_size must be in 1..=u32::MAX".into()),
                "chunk_size {chunk_size}"
            );
        }
    }

    fn codec_error<T>(result: CulzssResult<T>) -> Error {
        match result {
            Err(crate::CulzssError::Codec(e)) => e,
            Err(other) => panic!("expected a codec error, got {other:?}"),
            Ok(_) => panic!("decoder accepted a non-CULZSS header"),
        }
    }

    #[test]
    fn every_header_driven_decoder_applies_the_same_header_rule() {
        use culzss_lzss::format::TokenFormat;
        // A FlagBit stream, and a Fixed16 header whose window cannot
        // fit Fixed16's 8-bit offsets.
        let oversized_window = LzssConfig {
            window_size: 512,
            min_match: 3,
            max_match: 18,
            format: TokenFormat::Fixed16,
        };
        for (config, bad_config) in [(LzssConfig::dipperstein(), false), (oversized_window, true)] {
            let bytes = Container::new(&config, 4096, 0).serialize_header();
            let expected = crate::salvage::salvage(&bytes).unwrap_err();
            if bad_config {
                assert!(matches!(expected, Error::InvalidConfig { .. }), "{expected:?}");
            } else {
                assert!(matches!(expected, Error::InvalidContainer { .. }), "{expected:?}");
            }
            assert_eq!(codec_error(gpu().decompress_auto(&bytes)), expected);
            assert_eq!(codec_error(gpu().with_sanitizer().decompress_auto(&bytes)), expected);
            assert_eq!(codec_error(cpu_decompress(&bytes, 2)), expected);
        }
    }

    #[test]
    fn cpu_hooks_roundtrip_ragged_tails_and_match_the_device_path() {
        // 70 000 B is not chunk-aligned: 17 full chunks + a 388 B tail.
        let input = Dataset::DeMap.generate(70_000, 33);
        let params = crate::params::CulzssParams::v1();
        let stream = cpu_compress(&input, &params, 4).unwrap();
        let (gpu_stream, _) = gpu().compress(&input).unwrap();
        assert_eq!(stream, gpu_stream);
        assert_eq!(cpu_decompress(&stream, 4).unwrap(), input);
        // Cross-engine: the device decompressor accepts the CPU stream.
        assert_eq!(gpu().decompress_auto(&stream).unwrap().0, input);
    }
}
