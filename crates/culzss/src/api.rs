//! The in-memory compression API (the paper's Figure 2).
//!
//! "The library gets initialized when loaded, detects GPUs, and
//! determines capabilities on the system. Then, when `Gpu_compress()` is
//! called, it takes the given buffer pointer and copies it to the GPU,
//! compresses it into the given memory region, and returns the calling
//! process a pointer to the compressed data and its length. The last
//! parameters for the functions are compression parameters."
//!
//! [`Culzss`] is that library object; [`gpu_compress`] / [`gpu_decompress`]
//! are the one-shot conveniences. Every call returns [`PipelineStats`]
//! breaking the modelled time into H2D copy, kernel, D2H copy and the
//! measured CPU post-processing (bucket compaction for V1; match
//! selection + encoding for V2; nothing but container assembly for the
//! fused V3) — the quantities Table I and Table III are built from.
//! The serial host pass is also *modelled* in device cycles
//! ([`PipelineStats::host_cycles`]) so the engines compare on one axis:
//! total modelled cycles, GPU + host.

use std::sync::Arc;
use std::time::Instant;

use culzss_gpusim::streams::StageTimes;
use culzss_gpusim::transfer::{Direction, TransferLedger};
use culzss_gpusim::{DeviceFaultModel, DeviceSpec, GpuSim};
use culzss_lzss::container::{assemble_with, stream_crc_of, Container};
use culzss_lzss::format;

use crate::error::CulzssResult;
use crate::metered::select_records_into;
use crate::params::{header_config, CulzssParams, Version};
use crate::pipeline::{BufferPool, PoolStats};
use crate::{decompress, kernel_v1, kernel_v2, v3};

/// Modelled host ops per token of V2's serial selection walk (record
/// compare, cursor advance, flag accumulation, token store). The host is
/// modelled at one op per device cycle so GPU and CPU work land on a
/// single comparable axis; see DESIGN.md §17.
pub const HOST_SELECT_OPS_PER_TOKEN: u64 = 8;
/// Modelled host ops per output byte of V2's serial Fixed16 encoding
/// pass (group bookkeeping plus the byte moves).
pub const HOST_ENCODE_OPS_PER_BYTE: u64 = 4;
/// Modelled host ops per bucket byte of V1's compaction pass
/// ("a final separate process to concatenate only the compressed
/// data") — a straight copy, one op per byte.
pub const HOST_COMPACT_OPS_PER_BYTE: u64 = 1;

/// Timing breakdown of one compression or decompression call.
#[derive(Debug, Clone)]
pub struct PipelineStats {
    /// Modelled host→device copy time (input or compressed payload).
    pub h2d_seconds: f64,
    /// Modelled kernel execution time.
    pub kernel_seconds: f64,
    /// Modelled device→host copy time (buckets / match arrays / output).
    pub d2h_seconds: f64,
    /// *Measured* CPU post-processing time (compaction, selection,
    /// container assembly) on the host running the simulation.
    pub cpu_seconds: f64,
    /// *Modelled* cycles of the serial host pass the engine still needs
    /// between kernel and container assembly: bucket compaction for V1,
    /// selection + encoding for V2, zero for the fused V3. Container
    /// assembly itself is identical across engines and excluded. Summed
    /// with the launch's modelled GPU cycles this gives the total
    /// modelled pipeline cycles the bench gate compares.
    pub host_cycles: f64,
    /// Launch statistics of the kernel (occupancy, transactions, …).
    pub launch: Option<culzss_gpusim::exec::LaunchStats>,
    /// Input bytes processed.
    pub input_bytes: usize,
    /// Output bytes produced.
    pub output_bytes: usize,
}

impl PipelineStats {
    /// Total modelled pipeline time: transfers + kernel + CPU steps, run
    /// back-to-back (the paper's non-overlapped configuration).
    pub fn modeled_total_seconds(&self) -> f64 {
        StageTimes::from(self).sequential_seconds()
    }

    /// Compression ratio of this call (output/input; only meaningful for
    /// compression).
    pub fn ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            1.0
        } else {
            self.output_bytes as f64 / self.input_bytes as f64
        }
    }
}

impl From<&PipelineStats> for StageTimes {
    fn from(stats: &PipelineStats) -> Self {
        StageTimes {
            h2d: stats.h2d_seconds,
            kernel: stats.kernel_seconds,
            d2h: stats.d2h_seconds,
            cpu: stats.cpu_seconds,
        }
    }
}

/// The CULZSS library object: a simulated device plus run parameters.
#[derive(Debug, Clone)]
pub struct Culzss {
    sim: GpuSim,
    params: CulzssParams,
    /// Recycled per-chunk scratch, shared across clones so repeated calls
    /// (and the streaming/server layers built on cloned instances) reuse
    /// buffers instead of re-allocating per chunk.
    pool: Arc<BufferPool>,
}

impl Culzss {
    /// Initializes the library on the default device (GTX 480) with the
    /// paper's parameters for `version`.
    pub fn new(version: Version) -> Self {
        Self::with_device(DeviceSpec::gtx480(), CulzssParams::for_version(version))
    }

    /// Initializes on an explicit device with explicit parameters.
    pub fn with_device(device: DeviceSpec, params: CulzssParams) -> Self {
        Self { sim: GpuSim::new(device), params, pool: Arc::new(BufferPool::new()) }
    }

    /// Overrides the host worker pool used to execute simulated blocks.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.sim = self.sim.with_workers(workers);
        self
    }

    /// Installs a [`DeviceFaultModel`] on the underlying simulator so
    /// kernel launches fail/slow/hang per its seeded schedule. Failures
    /// surface as [`crate::error::CulzssError::Launch`] from
    /// [`Self::compress`]/[`Self::decompress`].
    pub fn with_fault_model(mut self, model: DeviceFaultModel) -> Self {
        self.sim = self.sim.with_fault_model(model);
        self
    }

    /// Arms the shared-memory sanitizer on the underlying simulator (see
    /// [`GpuSim::with_sanitizer`]): every compress and decompress launch
    /// then reports its racecheck verdict in
    /// [`PipelineStats::launch`]'s `sanitizer`, with outputs and every
    /// other statistic unchanged.
    pub fn with_sanitizer(mut self) -> Self {
        self.sim = self.sim.with_sanitizer();
        self
    }

    /// Selects the decompression kernel for this instance (see
    /// [`crate::decompress::DecodeEngine`]; the default stays the serial
    /// block decoder).
    pub fn with_decode_engine(mut self, engine: crate::decompress::DecodeEngine) -> Self {
        self.params.decode_engine = engine;
        self
    }

    /// The active parameters.
    pub fn params(&self) -> &CulzssParams {
        &self.params
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        self.sim.device()
    }

    /// The simulator every launch of this instance runs on, with its
    /// worker count, fault model and sanitizer.
    pub(crate) fn sim(&self) -> &GpuSim {
        &self.sim
    }

    /// The scratch-buffer pool shared by this instance's clones.
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Reuse counters of the shared scratch-buffer pool (see
    /// [`BufferPool`]); steady-state calls should show `reuses` tracking
    /// `acquires`.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Compresses `input`, returning the container stream and the timing
    /// breakdown.
    pub fn compress(&self, input: &[u8]) -> CulzssResult<(Vec<u8>, PipelineStats)> {
        self.params.validate(self.sim.device())?;
        let device = self.sim.device();
        let mut ledger = TransferLedger::default();
        let h2d = ledger.copy(device, Direction::HostToDevice, input.len());
        let config = self.params.lzss_config();

        let (bodies, launch, d2h, cpu_seconds, host_cycles) = match self.params.version {
            Version::V1 => {
                let (bodies, launch) =
                    kernel_v1::run_pooled(&self.sim, input, &self.params, &self.pool)?;
                // D2H: the partially-filled buckets come back whole; the
                // CPU then compacts them ("a final separate process to
                // concatenate only the compressed data").
                let bucket_bytes: usize = bodies.iter().map(|b| b.len()).sum();
                let d2h = ledger.copy(device, Direction::DeviceToHost, bucket_bytes);
                let host_cycles = (bucket_bytes as u64 * HOST_COMPACT_OPS_PER_BYTE) as f64;
                let started = Instant::now();
                // Compaction = container assembly from the bodies.
                (bodies, launch, d2h, started.elapsed().as_secs_f64(), host_cycles)
            }
            Version::V2 => {
                let (records, launch) = kernel_v2::run(&self.sim, input, &self.params)?;
                // D2H: two u16 arrays covering every input position.
                let d2h = ledger.copy(device, Direction::DeviceToHost, input.len() * 4);
                // CPU steps: selection + flag generation + encoding, all
                // through recycled scratch (one token buffer for the whole
                // batch, pooled body buffers).
                let started = Instant::now();
                let mut bodies = Vec::with_capacity(records.len());
                let mut tokens = self.pool.acquire_tokens();
                let mut host_ops = 0u64;
                for (chunk, recs) in input.chunks(self.params.chunk_size).zip(&records) {
                    tokens.clear();
                    select_records_into(chunk, recs, &config, &mut tokens);
                    let mut body = self.pool.acquire_bytes();
                    let written = format::encode_into(&tokens, &config, &mut body);
                    host_ops += tokens.len() as u64 * HOST_SELECT_OPS_PER_TOKEN
                        + written as u64 * HOST_ENCODE_OPS_PER_BYTE;
                    bodies.push(body);
                }
                self.pool.release_tokens(tokens);
                (bodies, launch, d2h, started.elapsed().as_secs_f64(), host_ops as f64)
            }
            Version::V3 => {
                // The fused kernel already selected, sized, and compacted
                // on-device: the bodies come back padding-free and the
                // host has no serial pass left (host_cycles = 0).
                let (bodies, launch) = v3::run_pooled(&self.sim, input, &self.params, &self.pool)?;
                let body_bytes: usize = bodies.iter().map(|b| b.len()).sum();
                let d2h = ledger.copy(device, Direction::DeviceToHost, body_bytes);
                (bodies, launch, d2h, 0.0, 0.0)
            }
        };

        let cpu_started = Instant::now();
        let stream = assemble_with(
            &config,
            self.params.chunk_size as u32,
            input.len() as u64,
            stream_crc_of(input, self.params.chunk_size as u32),
            &bodies,
            self.params.container_version,
        )?;
        self.pool.release_all_bytes(bodies);
        let cpu_seconds = cpu_seconds + cpu_started.elapsed().as_secs_f64();

        let stats = PipelineStats {
            h2d_seconds: h2d,
            kernel_seconds: launch.kernel_seconds,
            d2h_seconds: d2h,
            cpu_seconds,
            host_cycles,
            launch: Some(launch),
            input_bytes: input.len(),
            output_bytes: stream.len(),
        };
        Ok((stream, stats))
    }

    /// Decompresses a container stream produced by [`Culzss::compress`]
    /// with *this* instance's parameters (strict configuration check).
    pub fn decompress(&self, bytes: &[u8]) -> CulzssResult<(Vec<u8>, PipelineStats)> {
        let config = self.params.lzss_config();
        let (container, payload_offset) = Container::parse(bytes)?;
        container.check_config(&config)?;
        self.decompress_inner(bytes, container, payload_offset, config)
    }

    /// Decompresses any CULZSS container regardless of which version (or
    /// window/match tuning) produced it, by reading the token
    /// configuration from the header — the paper's "the decompression
    /// process is identical in both versions".
    pub fn decompress_auto(&self, bytes: &[u8]) -> CulzssResult<(Vec<u8>, PipelineStats)> {
        let (container, payload_offset) = Container::parse(bytes)?;
        let config = header_config(&container)?;
        self.decompress_inner(bytes, container, payload_offset, config)
    }

    /// Salvage-decodes a (possibly corrupted) container: every intact
    /// chunk is recovered, damaged chunks become zero-filled holes, and
    /// the report lists each hole. See [`crate::salvage`] for semantics;
    /// only unusable metadata makes this fail.
    pub fn decompress_salvage(
        &self,
        bytes: &[u8],
    ) -> CulzssResult<(Vec<u8>, crate::salvage::SalvageReport)> {
        Ok(crate::salvage::salvage(bytes)?)
    }

    fn decompress_inner(
        &self,
        bytes: &[u8],
        container: Container,
        payload_offset: usize,
        config: culzss_lzss::LzssConfig,
    ) -> CulzssResult<(Vec<u8>, PipelineStats)> {
        let payload = &bytes[payload_offset..];
        // v2 streams: reject damaged bodies before spending kernel time on
        // them (v1 has no CRCs; structural decode errors still surface).
        container.verify_chunk_crcs(payload)?;
        let layout = container.chunk_layout();

        let device = self.sim.device();
        let mut ledger = TransferLedger::default();
        let h2d = ledger.copy(device, Direction::HostToDevice, bytes.len());

        let (chunks, launch) = decompress::run_with_engine(
            &self.sim,
            payload,
            &layout,
            &config,
            self.params.threads_per_block,
            self.params.decode_engine,
        )?;
        let d2h = ledger.copy(device, Direction::DeviceToHost, container.total_len as usize);

        let started = Instant::now();
        // Decoded chunks are dropped, not pooled: nothing draws them back
        // out, so the free list would grow by one buffer per chunk.
        let out = chunks.concat();
        let cpu_seconds = started.elapsed().as_secs_f64();
        if out.len() as u64 != container.total_len {
            return Err(culzss_lzss::Error::SizeMismatch {
                expected: container.total_len as usize,
                actual: out.len(),
            }
            .into());
        }
        // End-to-end check: the decoded bytes must match the CRC recorded
        // over the original input (v2 only).
        container.verify_stream_crc(&out)?;

        let stats = PipelineStats {
            h2d_seconds: h2d,
            kernel_seconds: launch.kernel_seconds,
            d2h_seconds: d2h,
            cpu_seconds,
            host_cycles: 0.0,
            launch: Some(launch),
            input_bytes: bytes.len(),
            output_bytes: out.len(),
        };
        Ok((out, stats))
    }
}

/// One-shot in-memory compression — `Gpu_compress()` from Figure 2, with
/// the version selection as the compression parameter.
pub fn gpu_compress(input: &[u8], version: Version) -> CulzssResult<(Vec<u8>, PipelineStats)> {
    Culzss::new(version).compress(input)
}

/// One-shot in-memory decompression — `Gpu_decompress()` from Figure 2.
pub fn gpu_decompress(bytes: &[u8], version: Version) -> CulzssResult<(Vec<u8>, PipelineStats)> {
    Culzss::new(version).decompress(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_datasets::Dataset;

    #[test]
    fn v1_roundtrip() {
        let input = Dataset::CFiles.generate(96 * 1024, 1);
        let culzss = Culzss::new(Version::V1).with_workers(4);
        let (compressed, cstats) = culzss.compress(&input).unwrap();
        assert!(compressed.len() < input.len());
        assert!(cstats.ratio() < 1.0);
        let (restored, dstats) = culzss.decompress(&compressed).unwrap();
        assert_eq!(restored, input);
        assert!(dstats.modeled_total_seconds() > 0.0);
    }

    #[test]
    fn v2_roundtrip() {
        let input = Dataset::KernelTarball.generate(96 * 1024, 2);
        let culzss = Culzss::new(Version::V2).with_workers(4);
        let (compressed, _) = culzss.compress(&input).unwrap();
        let (restored, _) = culzss.decompress(&compressed).unwrap();
        assert_eq!(restored, input);
    }

    #[test]
    fn v3_roundtrip_and_byte_identity_with_v2() {
        let input = Dataset::CFiles.generate(96 * 1024, 2);
        let v2 = Culzss::new(Version::V2).with_workers(4);
        let v3 = Culzss::new(Version::V3).with_workers(4);
        let (c2, s2) = v2.compress(&input).unwrap();
        let (c3, s3) = v3.compress(&input).unwrap();
        // The fused engine emits the same container stream, byte for byte.
        assert_eq!(c2, c3);
        let (restored, _) = v3.decompress(&c3).unwrap();
        assert_eq!(restored, input);
        // The serial host pass exists for V2 and is gone for V3.
        assert!(s2.host_cycles > 0.0);
        assert_eq!(s3.host_cycles, 0.0);
    }

    #[test]
    fn host_cycles_model_per_version() {
        let input = Dataset::Dictionary.generate(64 * 1024, 3);
        let (_, v1) = gpu_compress(&input, Version::V1).unwrap();
        let (_, v2) = gpu_compress(&input, Version::V2).unwrap();
        // V1's compaction is a per-byte copy of the compressed buckets.
        assert!(v1.host_cycles > 0.0);
        assert!(v1.host_cycles < input.len() as f64);
        // V2's selection walks every token, so it models far more host
        // work than V1's straight copy.
        assert!(v2.host_cycles > v1.host_cycles);
    }

    #[test]
    fn injected_device_fault_surfaces_as_launch_error() {
        use culzss_gpusim::fault::DeviceFaultConfig;
        use culzss_gpusim::{exec::LaunchError, FaultKind};
        let input = Dataset::CFiles.generate(32 * 1024, 4);
        let culzss = Culzss::new(Version::V1).with_workers(2).with_fault_model(
            DeviceFaultModel::new(DeviceFaultConfig::new(11).dead_at(0, Some(1))),
        );
        match culzss.compress(&input) {
            Err(crate::error::CulzssError::Launch(LaunchError::DeviceFault {
                kind: FaultKind::Dead,
                launch_index: 0,
            })) => {}
            other => panic!("expected a dead-device launch error, got {other:?}"),
        }
        // The dead window was one launch wide; the device works again.
        let (compressed, _) = culzss.compress(&input).unwrap();
        assert_eq!(culzss.decompress(&compressed).unwrap().0, input);
    }

    #[test]
    fn versions_are_wire_compatible_in_decompression() {
        // "Both of the CULZSS versions use the same decompression
        // implementation" — but V1 and V2 use different max_match, so a
        // V2 decoder must be configured for V2 streams. Same-version
        // roundtrips always work; the container rejects mismatches.
        let input = Dataset::DeMap.generate(64 * 1024, 3);
        let v1 = Culzss::new(Version::V1).with_workers(2);
        let v2 = Culzss::new(Version::V2).with_workers(2);
        let (c1, _) = v1.compress(&input).unwrap();
        assert!(v2.decompress(&c1).is_err());
        assert_eq!(v1.decompress(&c1).unwrap().0, input);
    }

    #[test]
    fn clones_survive_a_poisoned_buffer_pool() {
        // A request that panics mid-acquire poisons the shared pool's
        // mutexes; clones of the same Culzss must keep working (and
        // keep producing identical bytes) instead of cascading panics.
        let input = Dataset::CFiles.generate(48 * 1024, 9);
        let culzss = Culzss::new(Version::V2).with_workers(2);
        let clone = culzss.clone();
        let (before, _) = clone.compress(&input).unwrap();

        culzss.pool.poison_for_tests();

        let (after, _) = clone.compress(&input).unwrap();
        assert_eq!(after, before);
        let (restored, _) = culzss.decompress(&after).unwrap();
        assert_eq!(restored, input);
    }

    #[test]
    fn one_shot_helpers() {
        let input = b"one shot in-memory api ".repeat(700);
        let (compressed, _) = gpu_compress(&input, Version::V2).unwrap();
        let (restored, _) = gpu_decompress(&compressed, Version::V2).unwrap();
        assert_eq!(restored, input);
    }

    #[test]
    fn empty_input() {
        for version in [Version::V1, Version::V2, Version::V3] {
            let (compressed, stats) = gpu_compress(b"", version).unwrap();
            assert_eq!(stats.input_bytes, 0);
            let (restored, _) = gpu_decompress(&compressed, version).unwrap();
            assert!(restored.is_empty());
        }
    }

    #[test]
    fn v2_ratio_beats_v1_on_highly_compressible() {
        // Table II: 6.34 % (V2) vs 13.90 % (V1).
        let input = Dataset::HighlyCompressible.generate(128 * 1024, 4);
        let (c1, _) = gpu_compress(&input, Version::V1).unwrap();
        let (c2, _) = gpu_compress(&input, Version::V2).unwrap();
        assert!((c2.len() as f64) < c1.len() as f64 * 0.7, "V2 {} vs V1 {}", c2.len(), c1.len());
    }

    #[test]
    fn v1_ratio_tracks_serial_within_the_window_penalty() {
        // Table II reports V1 ≈ serial (55.7 % vs 54.8 % on C files). Our
        // faithful 128-byte window costs more than that on C-like data —
        // a measured property of LZSS on real C too (see EXPERIMENTS.md
        // "Deviations") — so the reproduction asserts the same direction
        // with the honestly measured magnitude.
        let input = Dataset::CFiles.generate(192 * 1024, 5);
        let serial =
            culzss_lzss::serial::compress(&input, &culzss_lzss::LzssConfig::dipperstein()).unwrap();
        let (v1, _) = gpu_compress(&input, Version::V1).unwrap();
        let ratio = v1.len() as f64 / serial.len() as f64;
        assert!((1.0..2.0).contains(&ratio), "V1/serial size ratio {ratio}");
        // Both stay firmly on the "compresses" side.
        assert!(v1.len() < input.len());
    }

    #[test]
    fn repeated_calls_reuse_pooled_buffers() {
        for version in [Version::V1, Version::V2, Version::V3] {
            let input = Dataset::CFiles.generate(64 * 1024, 8);
            let culzss = Culzss::new(version).with_workers(2);
            let (first, _) = culzss.compress(&input).unwrap();
            let cold = culzss.pool_stats();
            let (second, _) = culzss.compress(&input).unwrap();
            let warm = culzss.pool_stats();
            // Determinism: pooling must not change the stream.
            assert_eq!(first, second, "{version:?}");
            // The second call is served from recycled buffers.
            let second_call_acquires = warm.acquires - cold.acquires;
            let second_call_reuses = warm.reuses - cold.reuses;
            assert!(second_call_acquires > 0, "{version:?}");
            assert_eq!(second_call_reuses, second_call_acquires, "{version:?}: every acquire warm");
            // Clones share the pool.
            let clone = culzss.clone();
            clone.compress(&input).unwrap();
            assert!(clone.pool_stats().reuses > warm.reuses, "{version:?}");
        }
    }

    #[test]
    fn round_trips_do_not_grow_the_byte_free_list() {
        // Compress draws its chunk bodies from the free list and returns
        // them; decoded chunks must not pile up behind them.
        let input = Dataset::CFiles.generate(16 * 1024, 8);
        for version in [Version::V1, Version::V2, Version::V3] {
            let culzss = Culzss::new(version).with_workers(2);
            let mut after_first = None;
            for round in 0..20 {
                let (stream, _) = culzss.compress(&input).unwrap();
                assert_eq!(culzss.decompress(&stream).unwrap().0, input, "{version:?}");
                let free = culzss.pool.free_byte_buffers();
                let first = *after_first.get_or_insert(free);
                assert_eq!(free, first, "{version:?}: free list grew by round {round}");
            }
        }
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let input = Dataset::Dictionary.generate(64 * 1024, 6);
        let (_, stats) = gpu_compress(&input, Version::V2).unwrap();
        assert!(stats.h2d_seconds > 0.0);
        assert!(stats.kernel_seconds > 0.0);
        assert!(stats.d2h_seconds > 0.0);
        assert!(stats.cpu_seconds > 0.0);
        let total = stats.modeled_total_seconds();
        assert!(
            total
                >= stats.h2d_seconds + stats.kernel_seconds + stats.d2h_seconds + stats.cpu_seconds
                    - 1e-12
        );
        assert_eq!(stats.input_bytes, input.len());
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;
    use culzss_datasets::Dataset;

    #[test]
    fn decompress_auto_handles_both_versions() {
        let input = Dataset::CFiles.generate(64 * 1024, 11);
        let v1 = Culzss::new(Version::V1).with_workers(2);
        let v2 = Culzss::new(Version::V2).with_workers(2);
        let (c1, _) = v1.compress(&input).unwrap();
        let (c2, _) = v2.compress(&input).unwrap();
        // One decompressor instance handles both streams.
        assert_eq!(v1.decompress_auto(&c2).unwrap().0, input);
        assert_eq!(v2.decompress_auto(&c1).unwrap().0, input);
        // A V3 stream carries V2's token configuration, so either
        // instance auto-decodes it too.
        let v3 = Culzss::new(Version::V3).with_workers(2);
        let (c3, _) = v3.compress(&input).unwrap();
        assert_eq!(v1.decompress_auto(&c3).unwrap().0, input);
        assert_eq!(v3.decompress_auto(&c1).unwrap().0, input);
    }

    #[test]
    fn decompress_auto_rejects_non_fixed16_streams() {
        let input = b"flagbit container is not a CULZSS stream".repeat(50);
        let config = culzss_lzss::LzssConfig::dipperstein();
        let stream = culzss_pthread_free::compress(&input, &config);
        let v1 = Culzss::new(Version::V1).with_workers(1);
        assert!(v1.decompress_auto(&stream).is_err());
    }

    /// Local chunked FlagBit container builder (avoids a dev-dependency
    /// cycle with culzss-pthread).
    mod culzss_pthread_free {
        pub fn compress(input: &[u8], config: &culzss_lzss::LzssConfig) -> Vec<u8> {
            let bodies: Vec<Vec<u8>> = input
                .chunks(4096)
                .map(|c| {
                    culzss_lzss::format::encode(&culzss_lzss::serial::tokenize(c, config), config)
                })
                .collect();
            culzss_lzss::container::assemble(config, 4096, input.len() as u64, &bodies).unwrap()
        }
    }

    #[test]
    fn decompress_auto_handles_custom_windows() {
        let mut params = CulzssParams::v2();
        params.window_size = 64;
        params.max_match = 24;
        let custom = Culzss::with_device(DeviceSpec::gtx480(), params).with_workers(1);
        let input = Dataset::DeMap.generate(32 * 1024, 13);
        let (stream, _) = custom.compress(&input).unwrap();
        // A defaults-configured instance still decodes it.
        let stock = Culzss::new(Version::V1).with_workers(1);
        assert_eq!(stock.decompress_auto(&stream).unwrap().0, input);
    }
}
