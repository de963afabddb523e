//! Tuning parameters for the CULZSS pipeline.
//!
//! The paper's optimization section settles on: 4 KB data chunks ("a
//! reasonable choice for an average size of a network packet"), 128
//! threads per block ("128 threads per block configuration is giving the
//! best performance"), and a 128-byte window ("we get the best performance
//! with the window buffer size of 128 bytes ... just enough number of bits
//! to encode in a 16 bit encoding space"). All of them are sweepable here
//! (the future-work "more detailed tuning configuration API").

use culzss_gpusim::device::DeviceSpec;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::{Container, ContainerVersion};
use culzss_lzss::format::TokenFormat;

use crate::decompress::DecodeEngine;
use crate::error::{CulzssError, CulzssResult};

/// Which CULZSS design to run (the paper's API exposes this choice as a
/// compression parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Coarse-grained: one chunk per *thread* (PBZIP2-style).
    V1,
    /// Fine-grained SIMD: one chunk per *block*, one position per thread.
    V2,
    /// Fused GPULZ-style engine: V2's match phase plus on-device greedy
    /// selection, a Hillis–Steele size scan, and prefix-sum compaction —
    /// the host keeps only container assembly (see [`crate::v3`]).
    V3,
}

impl Version {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Version::V1 => "CULZSS V1",
            Version::V2 => "CULZSS V2",
            Version::V3 => "CULZSS V3",
        }
    }
}

/// Full parameter set of a CULZSS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CulzssParams {
    /// Algorithm variant.
    pub version: Version,
    /// Uncompressed bytes per chunk (paper: 4096).
    pub chunk_size: usize,
    /// CUDA threads per block (paper: 128).
    pub threads_per_block: usize,
    /// Sliding-window bytes (paper: 128).
    pub window_size: usize,
    /// Minimum encodable match (paper: 3).
    pub min_match: usize,
    /// Maximum encodable match (18 for V1, 32 for V2 — the extended
    /// lookahead).
    pub max_match: usize,
    /// Keep the search buffers in shared memory (`false` reproduces the
    /// pre-optimization global-memory variant; the paper reports ~30 %
    /// V1 speedup from turning this on).
    pub use_shared_memory: bool,
    /// Which container layout to emit: checksummed v2 (default) or the
    /// paper-faithful checksum-free v1 for byte-compatibility with
    /// pre-checksum streams. Decoders accept both regardless.
    pub container_version: ContainerVersion,
    /// Which decompression kernel `decompress`/`decompress_auto` launch:
    /// the paper-faithful serial block decoder (default) or the two-pass
    /// warp-parallel decoder. Outputs and typed errors are identical;
    /// only the modelled execution differs.
    pub decode_engine: DecodeEngine,
}

impl CulzssParams {
    /// The paper's Version 1 configuration.
    pub fn v1() -> Self {
        Self {
            version: Version::V1,
            chunk_size: 4096,
            threads_per_block: 128,
            window_size: 128,
            min_match: 3,
            max_match: 18,
            use_shared_memory: true,
            container_version: ContainerVersion::default(),
            decode_engine: DecodeEngine::default(),
        }
    }

    /// The paper's Version 2 configuration.
    pub fn v2() -> Self {
        Self {
            version: Version::V2,
            chunk_size: 4096,
            threads_per_block: 128,
            window_size: 128,
            min_match: 3,
            max_match: 32,
            use_shared_memory: true,
            container_version: ContainerVersion::default(),
            decode_engine: DecodeEngine::default(),
        }
    }

    /// The fused V3 configuration: V2's token parameters (identical
    /// streams by construction), V3's fused kernel.
    pub fn v3() -> Self {
        Self { version: Version::V3, ..Self::v2() }
    }

    /// Parameters for `version` with paper defaults.
    pub fn for_version(version: Version) -> Self {
        match version {
            Version::V1 => Self::v1(),
            Version::V2 => Self::v2(),
            Version::V3 => Self::v3(),
        }
    }

    /// The LZSS token configuration implied by these parameters (GPU
    /// versions always use the byte-aligned 16-bit code format).
    pub fn lzss_config(&self) -> LzssConfig {
        LzssConfig {
            window_size: self.window_size,
            min_match: self.min_match,
            max_match: self.max_match,
            format: TokenFormat::Fixed16,
        }
    }

    /// Shared-memory bytes one block requests under these parameters.
    ///
    /// * V1: every thread keeps its private window in shared memory —
    ///   `threads × window` (exactly 16 KB at the paper's 128 × 128).
    /// * V2: the match phase's staging buffer — one shared window plus
    ///   the cooperative lookahead — rounded up to the bank width.
    /// * V3: the same staging buffer plus the resident selection/scan/
    ///   compaction arena ([`crate::v3::shared_bytes_for`]). Disabling
    ///   shared placement drops only the staging buffer.
    pub fn shared_bytes(&self) -> usize {
        if !self.use_shared_memory && self.version != Version::V3 {
            return 0;
        }
        match self.version {
            Version::V1 => self.threads_per_block * self.window_size,
            Version::V2 => crate::kernel_v2::staging_bytes(self).div_ceil(4) * 4,
            Version::V3 => crate::v3::shared_bytes_for(self),
        }
    }

    /// Number of chunks for an input length.
    pub fn chunk_count(&self, input_len: usize) -> usize {
        input_len.div_ceil(self.chunk_size)
    }

    /// Grid size for the compression kernel over `input_len` bytes.
    pub fn grid_dim(&self, input_len: usize) -> usize {
        match self.version {
            Version::V1 => self.chunk_count(input_len).div_ceil(self.threads_per_block),
            Version::V2 | Version::V3 => self.chunk_count(input_len),
        }
    }

    /// Launch geometry of the compression kernel over `input_len` bytes.
    pub(crate) fn launch_config(&self, input_len: usize) -> culzss_gpusim::LaunchConfig {
        let (block_dim, shared_bytes) = (self.threads_per_block, self.shared_bytes());
        culzss_gpusim::LaunchConfig { grid_dim: self.grid_dim(input_len), block_dim, shared_bytes }
    }

    /// The chunk-size rule every encode path shares, GPU and CPU: a
    /// chunk holds at least one byte, and the container records its size
    /// in 32 bits.
    pub fn validate_chunk_size(&self) -> CulzssResult<()> {
        if self.chunk_size == 0 || self.chunk_size > u32::MAX as usize {
            return Err(CulzssError::InvalidParams("chunk_size must be in 1..=u32::MAX".into()));
        }
        Ok(())
    }

    /// Validates against a device and the 16-bit code format.
    pub fn validate(&self, device: &DeviceSpec) -> CulzssResult<()> {
        let fail = |m: String| Err(CulzssError::InvalidParams(m));
        self.validate_chunk_size()?;
        if self.threads_per_block == 0 || self.threads_per_block > device.max_threads_per_block {
            return fail(format!(
                "threads_per_block {} outside 1..={}",
                self.threads_per_block, device.max_threads_per_block
            ));
        }
        if self.window_size > self.chunk_size {
            return fail("window larger than a chunk is never used".into());
        }
        self.lzss_config().validate()?;
        if self.version == Version::V3 && self.max_match > self.threads_per_block {
            // The V3 selection walk resumes at most max_match − 1
            // positions into the next segment's record ring; a longer
            // match could skip a whole segment whose records were
            // already overwritten.
            return fail(format!(
                "V3 requires max_match ({}) <= threads_per_block ({}): the selection \
                 walk must never jump past the next segment's record ring",
                self.max_match, self.threads_per_block
            ));
        }
        if self.shared_bytes() > device.shared_mem_per_block {
            return fail(format!(
                "shared memory request {} B exceeds the device's {} B — the \
                 limitation the paper describes for 256-512 thread blocks",
                self.shared_bytes(),
                device.shared_mem_per_block
            ));
        }
        Ok(())
    }
}

/// The token configuration a CULZSS container declares in its header —
/// the rule every header-driven decoder shares: the stream must use the
/// Fixed16 token format, and the window/match fields must form a valid
/// [`LzssConfig`].
pub(crate) fn header_config(container: &Container) -> culzss_lzss::error::Result<LzssConfig> {
    if container.format_id != TokenFormat::Fixed16.id() {
        return Err(culzss_lzss::Error::InvalidContainer {
            reason: "not a CULZSS (Fixed16) stream".into(),
        });
    }
    let config = LzssConfig {
        window_size: container.window_size as usize,
        min_match: usize::from(container.min_match),
        max_match: container.max_match as usize,
        format: TokenFormat::Fixed16,
    };
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let v1 = CulzssParams::v1();
        assert_eq!(v1.chunk_size, 4096);
        assert_eq!(v1.threads_per_block, 128);
        assert_eq!(v1.window_size, 128);
        assert_eq!(v1.max_match, 18);
        // 128 threads × 128 B = exactly the GTX 480's 16 KB shared arena.
        assert_eq!(v1.shared_bytes(), 16 * 1024);

        let v2 = CulzssParams::v2();
        assert_eq!(v2.max_match, 32);
        assert!(v2.shared_bytes() < 1024);

        // The decode-engine knob defaults to the paper-faithful serial
        // block decoder on both presets.
        assert_eq!(v1.decode_engine, DecodeEngine::Serial);
        assert_eq!(v2.decode_engine, DecodeEngine::Serial);
    }

    #[test]
    fn validation_against_gtx480() {
        let d = DeviceSpec::gtx480();
        CulzssParams::v1().validate(&d).unwrap();
        CulzssParams::v2().validate(&d).unwrap();

        // The paper's own limitation: V1 with 256 threads needs 32 KB of
        // shared memory and no longer fits.
        let mut big = CulzssParams::v1();
        big.threads_per_block = 256;
        let err = big.validate(&d).unwrap_err();
        assert!(matches!(err, CulzssError::InvalidParams(_)));

        let mut zero = CulzssParams::v1();
        zero.chunk_size = 0;
        assert!(zero.validate(&d).is_err());

        let mut wide = CulzssParams::v2();
        wide.window_size = 512; // breaks the 8-bit offset encoding
        assert!(wide.validate(&d).is_err());
    }

    #[test]
    fn grid_math() {
        let v1 = CulzssParams::v1();
        // 1 MiB = 256 chunks = 2 blocks of 128 threads.
        assert_eq!(v1.chunk_count(1 << 20), 256);
        assert_eq!(v1.grid_dim(1 << 20), 2);
        assert_eq!(v1.grid_dim(1), 1);
        assert_eq!(v1.grid_dim(0), 0);

        let v2 = CulzssParams::v2();
        assert_eq!(v2.grid_dim(1 << 20), 256);
    }

    #[test]
    fn v3_defaults_and_validation() {
        let d = DeviceSpec::gtx480();
        let v3 = CulzssParams::v3();
        v3.validate(&d).unwrap();
        // Token parameters are V2's — the stream must be byte-identical.
        let v2 = CulzssParams::v2();
        assert_eq!(v3.chunk_size, v2.chunk_size);
        assert_eq!(v3.max_match, v2.max_match);
        assert_eq!(v3.min_match, v2.min_match);
        assert_eq!(v3.window_size, v2.window_size);
        // The resident pipeline arena fits the GTX 480 with headroom.
        assert!(v3.shared_bytes() > v2.shared_bytes());
        assert!(v3.shared_bytes() <= d.shared_mem_per_block);
        assert_eq!(v3.grid_dim(1 << 20), 256);

        // Walk-resume invariant: max_match must not exceed the segment.
        let mut bad = CulzssParams::v3();
        bad.max_match = 200;
        assert!(bad.validate(&d).is_err());

        // Disabling shared staging still keeps the pipeline arena
        // on-chip (only the match staging buffer is dropped).
        let mut unshared = CulzssParams::v3();
        unshared.use_shared_memory = false;
        assert!(unshared.shared_bytes() > 0);
        assert!(unshared.shared_bytes() < v3.shared_bytes());
    }

    #[test]
    fn lzss_config_is_fixed16() {
        let config = CulzssParams::v2().lzss_config();
        config.validate().unwrap();
        assert_eq!(config.format.id(), 2);
    }

    #[test]
    fn disabling_shared_memory_zeroes_the_request() {
        let mut p = CulzssParams::v1();
        p.use_shared_memory = false;
        assert_eq!(p.shared_bytes(), 0);
    }
}
