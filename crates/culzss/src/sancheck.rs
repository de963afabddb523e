//! Racecheck driver: run the shipped kernels under the gpusim
//! shared-memory sanitizer. Each check launches on an armed clone of the
//! caller's simulator ([`GpuSim::with_sanitizer`]) and reads the verdict
//! from the launch's [`LaunchStats::sanitizer`]; the kernels themselves
//! have one entry point, armed or not.
//!
//! The CULZSS kernels depend on exactly the discipline the paper
//! describes — V1's per-thread windows must stay disjoint in the shared
//! arena, V2's cooperative staging must be separated from the match scan
//! by a barrier. This module is how the rest of the workspace (CLI
//! `culzss sancheck`, the server's startup probe, the test suites)
//! asserts that discipline holds on real corpus data.

use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::{GpuSim, SanitizerReport};

use crate::decompress::DecodeEngine;
use crate::error::CulzssResult;
use crate::params::{CulzssParams, Version};
use crate::pipeline::BufferPool;
use crate::{kernel_v1, kernel_v2, v3};

/// Racecheck outcome for one kernel over one input sample.
#[derive(Debug)]
pub struct KernelCheck {
    /// Which kernel design ran.
    pub version: Version,
    /// Sample length in bytes.
    pub input_bytes: usize,
    /// The sanitizer's findings.
    pub report: SanitizerReport,
}

impl KernelCheck {
    /// True when the kernel executed race- and divergence-free.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Runs the kernel selected by `params.version` over `input` on an
/// armed clone of `sim` and returns its findings. Outputs are discarded —
/// callers wanting both run the kernel on a simulator built with
/// [`GpuSim::with_sanitizer`] and read [`LaunchStats::sanitizer`].
pub fn check(sim: &GpuSim, input: &[u8], params: &CulzssParams) -> CulzssResult<KernelCheck> {
    params.validate(sim.device())?;
    let sim = sim.clone().with_sanitizer();
    let pool = BufferPool::new();
    let stats = match params.version {
        Version::V1 => kernel_v1::run_pooled(&sim, input, params, &pool)?.1,
        Version::V2 => kernel_v2::run(&sim, input, params)?.1,
        Version::V3 => v3::run_pooled(&sim, input, params, &pool)?.1,
    };
    Ok(KernelCheck { version: params.version, input_bytes: input.len(), report: report_of(stats) })
}

/// The verdict of a launch on an armed simulator.
fn report_of(stats: LaunchStats) -> SanitizerReport {
    stats.sanitizer.expect("an armed launch reports")
}

/// Runs *all three* kernel designs over `input` on `sim`'s device with
/// their paper-default parameters (the CLI's corpus sweep). For V3 this
/// covers the fused selection, scan, and compaction phases alongside the
/// match phases.
pub fn check_all(sim: &GpuSim, input: &[u8]) -> CulzssResult<Vec<KernelCheck>> {
    Ok(vec![
        check(sim, input, &CulzssParams::v1())?,
        check(sim, input, &CulzssParams::v2())?,
        check(sim, input, &CulzssParams::v3())?,
    ])
}

/// Racecheck outcome for one decode engine over one input sample.
#[derive(Debug)]
pub struct DecodeCheck {
    /// Which decode engine ran.
    pub engine: DecodeEngine,
    /// Which compression kernel produced the stream it decoded.
    pub version: Version,
    /// Uncompressed sample length in bytes.
    pub input_bytes: usize,
    /// The sanitizer's findings for the decode launch.
    pub report: SanitizerReport,
}

impl DecodeCheck {
    /// True when the decode kernel executed race- and divergence-free.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Compresses `input` with `params`, then decodes the stream with
/// `engine` on an armed pipeline ([`crate::Culzss::with_sanitizer`]),
/// asserting byte identity on the side. This mirrors [`check`] for the
/// decompression kernels.
pub fn check_decode(
    sim: &GpuSim,
    input: &[u8],
    params: &CulzssParams,
    engine: DecodeEngine,
) -> CulzssResult<DecodeCheck> {
    let mut params = params.clone();
    params.decode_engine = engine;
    let culzss = crate::Culzss::with_device(sim.device().clone(), params.clone());
    let (stream, _) = culzss.compress(input)?;
    let (out, stats) = culzss.with_sanitizer().decompress_auto(&stream)?;
    debug_assert_eq!(out, input, "armed decode changed bytes");
    let report = report_of(stats.launch.expect("a GPU decode launches"));
    Ok(DecodeCheck { engine, version: params.version, input_bytes: input.len(), report })
}

/// Runs both decode engines over streams from both compression kernels —
/// the decode half of the CLI's `sancheck` corpus sweep.
pub fn check_decode_all(sim: &GpuSim, input: &[u8]) -> CulzssResult<Vec<DecodeCheck>> {
    let mut checks = Vec::new();
    for params in [CulzssParams::v1(), CulzssParams::v2(), CulzssParams::v3()] {
        for engine in [DecodeEngine::Serial, DecodeEngine::WarpParallel] {
            checks.push(check_decode(sim, input, &params, engine)?);
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_gpusim::DeviceSpec;

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(4)
    }

    #[test]
    fn both_kernels_are_race_free_on_mixed_data() {
        let input = b"sanitizer sweep over a text-like sample; repeat repeat ".repeat(400);
        for check in check_all(&sim(), &input).unwrap() {
            assert!(
                check.is_clean(),
                "{:?} kernel not race-free:\n{}",
                check.version,
                check.report
            );
            assert!(check.report.checked_accesses > 0, "sanitizer saw no accesses");
        }
    }

    #[test]
    fn empty_input_is_trivially_clean() {
        for check in check_all(&sim(), b"").unwrap() {
            assert!(check.is_clean());
            assert_eq!(check.report.grid_dim, 0);
        }
    }

    #[test]
    fn decode_engines_are_race_free_on_mixed_data() {
        let input = b"decode sweep sample with runs runs runs and text mixed in ".repeat(300);
        for check in check_decode_all(&sim(), &input).unwrap() {
            assert!(
                check.is_clean(),
                "{:?}/{:?} decode not race-free:\n{}",
                check.version,
                check.engine,
                check.report
            );
        }
        // The warp engine must actually exercise the sanitizer (the serial
        // decoder has no shared staging to check).
        let warp =
            check_decode(&sim(), &input, &CulzssParams::v1(), DecodeEngine::WarpParallel).unwrap();
        assert!(warp.report.checked_accesses > 0);
    }
}
