//! # culzss-bench — measurement harness for the paper's tables & figures
//!
//! The harness runs every implementation on every dataset and reports the
//! paper's tables side-by-side with our numbers:
//!
//! * CPU implementations (serial LZSS, Pthread LZSS, the bzip2-style
//!   baseline) are **measured** wall-clock on this host and scaled
//!   linearly to the paper's 128 MB input size.
//! * CULZSS V1/V2 GPU times come from the **cost model**: per-launch work
//!   cycles are extrapolated to the 128 MB grid (where the GPU is fully
//!   occupied) as `work_cycles × scale / sm_count / clock`, plus modelled
//!   PCIe transfers and the *measured* CPU post-processing scaled
//!   linearly.
//!
//! Absolute numbers therefore mix two machines (this host's CPU vs a
//! modelled GTX 480) exactly like the paper mixed an i7 920 with a real
//! GTX 480; EXPERIMENTS.md discusses comparability. The shapes — who
//! wins per dataset, where V2 collapses, the ~order-of-magnitude GPU
//! advantage — are the reproduction targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod suite;

use std::time::Instant;

use culzss::{Culzss, Version};
use culzss_datasets::paper::PAPER_INPUT_BYTES;
use culzss_datasets::Dataset;
use culzss_gpusim::transfer::transfer_seconds;
use culzss_gpusim::DeviceSpec;
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::LzssConfig;

/// Harness configuration (dataset size, seed, repetitions).
#[derive(Debug, Clone, Copy)]
pub struct MeasureCfg {
    /// Bytes of each generated dataset.
    pub bytes: usize,
    /// Generator seed.
    pub seed: u64,
    /// Repetitions; the minimum time is kept (the paper averaged 10 runs
    /// on a dedicated testbed; minima are the low-noise equivalent here).
    pub reps: usize,
    /// Match finder for the *measured* CPU baselines. Defaults to the
    /// paper's "straightforward implementation" (brute force), which
    /// preserves Table I's CPU ordering; `CULZSS_FINDER=hash` switches to
    /// the hash-chain search (Dipperstein's accelerated variant), whose
    /// per-core throughput brackets the paper's from the other side. See
    /// EXPERIMENTS.md "CPU baseline bracketing".
    pub finder: FinderKind,
    /// BWT backend for the measured bzip2 baseline. Defaults to the
    /// doubling sorter: like bzip2 1.0's comparison-based block sorter it
    /// slows down dramatically on highly repetitive data, reproducing
    /// Table I's pathological 77.8 s row. `CULZSS_BWT=sais` switches to
    /// the linear-time sorter.
    pub bwt: culzss_bzip2::bwt::Backend,
}

impl Default for MeasureCfg {
    fn default() -> Self {
        let mb = std::env::var("CULZSS_BENCH_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(4)
            .max(1);
        let reps = std::env::var("CULZSS_BENCH_REPS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let finder = finder_from_env(std::env::var_os("CULZSS_FINDER"));
        let bwt = match std::env::var("CULZSS_BWT").as_deref() {
            Ok("sais") => culzss_bzip2::bwt::Backend::SaIs,
            _ => culzss_bzip2::bwt::Backend::Doubling,
        };
        Self { bytes: mb << 20, seed: 0xC0DE_2011, reps, finder, bwt }
    }
}

/// Reads `CULZSS_FINDER`: unset or `brute` is brute force, `hash` the
/// hash chain. Any other value panics naming it, instead of silently
/// measuring brute force.
fn finder_from_env(value: Option<std::ffi::OsString>) -> FinderKind {
    match value {
        None => FinderKind::BruteForce,
        Some(v) if v == "brute" => FinderKind::BruteForce,
        Some(v) if v == "hash" => FinderKind::HashChain,
        Some(v) => panic!("CULZSS_FINDER={v:?} is not a finder; use brute or hash"),
    }
}

impl MeasureCfg {
    /// Linear scale factor from the measured size to the paper's 128 MB.
    pub fn scale(&self) -> f64 {
        PAPER_INPUT_BYTES as f64 / self.bytes as f64
    }
}

/// Times `f` over `reps` runs and returns the minimum seconds.
pub fn time_min<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Worker count of the paper's Pthread baseline: an i7 920 (4 cores / 8
/// hardware threads); Table I's ~5.5× Pthread speedup is consistent with
/// eight workers.
pub const PAPER_PTHREAD_WORKERS: usize = 8;

/// Modelled k-way Pthread LZSS time.
///
/// Benchmark hosts (like this sandbox) may expose a single CPU, where a
/// real threaded run can never show parallel speedup, so the harness
/// models it the same way it models the GPU: each worker's chunk is
/// compressed and timed individually, and the run finishes when the
/// slowest worker finishes (the implementation uses a static partition,
/// exactly like the paper's one-chunk-per-thread scheme).
pub fn modeled_pthread_seconds(
    data: &[u8],
    config: &LzssConfig,
    workers: usize,
    reps: usize,
    finder: FinderKind,
) -> f64 {
    let chunk_size = data.len().div_ceil(workers.max(1)).max(1);
    let mut makespan = 0.0f64;
    for chunk in data.chunks(chunk_size) {
        let t = time_min(reps, || {
            let tokens = culzss_lzss::serial::tokenize_with(chunk, config, finder);
            std::hint::black_box(culzss_lzss::format::encode(&tokens, config));
        });
        makespan = makespan.max(t);
    }
    makespan
}

/// Scaled-to-128MB GPU pipeline seconds for a CULZSS compression run.
///
/// Kernel work is extrapolated by total work cycles over a fully-occupied
/// device; transfers and (measured) CPU post-processing scale linearly.
pub fn scaled_culzss_seconds(
    stats: &culzss::PipelineStats,
    device: &DeviceSpec,
    scale: f64,
) -> f64 {
    let launch = stats.launch.as_ref().expect("compression launches a kernel");
    let kernel = launch.cost.work_cycles * scale / device.sm_count as f64 / device.clock_hz
        + device.launch_overhead;
    let h2d = transfer_seconds(device, (stats.input_bytes as f64 * scale) as usize);
    // D2H volume scales with whatever came back (buckets / match arrays);
    // recompute from scaled bytes so the fixed per-copy latency is not
    // multiplied by the scale factor.
    let d2h_bytes = stats.d2h_seconds.max(0.0) - device.pcie_latency;
    let d2h =
        transfer_seconds(device, ((d2h_bytes * device.pcie_bandwidth).max(0.0) * scale) as usize);
    kernel + h2d + d2h + stats.cpu_seconds * scale
}

/// One measured row of Table I (seconds, scaled to 128 MB).
#[derive(Debug, Clone, Copy)]
pub struct Table1Measured {
    /// Dataset.
    pub dataset: Dataset,
    /// Serial LZSS (measured × scale).
    pub serial: f64,
    /// Pthread LZSS (measured × scale).
    pub pthread: f64,
    /// bzip2-style baseline (measured × scale).
    pub bzip2: f64,
    /// CULZSS V1 (modelled GPU + measured CPU, scaled).
    pub v1: f64,
    /// CULZSS V2 (modelled GPU + measured CPU, scaled).
    pub v2: f64,
}

/// Measures one Table I row.
pub fn measure_table1_row(dataset: Dataset, cfg: MeasureCfg) -> Table1Measured {
    let data = dataset.generate(cfg.bytes, cfg.seed);
    let scale = cfg.scale();
    let serial_cfg = LzssConfig::dipperstein();

    let serial = time_min(cfg.reps, || {
        std::hint::black_box(
            culzss_lzss::serial::compress_with(&data, &serial_cfg, cfg.finder).unwrap(),
        );
    }) * scale;

    let pthread =
        modeled_pthread_seconds(&data, &serial_cfg, PAPER_PTHREAD_WORKERS, cfg.reps, cfg.finder)
            * scale;

    let bzip2 = time_min(cfg.reps, || {
        std::hint::black_box(
            culzss_bzip2::compress_with(&data, culzss_bzip2::BZ_BLOCK_SIZE, cfg.bwt).unwrap(),
        );
    }) * scale;

    let gpu = |version: Version| {
        let culzss = Culzss::new(version);
        let device = culzss.device().clone();
        let (_, stats) = culzss.compress(&data).unwrap();
        scaled_culzss_seconds(&stats, &device, scale)
    };

    Table1Measured { dataset, serial, pthread, bzip2, v1: gpu(Version::V1), v2: gpu(Version::V2) }
}

/// One measured row of Table II (ratios; exact, not scaled).
#[derive(Debug, Clone, Copy)]
pub struct Table2Measured {
    /// Dataset.
    pub dataset: Dataset,
    /// Serial LZSS ratio.
    pub serial: f64,
    /// bzip2-style baseline ratio.
    pub bzip2: f64,
    /// CULZSS V1 ratio.
    pub v1: f64,
    /// CULZSS V2 ratio.
    pub v2: f64,
}

/// Measures one Table II row.
pub fn measure_table2_row(dataset: Dataset, cfg: MeasureCfg) -> Table2Measured {
    let data = dataset.generate(cfg.bytes, cfg.seed);
    let n = data.len() as f64;
    let serial =
        culzss_lzss::serial::compress(&data, &LzssConfig::dipperstein()).unwrap().len() as f64 / n;
    let bzip2 = culzss_bzip2::compress(&data).unwrap().len() as f64 / n;
    let (v1_bytes, _) = culzss::api::gpu_compress(&data, Version::V1).unwrap();
    let (v2_bytes, _) = culzss::api::gpu_compress(&data, Version::V2).unwrap();
    Table2Measured {
        dataset,
        serial,
        bzip2,
        v1: v1_bytes.len() as f64 / n,
        v2: v2_bytes.len() as f64 / n,
    }
}

/// One measured row of Table III (decompression seconds, scaled).
#[derive(Debug, Clone, Copy)]
pub struct Table3Measured {
    /// Dataset.
    pub dataset: Dataset,
    /// Serial LZSS decompression (measured × scale).
    pub serial: f64,
    /// CULZSS GPU decompression (modelled, scaled).
    pub culzss: f64,
}

/// Measures one Table III row.
pub fn measure_table3_row(dataset: Dataset, cfg: MeasureCfg) -> Table3Measured {
    let data = dataset.generate(cfg.bytes, cfg.seed);
    let scale = cfg.scale();
    let serial_cfg = LzssConfig::dipperstein();

    let compressed = culzss_lzss::serial::compress(&data, &serial_cfg).unwrap();
    let serial = time_min(cfg.reps, || {
        std::hint::black_box(culzss_lzss::serial::decompress(&compressed, &serial_cfg).unwrap());
    }) * scale;

    let culzss = Culzss::new(Version::V1);
    let device = culzss.device().clone();
    let (stream, _) = culzss.compress(&data).unwrap();
    let (_, stats) = culzss.decompress(&stream).unwrap();
    let launch = stats.launch.as_ref().expect("decompression launches a kernel");
    let gpu = launch.cost.work_cycles * scale / device.sm_count as f64 / device.clock_hz
        + transfer_seconds(&device, (stream.len() as f64 * scale) as usize)
        + transfer_seconds(&device, (data.len() as f64 * scale) as usize);

    Table3Measured { dataset, serial, culzss: gpu }
}

/// Figure 4: speedups of each implementation against serial LZSS.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Row {
    /// Dataset.
    pub dataset: Dataset,
    /// Pthread speedup over serial.
    pub pthread: f64,
    /// bzip2 speedup over serial.
    pub bzip2: f64,
    /// CULZSS V1 speedup over serial.
    pub v1: f64,
    /// CULZSS V2 speedup over serial.
    pub v2: f64,
}

impl Figure4Row {
    /// Derives the speedup series from a Table I row.
    pub fn from_table1(row: &Table1Measured) -> Self {
        Figure4Row {
            dataset: row.dataset,
            pthread: row.serial / row.pthread,
            bzip2: row.serial / row.bzip2,
            v1: row.serial / row.v1,
            v2: row.serial / row.v2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MeasureCfg {
        MeasureCfg {
            bytes: 256 * 1024,
            seed: 7,
            reps: 1,
            finder: FinderKind::HashChain,
            bwt: culzss_bzip2::bwt::Backend::SaIs,
        }
    }

    #[test]
    fn table1_row_is_sane() {
        let row = measure_table1_row(Dataset::HighlyCompressible, tiny());
        for v in [row.serial, row.pthread, row.bzip2, row.v1, row.v2] {
            assert!(v.is_finite() && v > 0.0, "{row:?}");
        }
        // Pthread beats serial on a multicore host.
        assert!(row.pthread < row.serial, "{row:?}");
    }

    #[test]
    fn table2_row_matches_direct_ratios() {
        let row = measure_table2_row(Dataset::HighlyCompressible, tiny());
        assert!(row.serial < 0.2);
        assert!(row.v2 < row.v1, "{row:?}");
        assert!(row.bzip2 < row.serial, "{row:?}");
    }

    #[test]
    fn table3_gpu_beats_serial_decompression() {
        let row = measure_table3_row(Dataset::CFiles, tiny());
        assert!(row.culzss > 0.0 && row.serial > 0.0);
        // Paper: 2.5–3.5× — accept any real speedup here; the repro
        // binary reports the exact factor.
        assert!(row.culzss < row.serial, "{row:?}");
    }

    #[test]
    fn figure4_derivation() {
        let row = Table1Measured {
            dataset: Dataset::CFiles,
            serial: 50.0,
            pthread: 10.0,
            bzip2: 20.0,
            v1: 7.0,
            v2: 4.0,
        };
        let fig = Figure4Row::from_table1(&row);
        assert_eq!(fig.pthread, 5.0);
        assert_eq!(fig.bzip2, 2.5);
        assert!((fig.v2 - 12.5).abs() < 1e-12);
    }

    #[test]
    fn finder_env_accepts_the_documented_values() {
        assert_eq!(finder_from_env(None), FinderKind::BruteForce);
        assert_eq!(finder_from_env(Some("brute".into())), FinderKind::BruteForce);
        assert_eq!(finder_from_env(Some("hash".into())), FinderKind::HashChain);
    }

    #[test]
    #[should_panic(expected = "CULZSS_FINDER=\"kmp\" is not a finder")]
    fn finder_env_rejects_a_removed_finder() {
        finder_from_env(Some("kmp".into()));
    }

    #[test]
    #[should_panic(expected = "CULZSS_FINDER=\"hahs\" is not a finder")]
    fn finder_env_rejects_a_typo() {
        finder_from_env(Some("hahs".into()));
    }

    #[test]
    fn default_cfg_reads_env() {
        let cfg = MeasureCfg::default();
        assert!(cfg.bytes >= 1 << 20);
        assert!(cfg.reps >= 1);
        assert!(cfg.scale() > 0.9);
    }
}
