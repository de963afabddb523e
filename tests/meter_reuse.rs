//! Meter reuse is invisible: each launch worker hands one `BlockMeter`
//! from block to block, so a launch must report the same per-block
//! metrics and the same sanitizer findings whether one worker runs every
//! block, two workers share them, or every block gets its own worker.
//!
//! Covered: a racy, divergent fixture kernel whose blocks differ in
//! shape (so state leaking from one block into the next would show), the
//! V1, V2 and V3 compression kernels, and the warp-parallel decoder.

use culzss::pipeline::BufferPool;
use culzss::{kernel_v1, kernel_v2, v3, Culzss, CulzssParams, DecodeEngine};
use culzss_datasets::Dataset;
use culzss_gpusim::exec::{BlockCtx, BlockKernel, LaunchStats};
use culzss_gpusim::{BlockMetrics, DeviceSpec, GpuSim, LaunchConfig, SanitizerReport};

type Observed = (Vec<BlockMetrics>, SanitizerReport);

/// Runs `launch` with 1, 2 and `grid_dim` workers and asserts every run
/// observes exactly what the single-worker run did.
fn assert_worker_invariant(what: &str, launch: impl Fn(usize) -> Observed) {
    let (reference, findings) = launch(1);
    let grid_dim = reference.len();
    assert!(grid_dim >= 3, "{what}: needs several blocks per worker, got {grid_dim}");
    for workers in [2, grid_dim] {
        let (per_block, report) = launch(workers);
        assert_eq!(per_block, reference, "{what}: per-block metrics differ at {workers} workers");
        assert_eq!(report, findings, "{what}: sanitizer findings differ at {workers} workers");
    }
}

fn sim(workers: usize) -> GpuSim {
    GpuSim::new(DeviceSpec::gtx480()).with_workers(workers)
}

fn observed(stats: LaunchStats, report: SanitizerReport) -> Observed {
    (stats.per_block, report)
}

/// Blocks vary in stride, access count, race and early exit: even blocks
/// race on a shared counter, odd blocks exit a tail of threads before a
/// later barrier (divergence), and each block logs a different number of
/// global and shared accesses per lane.
struct RacyFixture;

impl BlockKernel for RacyFixture {
    type Output = ();

    fn run_block(&self, block: &mut BlockCtx) {
        let b = block.block_idx as u64;
        let stride = [1u64, 4, 64, 128, 132][block.block_idx % 5];
        block.par_threads(|t| {
            let tid = t.tid as u64;
            for k in 0..=(b + tid) % 3 {
                t.global_read(b * 4096 + tid * stride + k * 128, 4);
                t.shared_write(256 + (tid * stride + k) % 1024, 1 + (k as u32 % 3));
            }
            if b.is_multiple_of(2) && tid.is_multiple_of(b + 2) {
                t.shared_write(0, 4);
            }
            if b % 2 == 1 && tid >= 40 + b {
                t.exit_thread();
            }
        });
        block.par_threads(|t| {
            t.shared_read(256, 128);
            t.charge_ops(b + t.tid as u64 % 7);
        });
        if b.is_multiple_of(3) {
            // A trailing un-barriered access: flushed by `finish_block`.
            block.single_thread(|t| t.shared_read(0, 4));
        }
    }
}

#[test]
fn racy_fixture_metrics_and_findings_do_not_depend_on_workers() {
    assert_worker_invariant("racy fixture", |workers| {
        let result = sim(workers)
            .with_sanitizer()
            .launch(LaunchConfig::new(7, 64).with_shared(2048), &RacyFixture);
        let stats = result.unwrap().stats;
        let sanitizer = stats.sanitizer.clone().unwrap();
        assert!(!sanitizer.is_clean(), "the fixture must race and diverge");
        observed(stats, sanitizer)
    });
}

#[test]
fn compression_kernels_do_not_depend_on_workers() {
    let input = Dataset::CFiles.generate(48 * 1024, 7);
    // Small V1 chunks and blocks so the launch spans several blocks.
    let v1 = CulzssParams { chunk_size: 512, threads_per_block: 32, ..CulzssParams::v1() };
    assert_worker_invariant("V1", |workers| {
        let sim = sim(workers).with_sanitizer();
        let (_, stats) = kernel_v1::run_pooled(&sim, &input, &v1, &BufferPool::new()).unwrap();
        observed(stats.clone(), stats.sanitizer.unwrap())
    });
    assert_worker_invariant("V2", |workers| {
        let (_, stats) =
            kernel_v2::run(&sim(workers).with_sanitizer(), &input, &CulzssParams::v2()).unwrap();
        observed(stats.clone(), stats.sanitizer.unwrap())
    });
    assert_worker_invariant("V3", |workers| {
        let sim = sim(workers).with_sanitizer();
        let (_, stats) =
            v3::run_pooled(&sim, &input, &CulzssParams::v3(), &BufferPool::new()).unwrap();
        observed(stats.clone(), stats.sanitizer.unwrap())
    });
}

#[test]
fn warp_decoder_does_not_depend_on_workers() {
    let input = Dataset::CFiles.generate(48 * 1024, 7);
    let params = CulzssParams { decode_engine: DecodeEngine::WarpParallel, ..CulzssParams::v2() };
    let (stream, _) =
        Culzss::with_device(DeviceSpec::gtx480(), params.clone()).compress(&input).unwrap();
    assert_worker_invariant("warp decoder", |workers| {
        let culzss = Culzss::with_device(DeviceSpec::gtx480(), params.clone())
            .with_workers(workers)
            .with_sanitizer();
        let (out, stats) = culzss.decompress_auto(&stream).unwrap();
        assert_eq!(out, input);
        let launch = stats.launch.expect("the warp decoder runs a kernel");
        observed(launch.clone(), launch.sanitizer.unwrap())
    });
}
