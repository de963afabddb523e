//! HPC checkpoint compression with CPU/GPU overlap and multi-GPU
//! scaling — the paper's §VI application sketch ("long-running
//! applications checkpoint their state to disk for restarting") combined
//! with two of its future-work items (pipelined overlap, multi-GPU).
//!
//! ```text
//! cargo run --release --example checkpoint_pipeline
//! ```

use culzss::{pipeline, Culzss, CulzssParams, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::multi::MultiGpu;
use culzss_gpusim::DeviceSpec;

/// Simulated checkpoint: raster-like field data (large coherent regions),
/// the paper's DE-map analogue.
const CHECKPOINT_BYTES: usize = 8 << 20;

fn main() {
    let checkpoint = Dataset::DeMap.generate(CHECKPOINT_BYTES, 0xC8E);
    println!("checkpoint: {} MiB of field data\n", CHECKPOINT_BYTES >> 20);

    // Baseline: single simulated GTX 480, sequential pipeline.
    let culzss = Culzss::new(Version::V1);
    let (compressed, stats) = culzss.compress(&checkpoint).expect("compress");
    println!("single GPU (V1): ratio {:.1}%", stats.ratio() * 100.0);
    println!(
        "  sequential pipeline : {:>8.3} ms (H2D {:.3} + kernel {:.3} + D2H {:.3} + CPU {:.3})",
        stats.modeled_total_seconds() * 1e3,
        stats.h2d_seconds * 1e3,
        stats.kernel_seconds * 1e3,
        stats.d2h_seconds * 1e3,
        stats.cpu_seconds * 1e3,
    );

    // Future work §VII: hide the CPU steps behind the kernel by slicing
    // the checkpoint and pipelining the stages.
    for slices in [4usize, 16, 64] {
        let report = pipeline::overlap(&stats, slices);
        println!(
            "  pipelined ({slices:>2} slices): {:>8.3} ms  ({:.2}x)",
            report.pipelined_seconds * 1e3,
            report.speedup
        );
    }

    // Future work §VII: "a multi GPU implementation can also increase the
    // performance" — split the chunk grid across two simulated devices.
    let params = CulzssParams::v1();
    let chunks = params.chunk_count(checkpoint.len());
    let multi = MultiGpu::new(vec![DeviceSpec::gtx480(), DeviceSpec::gtx480()]);
    let result = multi
        .launch_partitioned(
            params.grid_dim(checkpoint.len()),
            params.threads_per_block,
            params.shared_bytes(),
            |range| {
                // V1 blocks own `threads_per_block` consecutive chunks, so
                // the per-device kernel simply sees a shifted input window.
                let offset_bytes = range.start * params.threads_per_block * params.chunk_size;
                V1Slice { data: &checkpoint, params: params.clone(), offset_bytes }
            },
        )
        .expect("multi-GPU launch");
    println!(
        "\ntwo GPUs: kernel {:>8.3} ms (vs {:>8.3} ms on one) across {} chunks",
        result.kernel_seconds * 1e3,
        stats.kernel_seconds * 1e3,
        chunks
    );

    // Restore and verify.
    let (restored, _) = culzss.decompress(&compressed).expect("decompress");
    assert_eq!(restored, checkpoint);
    println!("restore: OK ({} bytes)", restored.len());
}

/// A V1 kernel over a byte-shifted window of the checkpoint.
struct V1Slice<'a> {
    data: &'a [u8],
    params: CulzssParams,
    offset_bytes: usize,
}

impl culzss_gpusim::BlockKernel for V1Slice<'_> {
    type Output = usize;
    fn run_block(&self, block: &mut culzss_gpusim::BlockCtx) -> usize {
        let slice = &self.data[self.offset_bytes.min(self.data.len())..];
        let pool = culzss::pipeline::BufferPool::new();
        let inner = culzss::kernel_v1::V1Kernel::new(slice, &self.params, 32, 32, &pool);
        let buckets = inner.run_block(block);
        buckets.iter().map(|b| b.len()).sum()
    }
}
