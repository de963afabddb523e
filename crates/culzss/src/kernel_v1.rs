//! CULZSS Version 1: one chunk per thread.
//!
//! "The data is divided into chunks and distributed among blocks. Each
//! thread in the thread block receives a small portion of the input data
//! and works on its own to compress that piece. … The compressed data is
//! being overwritten onto each given chunk" — i.e. every thread runs the
//! full serial LZSS over a private 4 KB chunk, with its private 128-byte
//! window held in shared memory (one 16 KB arena = 128 threads × 128 B),
//! and writes into a per-thread bucket. Bucket compaction happens on the
//! CPU afterwards ([`crate::api`]).
//!
//! Performance characteristics modelled:
//!
//! * per-thread input reads are *uncoalesced* (each lane of a warp reads
//!   from a chunk 4 KB away from its neighbour's);
//! * per-thread windows sit at `window_size`-byte stride in shared
//!   memory, which on a 32-bank Fermi part makes every warp access a
//!   full 32-way bank conflict (stride 128 B ⇒ same bank) — shared memory
//!   still beats the uncached-global alternative, the paper's "30 %
//!   speed up over the global memory implementation";
//! * match-skipping applies within each thread, so highly compressible
//!   data runs dramatically faster (Table I's 0.49 s row).

use culzss_gpusim::coalesce::strided_conflict_ways;
use culzss_gpusim::exec::{BlockCtx, BlockKernel};
use culzss_lzss::config::LzssConfig;
use culzss_lzss::format;

use crate::metered::{greedy_parse_into, OPS_PER_TOKEN};
use crate::params::CulzssParams;
use crate::pipeline::BufferPool;

/// The V1 compression kernel.
pub struct V1Kernel<'a> {
    /// Whole input buffer (device global memory).
    pub input: &'a [u8],
    /// Run parameters.
    pub params: &'a CulzssParams,
    /// Token configuration derived from the parameters.
    pub config: LzssConfig,
    /// Shared-memory bank count of the device (for the conflict model).
    pub shared_banks: usize,
    /// Warp width of the device.
    pub warp_size: usize,
    /// Recycled-buffer pool for token scratch and bucket bodies.
    pub pool: &'a BufferPool,
}

impl<'a> V1Kernel<'a> {
    /// Builds the kernel for `input` under `params` on a device with the
    /// given warp/bank geometry, drawing token scratch and bucket bodies
    /// from `pool`.
    pub fn new(
        input: &'a [u8],
        params: &'a CulzssParams,
        warp_size: usize,
        shared_banks: usize,
        pool: &'a BufferPool,
    ) -> Self {
        Self { input, params, config: params.lzss_config(), shared_banks, warp_size, pool }
    }

    fn chunk_of(&self, global_tid: usize) -> Option<&'a [u8]> {
        let start = global_tid * self.params.chunk_size;
        if start >= self.input.len() {
            return None;
        }
        let end = (start + self.params.chunk_size).min(self.input.len());
        Some(&self.input[start..end])
    }
}

impl BlockKernel for V1Kernel<'_> {
    /// Per-thread compressed bucket bodies (empty for out-of-range
    /// threads), in thread order.
    type Output = Vec<Vec<u8>>;

    fn run_block(&self, block: &mut BlockCtx) -> Vec<Vec<u8>> {
        let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); block.block_dim];
        // Window buffers: per-thread windows spaced `window_size` bytes
        // apart in the shared arena — the conflict degree follows from
        // that stride.
        let ways = strided_conflict_ways(
            self.warp_size as u64,
            self.params.window_size as u64,
            self.shared_banks as u64,
        );
        block.par_threads(|t| {
            let Some(chunk) = self.chunk_of(t.global_tid()) else {
                return;
            };
            // Each thread streams its own chunk from global memory. The
            // lanes of a warp sit a whole chunk apart (uncoalesced), but
            // the reads are sequential per lane, so Fermi's L1 turns them
            // into one transaction per cache line plus cached hits. This
            // assumes a line-padded chunk layout — naively 4 KB-aligned
            // chunks would alias into one L1 set and thrash (see the
            // teaching tests in culzss_gpusim::cache).
            t.global_bulk(chunk.len() as u64, 128, false);
            t.global_cached_bulk(chunk.len() as u64);

            let mut tokens = self.pool.acquire_tokens();
            let work = greedy_parse_into(chunk, &self.config, &mut tokens);
            t.charge_ops(work.ops() + tokens.len() as u64 * OPS_PER_TOKEN);
            if self.params.use_shared_memory {
                // Stage this thread's private window region with one exact
                // ranged write: it hands the sanitizer the byte-range
                // ownership map (per-thread windows must be disjoint)
                // while the search loop's byte traffic stays on the
                // closed-form bulk path below.
                t.shared_write(
                    (t.tid * self.params.window_size) as u64,
                    self.params.window_size as u32,
                );
                t.shared_bulk(work.accesses(), ways);
            } else {
                // Pre-optimization variant: the window lives in (L1
                // cached) global memory.
                t.global_cached_bulk(work.accesses());
            }

            let mut body = self.pool.acquire_bytes();
            format::encode_into(&tokens, &self.config, &mut body);
            self.pool.release_tokens(tokens);
            // Bucket write-back: per-thread scattered but sequential, so
            // write-combined into line-sized transactions.
            t.global_bulk(body.len() as u64, 128, false);
            buckets[t.tid] = body;
        });
        buckets
    }
}

/// Runs the V1 kernel over `input` and returns the per-chunk compressed
/// bodies in chunk order plus the launch statistics. Token scratch and
/// bucket bodies come from `pool`; the caller returns the bodies via
/// [`BufferPool::release_all_bytes`] once the container is assembled.
pub fn run_pooled(
    sim: &culzss_gpusim::GpuSim,
    input: &[u8],
    params: &CulzssParams,
    pool: &BufferPool,
) -> Result<(Vec<Vec<u8>>, culzss_gpusim::exec::LaunchStats), culzss_gpusim::exec::LaunchError> {
    let device = sim.device();
    let kernel = V1Kernel::new(input, params, device.warp_size, device.shared_banks, pool);
    let result = sim.launch(params.launch_config(input.len()), &kernel)?;
    let bodies = collect_bodies(result.outputs, params.chunk_count(input.len()));
    Ok((bodies, result.stats))
}

/// [`run_pooled`] over a pool of its own, for one-off callers that keep
/// no pool across calls.
pub fn run(
    sim: &culzss_gpusim::GpuSim,
    input: &[u8],
    params: &CulzssParams,
) -> Result<(Vec<Vec<u8>>, culzss_gpusim::exec::LaunchStats), culzss_gpusim::exec::LaunchError> {
    run_pooled(sim, input, params, &BufferPool::new())
}

fn collect_bodies(outputs: Vec<Vec<Vec<u8>>>, chunk_count: usize) -> Vec<Vec<u8>> {
    let mut bodies = Vec::with_capacity(chunk_count);
    for block in outputs {
        for bucket in block {
            if bodies.len() < chunk_count {
                bodies.push(bucket);
            }
        }
    }
    debug_assert_eq!(bodies.len(), chunk_count);
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_gpusim::{DeviceSpec, GpuSim};
    use culzss_lzss::serial;

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(4)
    }

    #[test]
    fn bodies_match_serial_per_chunk_compression() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let input = b"coarse grained parallel compression of chunks ".repeat(400);
        let (bodies, _) = run(&sim(), &input, &params).unwrap();
        assert_eq!(bodies.len(), params.chunk_count(input.len()));
        for (i, chunk) in input.chunks(params.chunk_size).enumerate() {
            let expected = format::encode(&serial::tokenize(chunk, &config), &config);
            assert_eq!(bodies[i], expected, "chunk {i}");
        }
    }

    #[test]
    fn roundtrip_through_decode() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let input = b"roundtrip with partial tail chunk!".repeat(321);
        let (bodies, _) = run(&sim(), &input, &params).unwrap();
        let mut restored = Vec::new();
        for (i, chunk) in input.chunks(params.chunk_size).enumerate() {
            serial::decode_body_into(&bodies[i], &config, chunk.len(), &mut restored).unwrap();
        }
        assert_eq!(restored, input);
    }

    #[test]
    fn empty_input_launches_empty_grid() {
        let params = CulzssParams::v1();
        let (bodies, stats) = run(&sim(), b"", &params).unwrap();
        assert!(bodies.is_empty());
        assert_eq!(stats.grid_dim, 0);
    }

    #[test]
    fn shared_memory_beats_uncached_global_in_the_model() {
        let input = culzss_datasets::Dataset::CFiles.generate(256 * 1024, 7);
        let shared = CulzssParams::v1();
        let mut global = CulzssParams::v1();
        global.use_shared_memory = false;

        let (_, s_stats) = run(&sim(), &input, &shared).unwrap();
        let (_, g_stats) = run(&sim(), &input, &global).unwrap();
        // The paper reports ≈30 % speedup from the shared-memory move;
        // the model should agree on the direction with a sane magnitude.
        let speedup = g_stats.kernel_seconds / s_stats.kernel_seconds;
        assert!((1.05..=2.5).contains(&speedup), "shared-memory speedup {speedup} out of band");
    }

    #[test]
    fn highly_compressible_is_much_faster_than_text() {
        let text = culzss_datasets::Dataset::CFiles.generate(128 * 1024, 3);
        let highly = culzss_datasets::Dataset::HighlyCompressible.generate(128 * 1024, 3);
        let params = CulzssParams::v1();
        let (_, t_stats) = run(&sim(), &text, &params).unwrap();
        let (_, h_stats) = run(&sim(), &highly, &params).unwrap();
        // Table I: 7.28 s vs 0.49 s (≈15×). Accept a broad band.
        let ratio = t_stats.kernel_seconds / h_stats.kernel_seconds;
        assert!(ratio > 4.0, "text/highly kernel ratio {ratio}");
    }

    #[test]
    fn grid_and_warp_metrics_are_populated() {
        let params = CulzssParams::v1();
        let input = vec![42u8; 4096 * 256];
        let (_, stats) = run(&sim(), &input, &params).unwrap();
        assert_eq!(stats.grid_dim, 2);
        assert_eq!(stats.block_dim, 128);
        assert!(stats.metrics.global_transactions > 0.0);
        assert!(stats.metrics.shared_cycles > 0.0);
        assert!(stats.metrics.warp_issue_ops > 0.0);
    }
}
