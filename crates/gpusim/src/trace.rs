//! Modelled execution timelines.
//!
//! [`Timeline::from_launch`] reconstructs the cost model's view of a
//! launch — which block ran on which SM, when — giving the simulated GPU
//! the observability a real one gets from profilers. This module keeps
//! only that schedule; the server's tracer (`culzss_server::tracing`)
//! turns its [`BlockSpan`]s into trace spans and writes the one
//! Chrome-trace export, merged with the host spans.

use crate::cost::{block_cycles, transaction_cycles};
use crate::device::DeviceSpec;
use crate::meter::BlockMetrics;
use crate::occupancy::occupancy;

/// One block's modelled execution interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpan {
    /// Block index in the grid.
    pub block_idx: usize,
    /// SM the scheduler placed it on.
    pub sm: usize,
    /// Start offset in seconds from launch.
    pub start: f64,
    /// Duration in seconds.
    pub duration: f64,
    /// Whether this block was memory-bound.
    pub memory_bound: bool,
}

/// A modelled launch timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-block spans, in block order.
    pub spans: Vec<BlockSpan>,
    /// Total modelled duration (seconds).
    pub total_seconds: f64,
    /// SM count of the device (rows in the visualization).
    pub sm_count: usize,
}

impl Timeline {
    /// Reconstructs the cost model's schedule: blocks round-robin over
    /// SMs, executing back-to-back per SM. Shares the per-block and
    /// per-transaction arithmetic with [`crate::cost::cost_launch`]
    /// (see the differential test below), so
    /// `total_seconds == cost.seconds - device.launch_overhead`.
    pub fn from_launch(
        device: &DeviceSpec,
        block_dim: usize,
        shared_bytes: usize,
        per_block: &[BlockMetrics],
    ) -> Timeline {
        let occ = occupancy(device, per_block.len(), block_dim, shared_bytes);
        let per_transaction = transaction_cycles(device, occ.fraction);

        let mut sm_clock = vec![0.0f64; device.sm_count];
        let mut spans = Vec::with_capacity(per_block.len());
        for (i, m) in per_block.iter().enumerate() {
            let (compute, memory) = block_cycles(device, m, per_transaction);
            let cycles = compute.max(memory);
            let sm = i % device.sm_count;
            let start = sm_clock[sm] / device.clock_hz;
            let duration = cycles / device.clock_hz;
            sm_clock[sm] += cycles;
            spans.push(BlockSpan {
                block_idx: i,
                sm,
                start,
                duration,
                memory_bound: memory > compute,
            });
        }
        let total_seconds = sm_clock.iter().cloned().fold(0.0, f64::max) / device.clock_hz;
        Timeline { spans, total_seconds, sm_count: device.sm_count }
    }

    /// SM utilization: busy time over `sm_count × makespan`.
    pub fn utilization(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.spans.iter().map(|s| s.duration).sum();
        busy / (self.total_seconds * self.sm_count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ops: f64) -> BlockMetrics {
        BlockMetrics { warp_issue_ops: ops, blocks: 1, block_dim: 128, ..Default::default() }
    }

    #[test]
    fn spans_are_contiguous_per_sm() {
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> = (0..45).map(|i| metrics(1000.0 + i as f64)).collect();
        let timeline = Timeline::from_launch(&device, 128, 0, &blocks);
        assert_eq!(timeline.spans.len(), 45);
        // Per SM, spans must tile without overlap.
        for sm in 0..device.sm_count {
            let mut cursor = 0.0f64;
            for span in timeline.spans.iter().filter(|s| s.sm == sm) {
                assert!((span.start - cursor).abs() < 1e-12, "gap on SM {sm}");
                cursor = span.start + span.duration;
            }
        }
    }

    #[test]
    fn total_matches_cost_model() {
        use crate::cost::cost_launch;
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> =
            (0..64).map(|i| metrics(500.0 * (1 + i % 5) as f64)).collect();
        let timeline = Timeline::from_launch(&device, 128, 0, &blocks);
        let cost = cost_launch(&device, blocks.len(), 128, 0, &blocks);
        // cost adds launch overhead on top of the cycle makespan.
        assert!((timeline.total_seconds - (cost.seconds - device.launch_overhead)).abs() < 1e-12);
    }

    #[test]
    fn total_matches_cost_model_across_configs() {
        // Differential guard: the timeline reconstruction and the cost
        // model price launches through the same shared helpers; this
        // sweep (grids, block dims, shared allocations, memory-heavy
        // and compute-heavy blocks) pins that they cannot drift apart.
        use crate::cost::cost_launch;
        for device in [DeviceSpec::gtx480(), DeviceSpec::gtx280()] {
            for grid in [1usize, 7, 64, 200] {
                for block_dim in [32usize, 128, 256] {
                    for shared in [0usize, 4096, 16384] {
                        if shared > device.shared_mem_per_block {
                            continue;
                        }
                        let blocks: Vec<BlockMetrics> = (0..grid)
                            .map(|i| BlockMetrics {
                                warp_issue_ops: 100.0 * (1 + i % 7) as f64,
                                global_transactions: (250 * (i % 3)) as f64,
                                shared_cycles: (i % 2) as f64 * 64.0,
                                cached_accesses: (i * 11 % 97) as u64,
                                barriers: (i % 5) as u64,
                                blocks: 1,
                                block_dim,
                                ..Default::default()
                            })
                            .collect();
                        let timeline = Timeline::from_launch(&device, block_dim, shared, &blocks);
                        let cost = cost_launch(&device, grid, block_dim, shared, &blocks);
                        let expect = cost.seconds - device.launch_overhead;
                        assert!(
                            (timeline.total_seconds - expect).abs() <= 1e-12 * expect.max(1.0),
                            "grid {grid} block {block_dim} shared {shared}: \
                             timeline {} vs cost {expect}",
                            timeline.total_seconds,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let device = DeviceSpec::gtx480();
        // One giant block: 1/sm_count utilization.
        let blocks = vec![metrics(1e6)];
        let t = Timeline::from_launch(&device, 128, 0, &blocks);
        assert!((t.utilization() - 1.0 / device.sm_count as f64).abs() < 1e-9);

        // Perfectly balanced full wave: ~1.0.
        let blocks: Vec<BlockMetrics> = (0..device.sm_count).map(|_| metrics(1e6)).collect();
        let t = Timeline::from_launch(&device, 128, 0, &blocks);
        assert!((t.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_launch_yields_empty_timeline() {
        let device = DeviceSpec::gtx480();
        let t = Timeline::from_launch(&device, 128, 0, &[]);
        assert!(t.spans.is_empty());
        assert_eq!(t.total_seconds, 0.0);
        assert_eq!(t.utilization(), 0.0);
    }
}
