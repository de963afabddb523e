//! Property tests for the simulator's analytics.
//!
//! Invariants:
//! * coalescing: 1 ≤ transactions ≤ accesses for any non-empty warp
//!   instruction; adding an access never reduces the count; the closed
//!   forms agree with the exact analysis on uniform strides;
//! * bank conflicts: 1 ≤ ways ≤ min(warp, banks); broadcast is free;
//! * occupancy: fraction ∈ (0, 1], monotone in grid size;
//! * cost: more work never costs fewer cycles; determinism.

use culzss_gpusim::coalesce::{
    shared_conflict_cycles, strided_conflict_ways, strided_transactions, transactions_for_warp,
    Access, BankCounts,
};
use culzss_gpusim::cost::cost_launch;
use culzss_gpusim::device::DeviceSpec;
use culzss_gpusim::meter::BlockMetrics;
use culzss_gpusim::occupancy::occupancy;
use proptest::prelude::*;

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (0u64..1 << 20, 1u32..16).prop_map(|(addr, bytes)| Access { addr, bytes }),
        1..32,
    )
}

fn warp_txns(acc: &[Access]) -> u64 {
    transactions_for_warp(&mut acc.to_vec(), 128)
}

fn warp_ways(acc: &[Access]) -> u64 {
    shared_conflict_cycles(&mut acc.to_vec(), &mut BankCounts::new(32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transactions_bounded(acc in accesses()) {
        let txns = warp_txns(&acc);
        prop_assert!(txns >= 1);
        // Each access touches at most ceil(bytes/128)+1 segments.
        let upper: u64 = acc.iter().map(|a| u64::from(a.bytes) / 128 + 2).sum();
        prop_assert!(txns <= upper, "{txns} > {upper}");
    }

    #[test]
    fn transactions_monotone_under_extension(acc in accesses(), extra in 0u64..1 << 20) {
        let base = warp_txns(&acc);
        let mut more = acc.clone();
        more.push(Access { addr: extra, bytes: 4 });
        prop_assert!(warp_txns(&more) >= base);
    }

    #[test]
    fn closed_form_matches_exact_for_uniform_strides(
        base in 0u64..4096,
        threads in 1u64..33,
        bytes in 1u64..9,
        stride_mult in 0u64..5,
    ) {
        let stride = bytes + stride_mult * 8;
        let acc: Vec<Access> = (0..threads)
            .map(|t| Access { addr: base + t * stride, bytes: bytes as u32 })
            .collect();
        prop_assert_eq!(
            warp_txns(&acc),
            strided_transactions(base, threads, bytes, stride, 128)
        );
    }

    #[test]
    fn conflict_ways_bounded(acc in accesses()) {
        let ways = warp_ways(&acc);
        prop_assert!(ways >= 1);
        // Cannot exceed the number of distinct words touched.
        let mut words: Vec<u64> = acc
            .iter()
            .flat_map(|a| (a.addr / 4)..=((a.addr + u64::from(a.bytes) - 1) / 4))
            .collect();
        words.sort_unstable();
        words.dedup();
        prop_assert!(ways <= words.len() as u64);
    }

    #[test]
    fn broadcast_is_conflict_free(addr in 0u64..1 << 16, lanes in 1usize..32) {
        let acc: Vec<Access> = (0..lanes).map(|_| Access { addr, bytes: 4 }).collect();
        prop_assert_eq!(warp_ways(&acc), 1);
    }

    #[test]
    fn strided_conflicts_bounded(threads in 1u64..33, stride in 1u64..256) {
        let ways = strided_conflict_ways(threads, stride, 32);
        prop_assert!(ways >= 1 && ways <= threads.min(32));
    }

    #[test]
    fn occupancy_fraction_in_range(
        grid in 1usize..100_000,
        block_pow in 5u32..10,
        shared in 0usize..16 * 1024,
    ) {
        let device = DeviceSpec::gtx480();
        let o = occupancy(&device, grid, 1 << block_pow, shared);
        prop_assert!(o.fraction > 0.0 && o.fraction <= 1.0);
        prop_assert!(o.blocks_per_sm >= 1);
        prop_assert!(o.warps_per_sm >= 1);
    }

    #[test]
    fn occupancy_monotone_in_grid(block_pow in 5u32..10, shared in 0usize..8 * 1024) {
        let device = DeviceSpec::gtx480();
        let mut last = 0.0f64;
        for grid in [1usize, 8, 15, 60, 480, 10_000] {
            let o = occupancy(&device, grid, 1 << block_pow, shared);
            prop_assert!(o.fraction + 1e-12 >= last);
            last = o.fraction;
        }
    }

    #[test]
    fn cost_monotone_in_work(ops in 1.0f64..1e8, txns in 0.0f64..1e6) {
        let device = DeviceSpec::gtx480();
        let mk = |ops: f64, txns: f64| BlockMetrics {
            warp_issue_ops: ops,
            global_transactions: txns,
            blocks: 1,
            block_dim: 128,
            ..Default::default()
        };
        let grid = 30usize;
        let small = cost_launch(&device, grid, 128, 0, &vec![mk(ops, txns); grid]);
        let big = cost_launch(&device, grid, 128, 0, &vec![mk(ops * 2.0, txns); grid]);
        prop_assert!(big.cycles + 1e-9 >= small.cycles);
        let more_mem = cost_launch(&device, grid, 128, 0, &vec![mk(ops, txns + 100.0); grid]);
        prop_assert!(more_mem.cycles + 1e-9 >= small.cycles);
    }

    #[test]
    fn cost_deterministic(ops in 1.0f64..1e7) {
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> = (0..17)
            .map(|i| BlockMetrics {
                warp_issue_ops: ops * (1.0 + i as f64 * 0.1),
                blocks: 1,
                block_dim: 64,
                ..Default::default()
            })
            .collect();
        let a = cost_launch(&device, blocks.len(), 64, 0, &blocks);
        let b = cost_launch(&device, blocks.len(), 64, 0, &blocks);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.seconds, b.seconds);
    }
}
