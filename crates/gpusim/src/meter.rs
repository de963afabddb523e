//! Per-block performance metering.
//!
//! A [`BlockMeter`] rides along with every simulated thread block. Threads
//! report arithmetic and memory activity through their
//! [`crate::exec::ThreadCtx`]; at each barrier the meter reduces the
//! per-thread logs into warp-level quantities using the analytics in
//! [`crate::coalesce`]. The result is a [`BlockMetrics`] that the cost
//! model converts to cycles.
//!
//! Four accounting paths exist:
//!
//! * **exact** — `global_read`/`shared_read` log individual accesses; at
//!   the barrier, the k-th access of each thread in a warp is treated as
//!   one warp-wide memory instruction (the standard lockstep
//!   approximation) and analyzed for coalescing/conflicts.
//! * **bulk** — hot inner loops declare their aggregate pattern
//!   (`charge_ops`, `shared_bulk`, `global_bulk`); the same formulas are
//!   applied in closed form. This keeps simulation time proportional to
//!   the real algorithm, not to the number of modelled accesses.
//! * **replayed** — phases whose accesses depend only on the block's
//!   shape are priced exactly once per shape and their metric delta is
//!   added from then on ([`crate::replay`]).
//! * **memory-replayed** — a phase whose ops follow the data but whose
//!   accesses do not replays only its memory ([`crate::replay`]): on a
//!   hit a logged access charges its issue op and nothing else, and on a
//!   miss the logged accesses are priced into a side sum kept apart from
//!   the bulk charges.
//!
//! The exact path allocates nothing once warm. Each launch worker owns one
//! meter and hands it from block to block ([`BlockMeter::finish_block`]
//! rearms it), so the per-thread logs keep their capacity. At a barrier
//! every warp instruction is gathered into one reused scratch buffer,
//! visiting only the lanes that still hold accesses, and priced in place
//! by [`crate::coalesce`] with a single per-bank counter array.
//!
//! A barrier costs the accesses it prices, not the block's width: warps
//! whose lanes did nothing this phase are skipped, and once a single lane
//! of a warp still holds accesses (a lone copy loop, say) each remaining
//! instruction is that one access, priced directly without a gather. A
//! phase that pushed no access into a log (a memory-replay hit, or one
//! that only charged ops and bulk) skips the log walk altogether. Shared
//! instructions whose lanes each touch one or two words have their bank
//! conflicts counted without a sort ([`crate::coalesce::BankCounts`]).

use crate::coalesce::{shared_conflict_cycles, transactions_for_warp, Access, BankCounts};
use crate::sanitizer::{AccessKind, BlockSanitizerReport, SanitizerState};

/// Aggregated, cost-model-ready metrics for one block (or, after
/// [`BlockMetrics::merge`], for many).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockMetrics {
    /// Warp-serialized instruction issues: Σ over warps and phases of the
    /// maximum per-thread op count in that warp (lockstep execution makes
    /// the warp as slow as its busiest thread).
    pub warp_issue_ops: f64,
    /// Raw per-thread op total (for utilization/divergence diagnostics).
    pub thread_ops: u64,
    /// Global-memory transactions after coalescing.
    pub global_transactions: f64,
    /// Global-memory bytes actually requested by threads.
    pub global_bytes: u64,
    /// Serialized shared-memory cycles (bank conflicts included).
    pub shared_cycles: f64,
    /// Shared-memory accesses before serialization (diagnostics).
    pub shared_accesses: u64,
    /// L1-cached global accesses charged through the cached bulk path.
    pub cached_accesses: u64,
    /// Barrier count (each `par_threads` phase ends in one).
    pub barriers: u64,
    /// Number of blocks merged into this metric set.
    pub blocks: u64,
    /// Largest shared-memory allocation seen in any block (bytes).
    pub shared_mem_used: usize,
    /// Block size in threads (largest seen on merge).
    pub block_dim: usize,
}

impl BlockMetrics {
    /// Folds `other` into `self` (used to aggregate a whole launch).
    pub fn merge(&mut self, other: &BlockMetrics) {
        self.warp_issue_ops += other.warp_issue_ops;
        self.thread_ops += other.thread_ops;
        self.global_transactions += other.global_transactions;
        self.global_bytes += other.global_bytes;
        self.shared_cycles += other.shared_cycles;
        self.shared_accesses += other.shared_accesses;
        self.cached_accesses += other.cached_accesses;
        self.barriers += other.barriers;
        self.blocks += other.blocks;
        self.shared_mem_used = self.shared_mem_used.max(other.shared_mem_used);
        self.block_dim = self.block_dim.max(other.block_dim);
    }

    /// Warp-execution divergence indicator: 1.0 means perfectly balanced
    /// warps, larger values mean issue slots wasted on idle lanes.
    pub fn divergence_factor(&self, warp_size: usize) -> f64 {
        if self.thread_ops == 0 {
            return 1.0;
        }
        (self.warp_issue_ops * warp_size as f64) / self.thread_ops as f64
    }
}

/// Where a phase run's logged accesses are priced (see
/// [`crate::replay`]).
#[derive(Debug)]
pub(crate) enum MemoryMode {
    /// Into the block's metrics.
    Exact,
    /// Into this side sum, which the caller adds to the block's metrics
    /// and stores: a memory replay that missed the memo.
    Recorded(BlockMetrics),
    /// Nowhere: each access charges only its issue op, and the caller
    /// adds the stored delta: a memory replay that hit the memo.
    Replayed,
}

/// Live metering state for one executing block; reusable across blocks
/// of the same geometry.
#[derive(Debug)]
pub struct BlockMeter {
    warp_size: usize,
    block_dim: usize,
    /// Per-thread op counter for the current phase.
    phase_ops: Vec<u64>,
    /// Per-thread logged global accesses for the current phase.
    phase_global: Vec<Vec<Access>>,
    /// Per-thread logged shared accesses for the current phase.
    phase_shared: Vec<Vec<Access>>,
    metrics: BlockMetrics,
    transaction_bytes: u64,
    /// Scratch for assembling warp instructions at a barrier.
    scratch: InstructionScratch,
    /// Scratch: per-bank distinct-word counters for conflict pricing.
    bank_counts: BankCounts,
    /// Racecheck state; present only on an armed simulator
    /// ([`crate::exec::GpuSim::with_sanitizer`]).
    sanitizer: Option<Box<SanitizerState>>,
    /// Where logged accesses are priced; never `Replayed` while armed.
    memory: MemoryMode,
    /// True once an access was pushed into a log since the last barrier;
    /// while false every log is empty.
    logged: bool,
}

impl BlockMeter {
    /// Creates a meter for a block of `block_dim` threads.
    pub fn new(
        block_dim: usize,
        warp_size: usize,
        transaction_bytes: usize,
        shared_banks: usize,
    ) -> Self {
        Self {
            warp_size,
            block_dim,
            phase_ops: vec![0; block_dim],
            phase_global: vec![Vec::new(); block_dim],
            phase_shared: vec![Vec::new(); block_dim],
            metrics: Self::fresh_metrics(block_dim),
            transaction_bytes: transaction_bytes as u64,
            scratch: InstructionScratch::default(),
            bank_counts: BankCounts::new(shared_banks),
            sanitizer: None,
            memory: MemoryMode::Exact,
            logged: false,
        }
    }

    fn fresh_metrics(block_dim: usize) -> BlockMetrics {
        BlockMetrics { blocks: 1, block_dim, ..BlockMetrics::default() }
    }

    /// Arms the shared-memory sanitizer for this block (armed launches).
    pub fn enable_sanitizer(&mut self, block_idx: usize) {
        self.sanitizer = Some(Box::new(SanitizerState::new(block_idx)));
    }

    /// True while the sanitizer is armed for this block.
    pub(crate) fn sanitized(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Records `n` arithmetic/control ops for thread `tid`.
    #[inline]
    pub fn charge_ops(&mut self, tid: usize, n: u64) {
        self.phase_ops[tid] += n;
        self.metrics.thread_ops += n;
    }

    /// Logs an exact global access for thread `tid`.
    #[inline]
    pub fn log_global(&mut self, tid: usize, addr: u64, bytes: u32) {
        let sums = match &mut self.memory {
            MemoryMode::Exact => &mut self.metrics,
            MemoryMode::Recorded(sums) => sums,
            MemoryMode::Replayed => return self.charge_ops(tid, 1),
        };
        sums.global_bytes += u64::from(bytes);
        self.phase_global[tid].push(Access { addr, bytes });
        self.logged = true;
        // A memory instruction is still an issued instruction.
        self.charge_ops(tid, 1);
    }

    /// Logs an exact shared access for thread `tid`. The read/write
    /// `kind` feeds the sanitizer (when armed); metering itself is
    /// direction-agnostic.
    #[inline]
    pub fn log_shared(&mut self, tid: usize, kind: AccessKind, addr: u64, bytes: u32) {
        let sums = match &mut self.memory {
            MemoryMode::Exact => &mut self.metrics,
            MemoryMode::Recorded(sums) => sums,
            MemoryMode::Replayed => return self.charge_ops(tid, 1),
        };
        sums.shared_accesses += 1;
        self.phase_shared[tid].push(Access { addr, bytes });
        self.logged = true;
        if let Some(san) = &mut self.sanitizer {
            san.log(tid, kind, addr, bytes);
        }
        self.charge_ops(tid, 1);
    }

    /// Sets where the following logged accesses are priced, returning
    /// the mode it replaces (with a recorded side sum, if any).
    pub(crate) fn set_memory(&mut self, mode: MemoryMode) -> MemoryMode {
        debug_assert!(
            self.sanitizer.is_none() || matches!(mode, MemoryMode::Exact),
            "an armed block logs every access"
        );
        std::mem::replace(&mut self.memory, mode)
    }

    /// Bulk shared-memory accounting: thread `tid` performed `accesses`
    /// shared accesses in a pattern whose warp-wide conflict degree is
    /// `conflict_ways` (1 = conflict-free, `warp_size` = fully serialized).
    #[inline]
    pub fn shared_bulk(&mut self, tid: usize, accesses: u64, conflict_ways: u64) {
        self.metrics.shared_accesses += accesses;
        // One warp instruction serves warp_size thread-accesses and costs
        // `conflict_ways` bank cycles; amortize per thread.
        self.metrics.shared_cycles +=
            accesses as f64 * conflict_ways as f64 / self.warp_size as f64;
        self.charge_ops(tid, accesses);
    }

    /// Bulk accounting for `accesses` shared accesses of thread `tid`,
    /// the only lane of its warp with shared accesses in this phase, each
    /// inside one 4-byte word. The exact path prices each such access as
    /// an instruction of its own, one bank cycle.
    #[inline]
    pub(crate) fn shared_lone_lane_bulk(&mut self, tid: usize, accesses: u64) {
        self.shared_bulk(tid, accesses, self.warp_size as u64);
    }

    /// Bulk global-memory accounting: thread `tid` moved `bytes` bytes in
    /// accesses of `access_width` bytes. When `coalesced`, the warp's
    /// lanes form contiguous spans (cost: bytes / transaction size);
    /// otherwise every access pays a full transaction.
    #[inline]
    pub fn global_bulk(&mut self, tid: usize, bytes: u64, access_width: u64, coalesced: bool) {
        debug_assert!(access_width > 0);
        self.metrics.global_bytes += bytes;
        let accesses = bytes.div_ceil(access_width);
        if coalesced {
            self.metrics.global_transactions += bytes as f64 / self.transaction_bytes as f64;
        } else {
            self.metrics.global_transactions += accesses as f64;
        }
        self.charge_ops(tid, accesses);
    }

    /// Bulk accounting for global accesses that hit the L1 cache (small
    /// hot per-thread footprints, e.g. V1's window buffers when *not*
    /// placed in shared memory).
    #[inline]
    pub fn global_cached_bulk(&mut self, tid: usize, accesses: u64) {
        self.metrics.cached_accesses += accesses;
        self.charge_ops(tid, accesses);
    }

    /// Shared-memory footprint accounting (affects occupancy).
    pub fn note_shared_alloc(&mut self, bytes: usize) {
        self.metrics.shared_mem_used = self.metrics.shared_mem_used.max(bytes);
    }

    /// Ends a barrier-delimited phase: reduces the per-thread logs into
    /// warp-level metrics and clears them.
    pub fn end_phase(&mut self) {
        self.end_phase_inner(None, true);
    }

    /// [`Self::end_phase`] with the block's exit mask, so the sanitizer
    /// can flag barriers only part of the block arrived at.
    pub fn end_phase_masked(&mut self, exited: &[bool]) {
        self.end_phase_inner(Some(exited), true);
    }

    fn end_phase_inner(&mut self, exited: Option<&[bool]>, real_barrier: bool) {
        if let Some(san) = &mut self.sanitizer {
            san.end_phase(exited, real_barrier);
        }
        self.metrics.barriers += 1;
        let warps = self.block_dim.div_ceil(self.warp_size);
        let segment_bytes = self.transaction_bytes;
        // The float sums live in locals while instructions are priced, so
        // they stay in registers; the additions and their order are those
        // of adding into the metrics (or the recorded side sum) directly.
        let sums = self.priced_into();
        let mut transactions = sums.global_transactions;
        let mut cycles = sums.shared_cycles;
        let logged = std::mem::take(&mut self.logged);
        for w in 0..warps {
            let lanes = w * self.warp_size..((w + 1) * self.warp_size).min(self.block_dim);
            let ops = &mut self.phase_ops[lanes.clone()];
            // Warp-serialized issue: each warp is as slow as its busiest
            // lane.
            let busiest = ops.iter().copied().max().unwrap_or(0);
            self.metrics.warp_issue_ops += busiest as f64;
            // Every logged access charges its lane an op, so a warp with
            // no ops has no logs to price or clear.
            if busiest == 0 {
                continue;
            }
            ops.fill(0);
            if !logged {
                continue;
            }

            // Coalescing: the k-th logged access of each lane forms one
            // warp-wide memory instruction.
            let global = &mut self.phase_global[lanes.clone()];
            self.scratch.for_each(global, |instruction| {
                transactions += transactions_for_warp(instruction, segment_bytes) as f64;
            });
            global.iter_mut().for_each(Vec::clear);
            let shared = &mut self.phase_shared[lanes];
            self.scratch.for_each(shared, |instruction| {
                cycles += shared_conflict_cycles(instruction, &mut self.bank_counts) as f64;
            });
            shared.iter_mut().for_each(Vec::clear);
        }
        let sums = self.priced_into();
        sums.global_transactions = transactions;
        sums.shared_cycles = cycles;
    }

    /// The sums logged accesses are priced into at a barrier. A replayed
    /// phase logs none, so its barrier leaves the metrics as they are.
    fn priced_into(&mut self) -> &mut BlockMetrics {
        match &mut self.memory {
            MemoryMode::Recorded(sums) => sums,
            MemoryMode::Exact | MemoryMode::Replayed => &mut self.metrics,
        }
    }

    /// Finalizes the meter (flushing any un-barriered phase) and returns
    /// the metrics.
    pub fn finish(mut self) -> BlockMetrics {
        self.finish_block().0
    }

    /// Closes the current block: flushes any un-barriered phase and
    /// returns the block's metrics plus the sanitizer's findings when an
    /// armed launch enabled it. The end-of-kernel flush is not a barrier:
    /// it sweeps trailing accesses for conflicts but cannot be divergent.
    ///
    /// The meter is left rearmed for the next block of the same geometry
    /// — fresh metrics, sanitizer off, shared footprint unset — with its
    /// per-thread logs and scratch buffers keeping their capacity.
    pub fn finish_block(&mut self) -> (BlockMetrics, Option<BlockSanitizerReport>) {
        if !self.at_barrier() {
            self.end_phase_inner(None, false);
        }
        let metrics = std::mem::replace(&mut self.metrics, Self::fresh_metrics(self.block_dim));
        (metrics, self.sanitizer.take().map(|s| s.into_report()))
    }

    /// Read-only view of the metrics accumulated so far (completed phases).
    pub fn metrics(&self) -> &BlockMetrics {
        &self.metrics
    }

    /// The block's metrics, for adding a replayed phase delta.
    pub(crate) fn metrics_mut(&mut self) -> &mut BlockMetrics {
        &mut self.metrics
    }

    /// Accesses logged since the last barrier, over all lanes.
    #[cfg(test)]
    pub(crate) fn logged_accesses(&self) -> usize {
        self.phase_global.iter().chain(&self.phase_shared).map(Vec::len).sum()
    }

    /// True when no access or op is waiting for a barrier.
    pub(crate) fn at_barrier(&self) -> bool {
        !self.logged && self.phase_ops.iter().all(|&o| o == 0)
    }
}

/// Reused buffers for assembling one warp's memory instructions.
#[derive(Debug, Default)]
struct InstructionScratch {
    /// Lanes of the warp with accesses left to price.
    lanes: Vec<usize>,
    /// The instruction being priced.
    accesses: Vec<Access>,
}

impl InstructionScratch {
    /// Hands `price` each warp instruction of one warp's lane logs in
    /// order: instruction `k` holds the `k`-th access of every lane that
    /// logged more than `k` (lanes with fewer accesses sit it out). Only
    /// lanes still holding accesses are visited, so a phase where one lane
    /// logs a long run costs that run, not the run times the warp width.
    /// Once one lane is left, its remaining accesses are single-access
    /// instructions and go to `price` one by one, with no gather.
    fn for_each(&mut self, logs: &[Vec<Access>], mut price: impl FnMut(&mut [Access])) {
        self.lanes.clear();
        self.lanes.extend((0..logs.len()).filter(|&lane| !logs[lane].is_empty()));
        let mut k = 0;
        while self.lanes.len() > 1 {
            self.accesses.clear();
            self.accesses.extend(self.lanes.iter().map(|&lane| logs[lane][k]));
            price(&mut self.accesses);
            k += 1;
            self.lanes.retain(|&lane| logs[lane].len() > k);
        }
        if let [lane] = self.lanes[..] {
            for &access in &logs[lane][k..] {
                price(&mut [access]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BlockMeter {
        BlockMeter::new(64, 32, 128, 32)
    }

    #[test]
    fn warp_issue_takes_the_max_lane() {
        let mut m = meter();
        m.charge_ops(0, 10); // warp 0
        m.charge_ops(1, 4);
        m.charge_ops(33, 7); // warp 1
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.warp_issue_ops, 17.0);
        assert_eq!(metrics.thread_ops, 21);
    }

    #[test]
    fn coalesced_warp_counts_one_transaction() {
        let mut m = meter();
        for t in 0..32 {
            m.log_global(t, (t * 4) as u64, 4);
        }
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.global_transactions, 1.0);
        assert_eq!(metrics.global_bytes, 128);
    }

    #[test]
    fn scattered_warp_counts_many_transactions() {
        let mut m = meter();
        for t in 0..32 {
            m.log_global(t, (t * 4096) as u64, 4);
        }
        m.end_phase();
        assert_eq!(m.finish().global_transactions, 32.0);
    }

    #[test]
    fn second_warp_is_analyzed_separately() {
        let mut m = meter();
        // Warp 0 coalesced; warp 1 scattered.
        for t in 0..32 {
            m.log_global(t, (t * 4) as u64, 4);
        }
        for t in 32..64 {
            m.log_global(t, (t * 4096) as u64, 4);
        }
        m.end_phase();
        assert_eq!(m.finish().global_transactions, 1.0 + 32.0);
    }

    #[test]
    fn shared_conflicts_serialize() {
        let mut m = meter();
        for t in 0..32 {
            m.log_shared(t, AccessKind::Read, (t * 128) as u64, 1); // all in bank 0
        }
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.shared_cycles, 32.0);
        assert_eq!(metrics.shared_accesses, 32);
    }

    #[test]
    fn bulk_shared_matches_exact_for_uniform_pattern() {
        // Exact: 32 lanes, stride 4 (conflict-free), 10 instructions.
        let mut exact = BlockMeter::new(32, 32, 128, 32);
        for _ in 0..10 {
            for t in 0..32 {
                exact.log_shared(t, AccessKind::Read, (t * 4) as u64, 1);
            }
        }
        exact.end_phase();

        let mut bulk = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            bulk.shared_bulk(t, 10, 1);
        }
        bulk.end_phase();

        let e = exact.finish();
        let b = bulk.finish();
        assert_eq!(e.shared_cycles, 10.0);
        assert!((b.shared_cycles - e.shared_cycles).abs() < 1e-9);
        assert_eq!(e.shared_accesses, 320);
        assert_eq!(b.shared_accesses, 320);
    }

    #[test]
    fn bulk_global_coalesced_matches_exact() {
        // Exact: 32 lanes × 4 consecutive bytes each, 128-aligned.
        let mut exact = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            exact.log_global(t, (t * 4) as u64, 4);
        }
        exact.end_phase();

        let mut bulk = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            bulk.global_bulk(t, 4, 4, true);
        }
        bulk.end_phase();

        assert_eq!(exact.finish().global_transactions, 1.0);
        assert!((bulk.finish().global_transactions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn finish_flushes_unbarriered_phase() {
        let mut m = meter();
        m.charge_ops(5, 3);
        let metrics = m.finish();
        assert_eq!(metrics.warp_issue_ops, 3.0);
        assert_eq!(metrics.barriers, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BlockMetrics { warp_issue_ops: 1.0, blocks: 1, ..Default::default() };
        let b = BlockMetrics {
            warp_issue_ops: 2.0,
            blocks: 1,
            shared_mem_used: 4096,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warp_issue_ops, 3.0);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.shared_mem_used, 4096);
    }

    #[test]
    fn divergence_factor() {
        let mut m = BlockMeter::new(32, 32, 128, 32);
        // One busy lane out of 32.
        m.charge_ops(0, 32);
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.divergence_factor(32), 32.0);

        let mut m = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            m.charge_ops(t, 8);
        }
        m.end_phase();
        assert_eq!(m.finish().divergence_factor(32), 1.0);
    }

    #[test]
    fn single_lane_tail_prices_like_the_gathered_path() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x7a11_1a4e);
        for banks in [16usize, 32] {
            for case in 0..50 {
                // Most lanes log a short run; one lane per warp logs a
                // long one, so every warp ends in a single-lane tail.
                let logs: Vec<Vec<Access>> = (0..64)
                    .map(|lane| {
                        let len = if lane % 32 == case % 32 {
                            rng.gen_range(20..60)
                        } else {
                            rng.gen_range(0..4)
                        };
                        (0..len)
                            .map(|_| Access {
                                addr: rng.gen_range(0u64..4096),
                                bytes: [0u32, 1, 2, 4, 8, 130][rng.gen_range(0usize..6)],
                            })
                            .collect()
                    })
                    .collect();
                let mut m = BlockMeter::new(64, 32, 128, banks);
                for (lane, log) in logs.iter().enumerate() {
                    for a in log {
                        m.log_global(lane, a.addr, a.bytes);
                        m.log_shared(lane, AccessKind::Read, a.addr, a.bytes);
                    }
                }
                m.end_phase();
                let metered = m.finish();

                // Gather every instruction; price a lone access as the
                // broadcast pair [a, a], which the general sort, merge and
                // bank-count path folds back into one access.
                let mut counts = BankCounts::new(banks);
                let (mut transactions, mut cycles) = (0.0, 0.0);
                for warp in logs.chunks(32) {
                    let depth = warp.iter().map(Vec::len).max().unwrap_or(0);
                    for k in 0..depth {
                        let mut instruction: Vec<Access> =
                            warp.iter().filter_map(|log| log.get(k).copied()).collect();
                        if let [access] = instruction[..] {
                            instruction.push(access);
                        }
                        transactions += transactions_for_warp(&mut instruction, 128) as f64;
                        cycles += shared_conflict_cycles(&mut instruction, &mut counts) as f64;
                    }
                }
                assert_eq!(metered.global_transactions, transactions, "case {case}");
                assert_eq!(metered.shared_cycles, cycles, "case {case}");
            }
        }
    }

    /// Every lane of a two-warp block charges ops; only the second warp
    /// logs, each lane one bank-0-or-16 byte and one scattered word.
    fn log_in_last_warp(m: &mut BlockMeter) {
        for t in 0..64 {
            m.charge_ops(t, 3);
        }
        for t in 32..64 {
            m.log_shared(t, AccessKind::Read, (t * 64) as u64, 1);
            m.log_global(t, (t * 4096) as u64, 4);
        }
    }

    #[test]
    fn a_memory_replay_hit_prices_nothing_at_its_barrier() {
        let mut m = meter();
        m.set_memory(MemoryMode::Replayed);
        log_in_last_warp(&mut m);
        assert!(!m.logged, "a replayed access reached a log");
        assert_eq!(m.logged_accesses(), 0);
        assert!(!m.at_barrier(), "the accesses' issue ops wait for the barrier");
        m.end_phase();
        assert!(m.at_barrier());
        m.set_memory(MemoryMode::Exact);
        let metrics = m.finish();
        assert_eq!(metrics.warp_issue_ops, 3.0 + 5.0);
        assert_eq!((metrics.shared_cycles, metrics.shared_accesses), (0.0, 0));
        assert_eq!((metrics.global_transactions, metrics.global_bytes), (0.0, 0));
        assert_eq!(metrics.barriers, 1);
    }

    #[test]
    fn recorded_and_exact_phases_price_every_access_after_a_hit() {
        let mut exact = meter();
        log_in_last_warp(&mut exact);
        assert!(!exact.at_barrier());
        exact.end_phase();
        assert!(exact.at_barrier());
        let exact = exact.finish();
        assert_eq!((exact.shared_cycles, exact.global_transactions), (16.0, 32.0));

        // A hit, then a miss's recorded run, then an exact phase left for
        // the end-of-block flush: the two later ones price like `exact`.
        let mut m = meter();
        m.set_memory(MemoryMode::Replayed);
        log_in_last_warp(&mut m);
        m.end_phase();
        m.set_memory(MemoryMode::Recorded(BlockMetrics::default()));
        log_in_last_warp(&mut m);
        assert!(!m.at_barrier());
        m.end_phase();
        assert!(m.at_barrier());
        let MemoryMode::Recorded(recorded) = m.set_memory(MemoryMode::Exact) else {
            unreachable!("set above");
        };
        assert_eq!(recorded.shared_cycles, exact.shared_cycles);
        assert_eq!(recorded.shared_accesses, exact.shared_accesses);
        assert_eq!(recorded.global_transactions, exact.global_transactions);
        assert_eq!(recorded.global_bytes, exact.global_bytes);
        let before = m.metrics().clone();
        log_in_last_warp(&mut m);
        assert!(!m.at_barrier());
        let mut flushed = m.finish();
        assert_eq!(flushed.shared_cycles - before.shared_cycles, exact.shared_cycles);
        assert_eq!(
            flushed.global_transactions - before.global_transactions,
            exact.global_transactions
        );
        flushed.merge(&recorded);
        assert_eq!(flushed.shared_cycles, 2.0 * exact.shared_cycles);
        assert_eq!(flushed.warp_issue_ops, 3.0 * exact.warp_issue_ops);
        assert_eq!(flushed.barriers, 3);
    }

    #[test]
    fn cached_bulk_accumulates() {
        let mut m = meter();
        m.global_cached_bulk(0, 100);
        let metrics = m.finish();
        assert_eq!(metrics.cached_accesses, 100);
    }
}
