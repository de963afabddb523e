//! Shared-memory racecheck: the in-simulator analogue of
//! `cuda-memcheck --tool racecheck`.
//!
//! CUDA gives shared memory no intra-phase ordering guarantees: two
//! threads of a block that touch the same bytes between the same pair of
//! `__syncthreads()` barriers — with at least one write — form a data
//! race, even if a particular hardware schedule happens to produce the
//! expected value. Our executor runs threads of a phase in `tid` order
//! deterministically, so a racy kernel *simulates* reproducibly while
//! being undefined on a real device. The sanitizer closes that gap.
//!
//! The model: a **phase** is one inter-barrier region ([`crate::exec::
//! BlockCtx::par_threads`] body). While an armed launch runs, every
//! exact shared access ([`crate::exec::ThreadCtx::shared_read`] /
//! [`shared_write`](crate::exec::ThreadCtx::shared_write)) is recorded
//! with its accessor tid and read/write kind. At each barrier the phase's
//! access set is swept for overlapping byte ranges from *different*
//! threads where at least one side is a write; because conflicts are
//! defined purely on (tid, kind, byte-range, phase) sets — never on
//! values — the deterministic tid-ordered schedule observes exactly the
//! access sets any schedule would, which is what makes phase-local
//! detection sound (see DESIGN.md §10).
//!
//! Barrier divergence is the other CUDA shared-memory footgun: a thread
//! that `return`s early stops arriving at barriers the rest of its block
//! still executes (`__syncthreads()` then deadlocks or corrupts). Kernels
//! model early return with [`crate::exec::ThreadCtx::exit_thread`]; a
//! barrier reached by only part of the block is reported as
//! [`Divergence`].
//!
//! Coverage caveat: the *bulk* accounting paths (`shared_bulk`) declare
//! aggregate patterns without addresses and are invisible to the
//! sanitizer — only exact logged accesses are checked. The CULZSS kernels
//! log their staging and window traffic exactly for this reason.

use std::fmt;

/// Whether a logged shared-memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load from the block's shared arena.
    Read,
    /// A store to the block's shared arena.
    Write,
}

/// The hazard class of a detected conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two threads wrote overlapping bytes in one phase.
    WriteWrite,
    /// One thread read bytes another wrote in the same phase.
    ReadWrite,
}

/// One intra-phase shared-memory conflict between two threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Phase index within the block (0-based; one per barrier).
    pub phase: u64,
    /// Hazard class.
    pub kind: ConflictKind,
    /// The thread whose access sorts first (for read-write conflicts the
    /// writing thread, i.e. the value source).
    pub first_tid: usize,
    /// The other thread.
    pub second_tid: usize,
    /// First byte of the overlapping range (shared-arena relative).
    pub addr: u64,
    /// Length of the overlapping range in bytes.
    pub bytes: u64,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ConflictKind::WriteWrite => "write-write",
            ConflictKind::ReadWrite => "read-write",
        };
        write!(
            f,
            "phase {}: {kind} tid {} × tid {} @ {:#x}..{:#x}",
            self.phase,
            self.first_tid,
            self.second_tid,
            self.addr,
            self.addr + self.bytes
        )
    }
}

/// A barrier reached by only part of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Phase index of the first divergent barrier.
    pub phase: u64,
    /// Threads that arrived at the barrier.
    pub arrived: usize,
    /// Threads in the block.
    pub block_dim: usize,
    /// Sample of the tids that had exited (capped).
    pub exited_tids: Vec<usize>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "barrier divergence at phase {}: {}/{} threads arrived (exited tids {:?}…)",
            self.phase, self.arrived, self.block_dim, self.exited_tids
        )
    }
}

/// Sanitizer findings for one block of an armed launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSanitizerReport {
    /// The block's index in the grid.
    pub block_idx: usize,
    /// Detected conflicts, capped at [`MAX_CONFLICTS_PER_BLOCK`].
    pub conflicts: Vec<Conflict>,
    /// Conflicts detected beyond the cap (counted, not stored).
    pub suppressed_conflicts: u64,
    /// First divergent barrier, if any.
    pub divergence: Option<Divergence>,
    /// Barrier-delimited phases the block executed.
    pub phases: u64,
    /// Exact shared accesses swept.
    pub checked_accesses: u64,
}

impl BlockSanitizerReport {
    /// True when the block had no conflicts and no divergence.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.suppressed_conflicts == 0 && self.divergence.is_none()
    }

    /// Total conflicts including suppressed ones.
    pub fn conflict_count(&self) -> u64 {
        self.conflicts.len() as u64 + self.suppressed_conflicts
    }
}

/// Stored conflicts per block are capped here; the remainder is counted
/// in [`BlockSanitizerReport::suppressed_conflicts`]. A racy kernel can
/// produce O(threads²) pairs per phase; the first few localize the bug.
pub const MAX_CONFLICTS_PER_BLOCK: usize = 16;

/// Aggregated sanitizer findings for a whole armed launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Blocks launched.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Exact shared accesses swept across all blocks.
    pub checked_accesses: u64,
    /// Barrier-delimited phases executed across all blocks.
    pub phases: u64,
    /// Total conflicts (stored + suppressed) across all blocks.
    pub conflicts: u64,
    /// Blocks with a divergent barrier.
    pub divergent_blocks: u64,
    /// Per-block detail, kept only for blocks with findings.
    pub findings: Vec<BlockSanitizerReport>,
}

impl SanitizerReport {
    /// True when every block was conflict- and divergence-free.
    pub fn is_clean(&self) -> bool {
        self.conflicts == 0 && self.divergent_blocks == 0
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "racecheck: {} block(s) × {} thread(s), {} phase(s), {} shared access(es) checked",
            self.grid_dim, self.block_dim, self.phases, self.checked_accesses
        )?;
        if self.is_clean() {
            return write!(f, "  CLEAN: no shared-memory conflicts, no barrier divergence");
        }
        write!(
            f,
            "  FINDINGS: {} conflict(s), {} divergent block(s)",
            self.conflicts, self.divergent_blocks
        )?;
        for block in &self.findings {
            for c in &block.conflicts {
                write!(f, "\n  block {}: {}", block.block_idx, c)?;
            }
            if block.suppressed_conflicts > 0 {
                write!(
                    f,
                    "\n  block {}: …{} further conflict(s) suppressed",
                    block.block_idx, block.suppressed_conflicts
                )?;
            }
            if let Some(d) = &block.divergence {
                write!(f, "\n  block {}: {}", block.block_idx, d)?;
            }
        }
        Ok(())
    }
}

/// Live racecheck state for one executing block; owned by
/// [`crate::meter::BlockMeter`] when the launch is armed.
#[derive(Debug)]
pub(crate) struct SanitizerState {
    block_idx: usize,
    phase: u64,
    /// Current phase's tagged access log, in program order.
    log: Vec<TaggedAccess>,
    conflicts: Vec<Conflict>,
    suppressed: u64,
    divergence: Option<Divergence>,
    checked_accesses: u64,
}

#[derive(Debug, Clone, Copy)]
struct TaggedAccess {
    tid: usize,
    kind: AccessKind,
    start: u64,
    end: u64,
}

impl SanitizerState {
    pub(crate) fn new(block_idx: usize) -> Self {
        Self {
            block_idx,
            phase: 0,
            log: Vec::new(),
            conflicts: Vec::new(),
            suppressed: 0,
            divergence: None,
            checked_accesses: 0,
        }
    }

    pub(crate) fn log(&mut self, tid: usize, kind: AccessKind, addr: u64, bytes: u32) {
        self.log.push(TaggedAccess { tid, kind, start: addr, end: addr + u64::from(bytes) });
    }

    /// Closes the current phase: sweeps the access log for conflicts and,
    /// at a real barrier, records divergence when only part of the block
    /// arrived. (The implicit end-of-kernel flush is not a barrier and
    /// cannot diverge.)
    pub(crate) fn end_phase(&mut self, exited: Option<&[bool]>, real_barrier: bool) {
        self.sweep();
        if real_barrier {
            if let Some(exited) = exited {
                let gone: Vec<usize> =
                    exited.iter().enumerate().filter(|(_, &e)| e).map(|(t, _)| t).collect();
                let arrived = exited.len() - gone.len();
                // All-exited means nobody executes the barrier at all;
                // only a *partial* arrival is divergence.
                if !gone.is_empty() && arrived > 0 && self.divergence.is_none() {
                    let mut sample = gone;
                    sample.truncate(8);
                    self.divergence = Some(Divergence {
                        phase: self.phase,
                        arrived,
                        block_dim: exited.len(),
                        exited_tids: sample,
                    });
                }
            }
        }
        self.phase += 1;
    }

    /// Pairwise overlap sweep over the phase's log: sort by start
    /// address, then for each access compare forward while ranges can
    /// still overlap. Disjoint access sets (the race-free common case)
    /// cost O(n log n).
    fn sweep(&mut self) {
        self.checked_accesses += self.log.len() as u64;
        if self.log.len() >= 2 {
            self.log.sort_by_key(|a| (a.start, a.tid));
            for i in 0..self.log.len() {
                let a = self.log[i];
                for j in (i + 1)..self.log.len() {
                    let b = self.log[j];
                    if b.start >= a.end {
                        break;
                    }
                    if a.tid == b.tid || (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
                    {
                        continue;
                    }
                    let kind = if a.kind == AccessKind::Write && b.kind == AccessKind::Write {
                        ConflictKind::WriteWrite
                    } else {
                        ConflictKind::ReadWrite
                    };
                    // Report the writer first: it is the value source the
                    // other thread races against.
                    let (first, second) =
                        if a.kind == AccessKind::Write { (a.tid, b.tid) } else { (b.tid, a.tid) };
                    if self.conflicts.len() < MAX_CONFLICTS_PER_BLOCK {
                        self.conflicts.push(Conflict {
                            phase: self.phase,
                            kind,
                            first_tid: first,
                            second_tid: second,
                            addr: b.start,
                            bytes: a.end.min(b.end) - b.start,
                        });
                    } else {
                        self.suppressed += 1;
                    }
                }
            }
        }
        self.log.clear();
    }

    pub(crate) fn into_report(self) -> BlockSanitizerReport {
        BlockSanitizerReport {
            block_idx: self.block_idx,
            conflicts: self.conflicts,
            suppressed_conflicts: self.suppressed,
            divergence: self.divergence,
            phases: self.phase,
            checked_accesses: self.checked_accesses,
        }
    }
}

/// Intentionally-buggy fixture kernels proving the detector fires, plus a
/// clean control. Used by the gpusim test suite and referenced from
/// DESIGN.md; kept in the library so downstream crates can exercise the
/// sanitizer end to end.
pub mod fixtures {
    use crate::exec::{BlockCtx, BlockKernel};

    /// Every thread stores to the same shared word in one phase — the
    /// canonical write-write race (an unguarded shared accumulator).
    pub struct SharedCounterRace;

    impl BlockKernel for SharedCounterRace {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            block.par_threads(|t| {
                t.charge_ops(1);
                t.shared_write(0, 4);
            });
        }
    }

    /// The CULZSS V2 staging discipline with the `__syncthreads()`
    /// *removed*: each thread writes its slot and reads its neighbour's
    /// in the same phase — a read-write race.
    pub struct MissingBarrier;

    impl BlockKernel for MissingBarrier {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            block.par_threads(|t| {
                t.shared_write(t.tid as u64, 1);
                t.shared_read(((t.tid + 1) % t.block_dim) as u64, 1);
            });
        }
    }

    /// Threads at or above `cutoff` return before the block's second
    /// barrier — the classic early-`return`-before-`__syncthreads()` bug.
    pub struct DivergentExit {
        /// Threads below this tid keep running; the rest exit early.
        pub cutoff: usize,
    }

    impl BlockKernel for DivergentExit {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            let cutoff = self.cutoff;
            block.par_threads(|t| {
                t.shared_write(t.tid as u64, 1);
                if t.tid >= cutoff {
                    t.exit_thread();
                }
            });
            block.par_threads(|t| {
                t.shared_read(t.tid as u64, 1);
            });
        }
    }

    /// The correct version of [`MissingBarrier`]: write, barrier, read.
    /// Must report clean.
    pub struct StagedExchange;

    impl BlockKernel for StagedExchange {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            block.par_threads(|t| {
                t.shared_write(t.tid as u64, 1);
            });
            block.par_threads(|t| {
                t.shared_read(((t.tid + 1) % t.block_dim) as u64, 1);
            });
        }
    }

    /// A Hillis–Steele inclusive scan over a ping/pong pair of
    /// `block_dim`-element 8-byte buffers, one step per phase — the
    /// discipline the CULZSS V3 compaction kernel uses for its offset
    /// scan. Every step reads only the source buffer and writes only
    /// the destination buffer, with the phase barrier between steps,
    /// so the sanitizer must report clean.
    pub struct PrefixScanPingPong {
        /// Scan steps to run (`log2(block_dim)` for a full scan).
        pub steps: u32,
    }

    impl BlockKernel for PrefixScanPingPong {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            let stride = 8 * block.block_dim as u64;
            for step in 0..self.steps {
                let (src, dst) = if step % 2 == 0 { (0, stride) } else { (stride, 0) };
                let d = 1usize << step;
                block.par_threads(|t| {
                    t.shared_read(src + 8 * t.tid as u64, 8);
                    if t.tid >= d {
                        t.shared_read(src + 8 * (t.tid - d) as u64, 8);
                    }
                    t.shared_write(dst + 8 * t.tid as u64, 8);
                    t.charge_ops(1);
                });
            }
        }
    }

    /// [`PrefixScanPingPong`] with the buffer pair collapsed into one:
    /// each step reads a neighbour's slot and overwrites its own in the
    /// same phase — the read-write race the two-buffer discipline
    /// exists to avoid.
    pub struct PrefixScanInPlace {
        /// Scan steps to run.
        pub steps: u32,
    }

    impl BlockKernel for PrefixScanInPlace {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            for step in 0..self.steps {
                let d = 1usize << step;
                block.par_threads(|t| {
                    if t.tid >= d {
                        t.shared_read(8 * (t.tid - d) as u64, 8);
                    }
                    t.shared_write(8 * t.tid as u64, 8);
                    t.charge_ops(1);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::{BlockKernel, GpuSim, LaunchConfig, LaunchStats};

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(2)
    }

    /// An armed launch's statistics and its sanitizer report.
    struct Checked {
        stats: LaunchStats,
        sanitizer: SanitizerReport,
    }

    /// Launches `kernel` on an armed simulator.
    fn racecheck<K: BlockKernel>(cfg: LaunchConfig, kernel: &K) -> Checked {
        let mut stats = sim().with_sanitizer().launch(cfg, kernel).unwrap().stats;
        let sanitizer = stats.sanitizer.take().expect("an armed launch reports");
        Checked { stats, sanitizer }
    }

    #[test]
    fn write_write_race_is_detected() {
        let checked = racecheck(LaunchConfig::new(2, 32).with_shared(4), &SharedCounterRace);
        let report = &checked.sanitizer;
        assert!(!report.is_clean());
        assert!(report.conflicts >= 2, "both blocks race: {report}");
        assert_eq!(report.findings.len(), 2);
        let block = &report.findings[0];
        assert!(block.conflicts.iter().all(|c| c.kind == ConflictKind::WriteWrite));
        let first = &block.conflicts[0];
        assert_eq!((first.addr, first.bytes, first.phase), (0, 4, 0));
        assert_ne!(first.first_tid, first.second_tid);
        // 32 threads on one word → 496 pairs; the cap keeps the report small.
        assert!(block.suppressed_conflicts > 0);
        assert_eq!(block.conflict_count(), 496);
    }

    #[test]
    fn missing_barrier_is_a_read_write_conflict() {
        let checked = racecheck(LaunchConfig::new(1, 64).with_shared(64), &MissingBarrier);
        let report = &checked.sanitizer;
        assert!(!report.is_clean());
        let block = &report.findings[0];
        assert!(block.conflicts.iter().any(|c| c.kind == ConflictKind::ReadWrite));
        // The writer is reported as the value source.
        let c = block.conflicts.iter().find(|c| c.kind == ConflictKind::ReadWrite).unwrap();
        assert_eq!(c.second_tid, (c.first_tid + 63) % 64, "reader races the writer one slot up");
    }

    #[test]
    fn divergent_exit_is_reported_once() {
        let checked =
            racecheck(LaunchConfig::new(1, 64).with_shared(64), &DivergentExit { cutoff: 48 });
        let report = &checked.sanitizer;
        assert_eq!(report.divergent_blocks, 1);
        assert_eq!(report.conflicts, 0, "divergence without data races: {report}");
        let d = report.findings[0].divergence.as_ref().unwrap();
        assert_eq!(d.phase, 0, "the first barrier after the early return diverges");
        assert_eq!(d.arrived, 48);
        assert_eq!(d.block_dim, 64);
        assert_eq!(d.exited_tids[0], 48);
    }

    #[test]
    fn staged_exchange_is_clean() {
        let checked = racecheck(LaunchConfig::new(4, 64).with_shared(64), &StagedExchange);
        let report = &checked.sanitizer;
        assert!(report.is_clean(), "{report}");
        assert!(report.findings.is_empty());
        assert_eq!(report.phases, 4 * 2);
        assert_eq!(report.checked_accesses, 4 * 64 * 2);
        // An unarmed launch meters identically.
        let plain =
            sim().launch(LaunchConfig::new(4, 64).with_shared(64), &StagedExchange).unwrap();
        assert_eq!(plain.stats.metrics, checked.stats.metrics);
    }

    #[test]
    fn ping_pong_scan_is_clean_and_in_place_scan_races() {
        // The V3 offset scan's shape: 6 steps over 64 lanes. The
        // ping/pong discipline is race-free and its cost is phase-exact.
        let clean = racecheck(
            LaunchConfig::new(2, 64).with_shared(2 * 8 * 64),
            &PrefixScanPingPong { steps: 6 },
        );
        assert!(clean.sanitizer.is_clean(), "{}", clean.sanitizer);
        assert_eq!(clean.sanitizer.phases, 2 * 6);

        // Collapsing the buffers races every step on every overlapping
        // (reader, writer-one-stride-down) pair.
        let racy = racecheck(
            LaunchConfig::new(1, 64).with_shared(8 * 64),
            &PrefixScanInPlace { steps: 6 },
        );
        let report = &racy.sanitizer;
        assert!(!report.is_clean());
        let block = &report.findings[0];
        assert!(block.conflicts.iter().any(|c| c.kind == ConflictKind::ReadWrite), "{report}");
        // Step 0 already conflicts: tid reads slot tid-1 while tid-1
        // overwrites it in the same phase.
        assert!(block.conflicts.iter().any(|c| c.phase == 0), "{report}");
    }

    #[test]
    fn exited_threads_skip_later_phases() {
        let checked =
            racecheck(LaunchConfig::new(1, 8).with_shared(8), &DivergentExit { cutoff: 4 });
        // Phase 0: 8 writes; phase 1: only the 4 surviving reads.
        assert_eq!(checked.sanitizer.checked_accesses, 8 + 4);
    }

    #[test]
    fn report_displays_findings() {
        let checked = racecheck(LaunchConfig::new(1, 32).with_shared(4), &SharedCounterRace);
        let text = checked.sanitizer.to_string();
        assert!(text.contains("FINDINGS"), "{text}");
        assert!(text.contains("write-write"), "{text}");
        let clean = racecheck(LaunchConfig::new(1, 32).with_shared(64), &StagedExchange);
        assert!(clean.sanitizer.to_string().contains("CLEAN"));
    }
}
