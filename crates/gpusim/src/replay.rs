//! Shape-keyed replay of metered phases.
//!
//! Some kernel phases log accesses whose addresses depend only on the
//! block's width and a few shape numbers (how many lanes are live, how
//! long the chunk is, how many groups a scan covers), never on the data.
//! Pricing them access by access on every block repeats the same
//! gather, sort and bank count. Such phases are priced once per shape
//! through the exact meter, the [`BlockMetrics`] delta they produced is
//! stored, and from then on the stored delta is added instead. This is
//! the meter's third accounting path, beside the exact and the bulk ones
//! ([`crate::meter`]), and it comes in two forms that share this memo,
//! its key and its delta:
//!
//! * **Whole phases** ([`crate::exec::BlockCtx::replay_phases`]) whose
//!   ops follow from the shape too: on a hit they do not run at all.
//! * **A phase's memory** ([`crate::exec::BlockCtx::replay_memory`]):
//!   the phase's logged accesses follow from the shape, but its ops and
//!   bulk charges follow the data. On a hit the phase still runs per
//!   lane; each logged access charges only its issue op, so every warp's
//!   busiest lane stays exact, and the stored delta of what the logged
//!   accesses priced (`global_transactions`, `global_bytes`,
//!   `shared_cycles`, `shared_accesses`) is added after it. On a miss the
//!   logged accesses are priced apart from the bulk charges made in the
//!   same phase, so only what they added is stored.
//!
//! **Key.** A delta is stored under the phase's name, the block width,
//! the caller's packed launch parameters, the caller's shape index, each
//! of the phase's global base addresses modulo the transaction size, and
//! its shared base address modulo the 4-byte bank word. Moving every
//! access to one global array by whole transactions leaves each warp
//! instruction's segment count unchanged, and moving every shared
//! address by whole words only rotates the banks, which leaves each
//! instruction's conflict degree unchanged. Everything else that decides
//! the phase's accesses must follow from the shape, the parameters and
//! the width: that is the caller's promise, and the differential test of
//! each caller checks it per block, field by field. The memo is shared
//! by every launch on a simulator and its clones, whatever their
//! parameters, so the parameters belong in the key.
//!
//! **Exactness.** Every meter increment is an integer, or a multiple of
//! `1 / warp_size` (shared bulk) or `1 / transaction_bytes` (global
//! bulk). With both powers of two and a block's sums far below 2⁴⁰, every
//! partial sum of a block's float fields is exact, so adding a phase's
//! delta in one step gives the bits that adding its increments one by
//! one gives. A simulator whose device breaks that premise keeps no memo.
//! Deltas are stored as `u32` fixed point in 1/256 units; a delta that
//! does not fit is not stored, and its shape is priced exactly every time.
//!
//! **Bound.** The memo lives as long as the simulator and its clones, so
//! it outlives each launch's workers. It never holds more than
//! [`REPLAY_MEMO_BYTES`] of heap; once full, new shapes are priced
//! exactly. Tables and entries are allocated when a shape is first
//! priced, never at construction.
//!
//! **Armed launches** (the sanitizer) never consult the memo: every
//! access is logged so that it can be racechecked, and the report is the
//! same whether the memo is warm or cold.

use parking_lot::Mutex;

use crate::meter::BlockMetrics;

/// Most heap bytes a simulator's replay memo holds.
pub const REPLAY_MEMO_BYTES: usize = 32 << 10;

/// Fixed-point units per modelled unit of a stored float delta.
const FIXED_ONE: f64 = 256.0;

/// Identifies one run of replayed phases for
/// [`crate::exec::BlockCtx::replay_phases`] and
/// [`crate::exec::BlockCtx::replay_memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseShape {
    /// Stable name of the phase run; one name per piece of kernel code.
    pub phase: &'static str,
    /// Shape index: together with the block width and `params`, it must
    /// decide every access the phases log, relative to the bases below.
    pub shape: u32,
    /// Launch parameters that decide the logged accesses beside the shape
    /// and the block width (a window size, say), packed by the caller so
    /// that different parameters give different values; 0 when the
    /// accesses follow from the shape and the width alone.
    pub params: u64,
    /// Global addresses the phases' global accesses are relative to, one
    /// per array they touch; unused slots are 0.
    pub global_bases: [u64; 2],
    /// Shared address the phases' shared accesses are relative to.
    pub shared_base: u64,
}

/// The table a shape's delta lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableKey {
    phase: &'static str,
    block_dim: u32,
    params: u64,
    global_align: [u32; 2],
    shared_align: u32,
}

/// One phase run's metric delta: `warp_issue_ops`, `thread_ops`,
/// `global_transactions`, `global_bytes`, `shared_cycles`,
/// `shared_accesses`, `cached_accesses`, `barriers`; the float fields in
/// 1/256 units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PhaseDelta([u32; 8]);

impl PhaseDelta {
    /// What the metrics gained from `before` to `after`, if every field
    /// fits the fixed-point form.
    pub(crate) fn between(before: &BlockMetrics, after: &BlockMetrics) -> Option<Self> {
        let float = |a: f64, b: f64| {
            let units = (b - a) * FIXED_ONE;
            (units >= 0.0 && units <= f64::from(u32::MAX) && units.fract() == 0.0)
                .then_some(units as u32)
        };
        let int = |a: u64, b: u64| u32::try_from(b.checked_sub(a)?).ok();
        Some(Self([
            float(before.warp_issue_ops, after.warp_issue_ops)?,
            int(before.thread_ops, after.thread_ops)?,
            float(before.global_transactions, after.global_transactions)?,
            int(before.global_bytes, after.global_bytes)?,
            float(before.shared_cycles, after.shared_cycles)?,
            int(before.shared_accesses, after.shared_accesses)?,
            int(before.cached_accesses, after.cached_accesses)?,
            int(before.barriers, after.barriers)?,
        ]))
    }

    /// Adds the delta to `metrics`.
    pub(crate) fn apply(&self, metrics: &mut BlockMetrics) {
        let [issue, ops, transactions, bytes, cycles, accesses, cached, barriers] = self.0;
        let float = |units: u32| f64::from(units) / FIXED_ONE;
        metrics.warp_issue_ops += float(issue);
        metrics.thread_ops += u64::from(ops);
        metrics.global_transactions += float(transactions);
        metrics.global_bytes += u64::from(bytes);
        metrics.shared_cycles += float(cycles);
        metrics.shared_accesses += u64::from(accesses);
        metrics.cached_accesses += u64::from(cached);
        metrics.barriers += u64::from(barriers);
    }
}

/// One table's stored deltas, sorted by shape.
#[derive(Debug)]
struct Table {
    key: TableKey,
    entries: Vec<(u32, PhaseDelta)>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Default)]
struct MemoState {
    tables: Vec<Table>,
    /// Heap bytes held by `tables` and their entries.
    bytes: usize,
}

impl MemoState {
    /// `key`'s table, made empty if the budget has room for it.
    fn table(&mut self, key: &TableKey) -> Option<&mut Table> {
        let at = match self.tables.iter().position(|table| table.key == *key) {
            Some(at) => at,
            None => {
                let grow = if self.tables.len() == self.tables.capacity() {
                    self.tables.len().max(4)
                } else {
                    0
                };
                let bytes = grow * std::mem::size_of::<Table>();
                if self.bytes + bytes > REPLAY_MEMO_BYTES {
                    return None;
                }
                self.tables.reserve_exact(grow);
                self.bytes += bytes;
                self.tables.push(Table { key: *key, entries: Vec::new(), hits: 0, misses: 0 });
                self.tables.len() - 1
            }
        };
        Some(&mut self.tables[at])
    }
}

/// A simulator's stored phase deltas, shared by its clones.
#[derive(Debug)]
pub(crate) struct ReplayMemo {
    transaction_bytes: u64,
    state: Mutex<MemoState>,
}

impl ReplayMemo {
    /// An empty memo for a device with these widths, or `None` when they
    /// are not powers of two (see the module docs).
    pub(crate) fn new(warp_size: usize, transaction_bytes: usize) -> Option<Self> {
        (warp_size.is_power_of_two() && transaction_bytes.is_power_of_two())
            .then(|| Self { transaction_bytes: transaction_bytes as u64, state: Mutex::default() })
    }

    /// The table `shape` belongs to in a block of `block_dim` threads.
    pub(crate) fn key(&self, shape: &PhaseShape, block_dim: usize) -> TableKey {
        TableKey {
            phase: shape.phase,
            block_dim: block_dim as u32,
            params: shape.params,
            global_align: shape.global_bases.map(|base| (base % self.transaction_bytes) as u32),
            shared_align: (shape.shared_base % 4) as u32,
        }
    }

    /// The stored delta of `shape` in `key`'s table, counting the hit or
    /// the miss.
    pub(crate) fn lookup(&self, key: &TableKey, shape: u32) -> Option<PhaseDelta> {
        let mut state = self.state.lock();
        let table = state.table(key)?;
        match table.entries.binary_search_by_key(&shape, |&(s, _)| s) {
            Ok(at) => {
                table.hits += 1;
                Some(table.entries[at].1)
            }
            Err(_) => {
                table.misses += 1;
                None
            }
        }
    }

    /// Stores `delta` for `shape` in `key`'s table, unless another worker
    /// stored it first or the memo is full.
    pub(crate) fn insert(&self, key: &TableKey, shape: u32, delta: PhaseDelta) {
        let mut state = self.state.lock();
        let MemoState { tables, bytes } = &mut *state;
        let Some(table) = tables.iter_mut().find(|table| table.key == *key) else {
            return;
        };
        let Err(at) = table.entries.binary_search_by_key(&shape, |&(s, _)| s) else {
            return;
        };
        if table.entries.len() == table.entries.capacity() {
            // Grow by an eighth (at least 8 entries) so the spare
            // capacity, which the budget counts, stays small.
            let grow = (table.entries.len() / 8).max(8);
            let grown = grow * std::mem::size_of::<(u32, PhaseDelta)>();
            if *bytes + grown > REPLAY_MEMO_BYTES {
                return;
            }
            table.entries.reserve_exact(grow);
            *bytes += grown;
        }
        table.entries.insert(at, (shape, delta));
    }

    /// A snapshot of the memo's size and its hits and misses per phase.
    pub(crate) fn stats(&self) -> ReplayStats {
        let state = self.state.lock();
        let mut phases: Vec<PhaseReplayStats> = Vec::new();
        for table in &state.tables {
            let at = match phases.iter().position(|p| p.phase == table.key.phase) {
                Some(at) => at,
                None => {
                    phases.push(PhaseReplayStats { phase: table.key.phase, ..Default::default() });
                    phases.len() - 1
                }
            };
            phases[at].entries += table.entries.len();
            phases[at].hits += table.hits;
            phases[at].misses += table.misses;
        }
        ReplayStats { entries: phases.iter().map(|p| p.entries).sum(), bytes: state.bytes, phases }
    }
}

/// Size and use of a simulator's replay memo
/// ([`crate::exec::GpuSim::replay_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Stored deltas.
    pub entries: usize,
    /// Heap bytes the memo holds (at most [`REPLAY_MEMO_BYTES`]).
    pub bytes: usize,
    /// Per phase name, in first-stored order.
    pub phases: Vec<PhaseReplayStats>,
}

/// One phase name's share of [`ReplayStats`], summed over block widths,
/// parameters and base alignments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReplayStats {
    /// The phase's [`PhaseShape::phase`].
    pub phase: &'static str,
    /// Stored deltas.
    pub entries: usize,
    /// Runs that added a stored delta.
    pub hits: u64,
    /// Unarmed runs priced exactly because their shape was not stored.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(seed: u64) -> BlockMetrics {
        BlockMetrics {
            warp_issue_ops: seed as f64 * 3.0,
            thread_ops: seed * 7,
            global_transactions: seed as f64 + 0.5,
            global_bytes: seed * 11,
            shared_cycles: seed as f64 * 0.03125,
            shared_accesses: seed * 13,
            cached_accesses: seed,
            barriers: seed,
            blocks: 1,
            shared_mem_used: 512,
            block_dim: 128,
        }
    }

    #[test]
    fn a_delta_reproduces_the_metrics_it_was_taken_from() {
        let (before, after) = (metrics(5), metrics(40));
        let delta = PhaseDelta::between(&before, &after).unwrap();
        let mut replayed = before.clone();
        delta.apply(&mut replayed);
        assert_eq!(replayed, after);
    }

    #[test]
    fn deltas_that_do_not_fit_are_refused() {
        let before = metrics(1);
        let mut finer = before.clone();
        finer.shared_cycles += 1.0 / 512.0;
        assert_eq!(PhaseDelta::between(&before, &finer), None);
        let mut huge = before.clone();
        huge.thread_ops += u64::from(u32::MAX) + 1;
        assert_eq!(PhaseDelta::between(&before, &huge), None);
        assert_eq!(PhaseDelta::between(&metrics(2), &before), None);
    }

    #[test]
    fn the_memo_stays_within_its_budget() {
        let memo = ReplayMemo::new(32, 128).unwrap();
        let delta = PhaseDelta([1; 8]);
        let shape = |phase, shared_base| PhaseShape {
            phase,
            shape: 0,
            params: 0,
            global_bases: [0; 2],
            shared_base,
        };
        for (phase, base) in [("a", 0), ("a", 2), ("b", 0)] {
            let key = memo.key(&shape(phase, base), 128);
            for s in 0..5_000 {
                if memo.lookup(&key, s).is_none() {
                    memo.insert(&key, s, delta);
                }
            }
        }
        let stats = memo.stats();
        assert!(stats.bytes <= REPLAY_MEMO_BYTES, "{} bytes", stats.bytes);
        assert!(stats.entries > 500, "the budget holds only {} entries", stats.entries);
        let key = memo.key(&shape("a", 0), 128);
        assert_eq!(memo.lookup(&key, 3), Some(delta));
    }

    #[test]
    fn widths_that_are_not_powers_of_two_keep_no_memo() {
        assert!(ReplayMemo::new(24, 128).is_none());
        assert!(ReplayMemo::new(32, 96).is_none());
    }
}
