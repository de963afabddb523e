//! CULZSS Version 2: one chunk per block, one position per thread.
//!
//! "In the matching process each character is searched by a single thread
//! throughout the window buffer. … each thread starts the search in the
//! window buffer by an offset determined by the given thread id", which
//! staggers the lanes across banks and avoids conflicts. The lookahead
//! refill is a cooperative, coalesced load ("in a 128 thread
//! configuration it makes a block size of 128 bytes … only one memory
//! transaction").
//!
//! The kernel records a `(offset, length)` candidate for **every** input
//! position — including positions a serial parser would skip — and the
//! CPU selection pass ([`crate::metered::select_records_into`]) later
//! removes the redundant ones and generates the flags. This split is the
//! paper's §III-B3 "CPU steps" and the source of both V2's SIMD
//! efficiency and its weakness on highly compressible data.
//!
//! The refill and the search run through one crate-internal segment
//! loop, `ChunkMatcher::match_segment`, that [`crate::v3`] shares: the
//! two kernels differ only in where each record goes. V2 stores it to
//! global memory; V3 parks it in shared memory for its on-device walk.
//!
//! Both phases' logged accesses follow from the thread layout, not the
//! data, so unarmed launches price them once per shape
//! ([`culzss_gpusim::replay`]): the refill replays whole, and the match
//! phase replays its memory while its search ops still run per lane.

use culzss_gpusim::exec::{BlockCtx, BlockKernel, LaunchError, LaunchStats, ThreadCtx};
use culzss_gpusim::PhaseShape;
use culzss_lzss::config::LzssConfig;

use crate::metered::MatchSearcher;
use crate::params::CulzssParams;

/// Per-position match record shipped back to the host (the paper's
/// "encoding information" arrays). `length == 0` means no match.
pub type MatchRecord = (u16, u16);

/// The V2 matching kernel.
pub struct V2MatchKernel<'a> {
    /// Whole input buffer (device global memory).
    pub input: &'a [u8],
    /// Run parameters.
    pub params: &'a CulzssParams,
    /// Token configuration derived from the parameters.
    pub config: LzssConfig,
    /// Global chunk index of this launch's block 0 — used by the
    /// multi-device extension, where each device runs a contiguous slice
    /// of the virtual grid.
    pub chunk_offset: usize,
}

impl<'a> V2MatchKernel<'a> {
    /// Builds the kernel for a single-device launch.
    pub fn new(input: &'a [u8], params: &'a CulzssParams) -> Self {
        Self { input, params, config: params.lzss_config(), chunk_offset: 0 }
    }

    /// Offsets the kernel's chunk indexing (multi-device partitioning).
    pub fn with_chunk_offset(mut self, offset: usize) -> Self {
        self.chunk_offset = offset;
        self
    }
}

impl BlockKernel for V2MatchKernel<'_> {
    /// Match records for every position of this block's chunk.
    type Output = Vec<MatchRecord>;

    fn run_block(&self, block: &mut BlockCtx) -> Vec<MatchRecord> {
        let chunk_idx = self.chunk_offset + block.block_idx;
        let mut matcher = ChunkMatcher::new(self.input, chunk_idx, self.params, &self.config);
        let (n, base) = (self.input.len(), matcher.chunk_start);
        let mut records: Vec<MatchRecord> = vec![(0, 0); matcher.chunk.len()];
        for seg_base in (0..matcher.chunk.len()).step_by(block.block_dim) {
            // Where the segment's first record goes in each result array.
            let stores =
                [n + (base + seg_base) * 2, n * 3 + (base + seg_base) * 2].map(|a| a as u64);
            matcher.match_segment(block, seg_base, ("v2.match", stores), |t, p, rec| {
                records[p] = rec;
                // Write the two result arrays (offset, length) back to
                // global memory — consecutive u16s, coalesced.
                t.global_write((n + (base + p) * 2) as u64, 2);
                t.global_write((n * 3 + (base + p) * 2) as u64, 2);
            });
        }
        records
    }
}

/// Raw bytes of the match phase's shared staging buffer: the window at
/// 0, thread `tid`'s lookahead byte at `window + tid`, and the lookahead
/// extension at `window + threads_per_block + tid`. V3 keeps the same
/// buffer at offset 0, ahead of its pipeline arena.
pub(crate) fn staging_bytes(params: &CulzssParams) -> usize {
    params.window_size + params.threads_per_block + params.max_match
}

/// Phases 1 and 2 of both V2 and V3 over one block's `chunk`, whose
/// first byte sits at global address `chunk_start`, a segment of
/// `block_dim` positions at a time. The searcher is queried in ascending
/// position order, so one serves the whole chunk.
pub(crate) struct ChunkMatcher<'a> {
    params: &'a CulzssParams,
    pub(crate) chunk: &'a [u8],
    pub(crate) chunk_start: usize,
    searcher: MatchSearcher<'a>,
    /// The parameters that place the match phase's accesses, packed for
    /// its replay key; `None` outside the ranges validation allows, where
    /// the phase is always metered exactly.
    key_params: Option<u64>,
}

impl<'a> ChunkMatcher<'a> {
    /// The matcher for chunk `chunk_idx` of `input`.
    pub(crate) fn new(
        input: &'a [u8],
        chunk_idx: usize,
        params: &'a CulzssParams,
        config: &LzssConfig,
    ) -> Self {
        let chunk_start = chunk_idx * params.chunk_size;
        let chunk = &input[chunk_start..(chunk_start + params.chunk_size).min(input.len())];
        let key_params = match_key_params(params);
        Self { params, chunk, chunk_start, searcher: MatchSearcher::new(chunk, config), key_params }
    }

    /// The segment whose first position is `seg_base`: the cooperative
    /// refill of the staging buffer, then one position per thread
    /// searched against the window. `store` gets each live thread's
    /// position and record after the search is metered, and logs where
    /// the record goes: lane `tid`'s accesses must sit at fixed offsets,
    /// set by the parameters and `tid`, from the shared address 0 and the
    /// global `bases` of `(phase, bases)`, where `phase` names the
    /// storing kernel in the match phase's replay key.
    pub(crate) fn match_segment(
        &mut self,
        block: &mut BlockCtx,
        seg_base: usize,
        (phase, bases): (&'static str, [u64; 2]),
        mut store: impl FnMut(&mut ThreadCtx, usize, MatchRecord),
    ) {
        let (params, chunk, chunk_start) = (self.params, self.chunk, self.chunk_start);
        let (window, tpb) = (params.window_size, block.block_dim);
        // Phase 1: cooperative refill of the extended lookahead buffer —
        // one byte per thread, consecutive addresses, coalesced. The
        // extension (up to max_match bytes past the block's span, so the
        // last positions can match full length) is staged by the first
        // max_match threads. Its accesses follow from the staged byte
        // count: the extension is only staged behind a full segment, so
        // the count says how many lanes load each part.
        let live = (chunk.len() - seg_base).min(tpb);
        let extension = (chunk.len() - seg_base - live).min(params.max_match).min(tpb);
        let refill = PhaseShape {
            phase: "culzss.refill",
            shape: (live + extension) as u32,
            params: 0,
            global_bases: [(chunk_start + seg_base) as u64, 0],
            shared_base: window as u64,
        };
        block.replay_phases(refill, |block| {
            block.par_threads(|t| {
                let p = seg_base + t.tid;
                if p < chunk.len() {
                    t.global_read((chunk_start + p) as u64, 1);
                    t.shared_write((window + t.tid) as u64, 1);
                }
                let p = p + tpb;
                if t.tid < params.max_match && p < chunk.len() {
                    t.global_read((chunk_start + p) as u64, 1);
                    t.shared_write((window + tpb + t.tid) as u64, 1);
                }
            });
        });
        // Phase 2: every thread matches its position against the window.
        // The staggered start offsets make the shared-memory traffic
        // conflict-free (modelled as 1-way). Its logged accesses follow
        // from the block width, the parameters, the store bases and the
        // remaining length, which only decides the lane count and the
        // lookahead spans up to `tpb + max_match`; the search's ops and
        // bulk traffic follow the data and are charged per lane.
        let searcher = &mut self.searcher;
        let mut phase2 = |block: &mut BlockCtx| {
            block.par_threads(|t| {
                let p = seg_base + t.tid;
                if p >= chunk.len() {
                    return;
                }
                let m = searcher.search(p);
                t.charge_ops(m.work.ops());
                if params.use_shared_memory {
                    // Exact ranged reads hand the sanitizer this phase's
                    // read set — the window scan (uniform across the warp,
                    // a broadcast) and this thread's lookahead span — while
                    // the inner-loop byte traffic stays on the bulk path.
                    t.shared_read(0, window as u32);
                    let span = params.max_match.min(chunk.len() - p).max(1);
                    t.shared_read((window + t.tid) as u64, span as u32);
                    t.shared_bulk(m.work.accesses(), 1);
                } else {
                    t.global_cached_bulk(m.work.accesses());
                }
                store(t, p, (m.distance, m.length));
            })
        };
        match self.key_params {
            Some(params) => {
                let remaining = (chunk.len() - seg_base).min(tpb + self.params.max_match);
                let shape = PhaseShape {
                    phase,
                    shape: remaining as u32,
                    params,
                    global_bases: bases,
                    shared_base: 0,
                };
                block.replay_memory(shape, phase2, |_| {});
            }
            None => phase2(block),
        }
    }
}

/// The parameters that decide the match phase's accesses, one 16-bit
/// field each: the window broadcast and the lookahead spans sit at fixed
/// offsets of the staging buffer, and V3's record ring sits behind it.
/// `None` when a value does not fit its field, which validated parameters
/// always do (a window of at most 256, `max_match` and a block width
/// below 2¹⁶).
fn match_key_params(params: &CulzssParams) -> Option<u64> {
    let field = |value: usize| u16::try_from(value).ok().map(u64::from);
    Some(
        field(params.window_size)?
            | field(params.max_match)? << 16
            | field(params.threads_per_block)? << 32
            | u64::from(params.use_shared_memory) << 48,
    )
}

/// Runs the V2 matching kernel, returning per-chunk match records in
/// chunk order plus launch statistics.
pub fn run(
    sim: &culzss_gpusim::GpuSim,
    input: &[u8],
    params: &CulzssParams,
) -> Result<(Vec<Vec<MatchRecord>>, LaunchStats), LaunchError> {
    let result =
        sim.launch(params.launch_config(input.len()), &V2MatchKernel::new(input, params))?;
    Ok((result.outputs, result.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metered::{greedy_parse_into, select_records_into};
    use culzss_gpusim::{DeviceSpec, GpuSim};

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(4)
    }

    #[test]
    fn records_cover_every_position() {
        let params = CulzssParams::v2();
        let input = b"positional match records for every byte ".repeat(300);
        let (records, stats) = run(&sim(), &input, &params).unwrap();
        assert_eq!(records.len(), params.chunk_count(input.len()));
        let total: usize = records.iter().map(|r| r.len()).sum();
        assert_eq!(total, input.len());
        assert_eq!(stats.grid_dim, params.chunk_count(input.len()));
    }

    #[test]
    fn selection_over_records_equals_greedy_parse() {
        let params = CulzssParams::v2();
        let config = params.lzss_config();
        let input = b"verify the CPU selection path end to end; repeat repeat ".repeat(250);
        let (records, _) = run(&sim(), &input, &params).unwrap();
        for (chunk, recs) in input.chunks(params.chunk_size).zip(&records) {
            let mut selected = Vec::new();
            select_records_into(chunk, recs, &config, &mut selected);
            let mut greedy = Vec::new();
            greedy_parse_into(chunk, &config, &mut greedy);
            assert_eq!(selected, greedy);
        }
    }

    /// Total modelled machine work of a launch, independent of how many
    /// SMs the (test-sized) grid happens to fill. At paper scale the
    /// critical-path seconds follow the same ordering; unit tests use
    /// small inputs where V1's coarse grid (one block per 512 KB) would
    /// otherwise underfill the device and confound the comparison.
    fn total_work(stats: &culzss_gpusim::exec::LaunchStats) -> f64 {
        stats.cost.compute_cycles.max(stats.cost.memory_cycles)
    }

    #[test]
    fn v2_is_faster_than_v1_on_text_but_slower_on_highly_compressible() {
        // The paper's central performance inversion (Table I / Figure 4).
        let text = culzss_datasets::Dataset::CFiles.generate(192 * 1024, 9);
        let highly = culzss_datasets::Dataset::HighlyCompressible.generate(192 * 1024, 9);
        let v1 = CulzssParams::v1();
        let v2 = CulzssParams::v2();
        let s = sim();

        let (_, v1_text) = crate::kernel_v1::run(&s, &text, &v1).unwrap();
        let (_, v2_text) = run(&s, &text, &v2).unwrap();
        assert!(
            total_work(&v2_text) < total_work(&v1_text),
            "text: V2 {} should beat V1 {}",
            total_work(&v2_text),
            total_work(&v1_text)
        );

        let (_, v1_highly) = crate::kernel_v1::run(&s, &highly, &v1).unwrap();
        let (_, v2_highly) = run(&s, &highly, &v2).unwrap();
        assert!(
            total_work(&v2_highly) > total_work(&v1_highly) * 2.0,
            "highly: V2 {} should lose to V1 {}",
            total_work(&v2_highly),
            total_work(&v1_highly)
        );
    }

    #[test]
    fn coalesced_loads_in_the_metrics() {
        let params = CulzssParams::v2();
        let input = vec![1u8; 8192];
        let (_, stats) = run(&sim(), &input, &params).unwrap();
        // Loads: 8192 bytes in 128-byte warp segments ≈ 8192/32 per-warp
        // transactions at most; plus the 2×u16 result writes. Far fewer
        // than one transaction per byte.
        assert!(stats.metrics.global_transactions < 8192.0 / 2.0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let params = CulzssParams::v2();
        let (records, _) = run(&sim(), b"", &params).unwrap();
        assert!(records.is_empty());
        let (records, _) = run(&sim(), b"xy", &params).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].len(), 2);
    }
}
