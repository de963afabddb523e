//! CULZSS Version 3: GPU-resident selection and prefix-sum compaction.
//!
//! V2 stops where the paper stops: the kernel records a match candidate
//! for every position and ships the raw `(offset, length)` arrays back so
//! the **CPU** can run the serial selection walk and emit the flagged
//! stream (§III-B3 "CPU steps"). That host pass is the last structural
//! serial bottleneck in the pipeline. GPULZ-style engines close it by
//! keeping all three steps on-device: block-level greedy selection over
//! the candidate records, a prefix sum over per-token encoded sizes, and
//! a compaction scatter that writes a padding-free body — leaving the
//! host nothing but container header/CRC assembly.
//!
//! The V3 kernel fuses all of it into one launch, one block per chunk:
//!
//! 1. **Match** — identical to [`crate::kernel_v2`]: cooperative,
//!    coalesced lookahead refill, then one position per thread against
//!    the shared window. The only difference is where the records go:
//!    instead of two coalesced `u16` stores per position to global memory
//!    (plus the 4·n device→host copy), each thread parks its record in a
//!    segment-local shared ring. The records never leave the chip.
//! 2. **Select** — after each segment's records land, one thread runs
//!    the greedy selection walk over the segment (the exact
//!    `select_with` semantics of the CPU pass: take a ≥ `min_match`
//!    record and skip the covered positions, else emit a literal). It
//!    marks token boundaries and match positions in two shared bitmaps,
//!    appends match codes to a dense array, and accumulates the group
//!    flag bytes. Interleaving the walk with the per-segment match
//!    phases keeps it inside the launch at the cost of one serialized
//!    phase per segment — the model prices that honestly, and the win
//!    comes from deleting the host pass, not from pretending selection
//!    parallelizes.
//! 3. **Size + scan** — every lane reduces its 32-position slice of the
//!    bitmaps to a `(tokens, matches)` pair, then a Hillis–Steele
//!    inclusive scan across the lane pairs (the same ping/pong shape as
//!    the warp decoder's `offset_table` pass) turns them into exclusive
//!    per-lane output bases.
//! 4. **Compact** — each lane re-walks its slice and scatters its
//!    tokens' encoded bytes into a staged body at the scanned offsets:
//!    flag byte per 8-token group (written by the unique lane that owns
//!    the group's first token), 1 byte per literal (re-read through L1 —
//!    the 4 KB chunk is resident after the refill), 2 bytes per match
//!    code from the dense array. A final cooperative pass writes the
//!    staged body back to global memory in coalesced 4-byte words, the
//!    same idiom as the warp decoder's writeback.
//!
//! The selection walk can end a segment mid-match, with the cursor up to
//! `max_match − 1` positions into the next segment. Because
//! [`crate::params::CulzssParams::validate`] enforces
//! `max_match ≤ threads_per_block` for V3, the cursor always resumes
//! inside the *next* segment's ring — never past it — so the walk never
//! needs a record that has already been overwritten.
//!
//! Byte-compatibility is by construction: the walk consumes the same
//! per-position records as V2's host selection and the body is the same
//! Fixed16 group encoding, so a V3 stream is byte-identical to a V2
//! stream over the same input (pinned by `tests/differential.rs` and the
//! golden fixtures).

use culzss_gpusim::exec::{BlockCtx, BlockKernel};
use culzss_lzss::config::LzssConfig;
use culzss_lzss::format;
use culzss_lzss::token::Token;

use crate::metered::MatchSearcher;
use crate::params::CulzssParams;
use crate::pipeline::BufferPool;

/// Issue-op cost of one step of the selection walk: record compare
/// against `min_match`, cursor advance, token counter, bitmap index
/// arithmetic. The shared-memory traffic of the walk (record read,
/// bitmap/array writes) is logged exactly and carries its own issue
/// cost, so this covers only the ALU side.
pub const V3_SELECT_OPS: u64 = 4;
/// Issue-op cost of closing one 8-token flag group during the walk
/// (shift/accumulate bookkeeping) and of re-deriving a group's flag
/// offset during compaction.
pub const V3_FLAG_OPS: u64 = 2;
/// Issue-op cost per position of the lane-local sizing reduction
/// (bitmap bit test + two counter updates).
pub const V3_SIZE_OPS: u64 = 2;
/// Issue-op cost per scanned element per Hillis–Steele step (load
/// index arithmetic, add, predicate) — the scan moves `(tokens,
/// matches)` pairs, so each step charges `2 ×` this per lane.
pub const V3_SCAN_OPS: u64 = 4;
/// Issue-op cost of emitting one literal during compaction (offset
/// update + byte move arithmetic; the L1 re-read and staged store are
/// logged separately).
pub const V3_EMIT_LITERAL_OPS: u64 = 2;
/// Issue-op cost of emitting one match code during compaction (offset
/// update + two-byte move + dense-array index).
pub const V3_EMIT_MATCH_OPS: u64 = 3;

/// Shared-memory arena layout of the fused V3 block. All regions live
/// for the whole launch except the match staging buffer, which is only
/// touched during the per-segment match phases.
#[derive(Debug, Clone, Copy)]
struct Arena {
    /// Segment record ring: `2 × threads_per_block` bytes of packed
    /// `(distance, length)` records, rewritten every segment.
    rec: u64,
    /// Token-boundary bitmap: one bit per chunk position.
    tok_bitmap: u64,
    /// Match bitmap: one bit per chunk position (set ⇒ boundary is a
    /// match token).
    match_bitmap: u64,
    /// Dense match-code array: 2 bytes per match token, append-ordered.
    matches: u64,
    /// Group flag bytes, one per 8-token group, indexed by group.
    flags: u64,
    /// Scan ping/pong arrays: `[counts a, counts b, matches a,
    /// matches b]`, each `2 × threads_per_block` bytes of u16 lane
    /// totals.
    scan: [u64; 4],
    /// Staged output body (worst case: all-literal chunk plus flags).
    body: u64,
    /// Total arena size in bytes (bank-width aligned).
    total: usize,
}

impl Arena {
    fn new(params: &CulzssParams) -> Self {
        // The match staging buffer (window + block span + lookahead
        // extension) sits at offset 0, exactly where the V2 kernel puts
        // it; the pipeline regions follow it. Without shared staging the
        // pipeline regions start at 0.
        let staging = if params.use_shared_memory {
            params.window_size + params.threads_per_block + params.max_match
        } else {
            0
        };
        let bitmap = params.chunk_size.div_ceil(8);
        let lane = 2 * params.threads_per_block;
        let rec = staging as u64;
        let tok_bitmap = rec + lane as u64;
        let match_bitmap = tok_bitmap + bitmap as u64;
        let matches = match_bitmap + bitmap as u64;
        // A match covers at least min_match positions, so the dense
        // match array can never exceed chunk/min_match entries.
        let matches_len = 2 * (params.chunk_size / params.min_match + 1);
        let flags = matches + matches_len as u64;
        let scan0 = flags + bitmap as u64;
        let scan = [scan0, scan0 + lane as u64, scan0 + 2 * lane as u64, scan0 + 3 * lane as u64];
        let body = scan0 + 4 * lane as u64;
        // Worst-case body: every position a literal ⇒ chunk bytes of
        // payload plus one flag byte per 8 tokens.
        let total = (body as usize + params.chunk_size + bitmap).div_ceil(4) * 4;
        Self { rec, tok_bitmap, match_bitmap, matches, flags, scan, body, total }
    }
}

/// Shared-memory bytes per block the fused V3 kernel needs under
/// `params` — the match staging buffer (when shared placement is on)
/// plus the selection/scan/compaction arena, which is always resident.
/// Called from [`CulzssParams::shared_bytes`].
pub fn shared_bytes_for(params: &CulzssParams) -> usize {
    Arena::new(params).total
}

/// The fused V3 compression kernel: match + select + scan + compact in
/// one launch. Output is the padding-free encoded body per chunk.
pub struct V3CompressKernel<'a> {
    /// Whole input buffer (device global memory).
    pub input: &'a [u8],
    /// Run parameters.
    pub params: &'a CulzssParams,
    /// Token configuration derived from the parameters.
    pub config: LzssConfig,
    /// Recycled-buffer pool for token scratch and bodies.
    pub pool: &'a BufferPool,
}

impl<'a> V3CompressKernel<'a> {
    /// Builds the kernel, drawing token scratch and body buffers from
    /// `pool`.
    pub fn new(input: &'a [u8], params: &'a CulzssParams, pool: &'a BufferPool) -> Self {
        Self { input, params, config: params.lzss_config(), pool }
    }
}

impl BlockKernel for V3CompressKernel<'_> {
    /// Padding-free encoded body of this block's chunk.
    type Output = Vec<u8>;

    fn run_block(&self, block: &mut BlockCtx) -> Vec<u8> {
        let chunk_start = block.block_idx * self.params.chunk_size;
        let chunk_end = (chunk_start + self.params.chunk_size).min(self.input.len());
        let chunk = &self.input[chunk_start..chunk_end];
        let arena = Arena::new(self.params);
        let t_per_block = block.block_dim;
        let min_match = self.config.min_match;

        let mut records: Vec<(u16, u16)> = vec![(0, 0); chunk.len()];
        // Host mirrors of the device bitmaps, consumed by the sizing and
        // compaction phases below.
        let mut token_start = vec![false; chunk.len()];
        let mut match_at = vec![false; chunk.len()];
        let mut tokens = self.pool.acquire_tokens();
        let mut match_count = 0usize;
        let mut cursor = 0usize;

        // Phase 2 searches its positions in ascending order, so one
        // searcher serves the whole chunk.
        let mut searcher = MatchSearcher::new(chunk, &self.config);
        let segments = chunk.len().div_ceil(t_per_block);
        for seg in 0..segments {
            let seg_base = seg * t_per_block;
            let seg_end = ((seg + 1) * t_per_block).min(chunk.len());
            // Phase 1: cooperative refill — byte-for-byte the V2 refill
            // (consecutive addresses, coalesced; first max_match threads
            // stage the lookahead extension).
            block.par_threads(|t| {
                let p = seg_base + t.tid;
                if p < chunk.len() {
                    t.global_read((chunk_start + p) as u64, 1);
                    t.shared_write((self.params.window_size + t.tid) as u64, 1);
                }
                if t.tid < self.params.max_match {
                    let p = seg_base + t_per_block + t.tid;
                    if p < chunk.len() {
                        t.global_read((chunk_start + p) as u64, 1);
                        t.shared_write((self.params.window_size + t_per_block + t.tid) as u64, 1);
                    }
                }
            });
            // Phase 2: per-position match, V2's metering minus the two
            // per-position global result stores — the record is parked in
            // the segment ring instead and never leaves shared memory.
            block.par_threads(|t| {
                let p = seg_base + t.tid;
                if p >= chunk.len() {
                    return;
                }
                let m = searcher.search(p);
                t.charge_ops(m.work.ops());
                if self.params.use_shared_memory {
                    t.shared_read(0, self.params.window_size as u32);
                    let span = self.params.max_match.min(chunk.len() - p).max(1);
                    t.shared_read((self.params.window_size + t.tid) as u64, span as u32);
                    t.shared_bulk(m.work.accesses(), 1);
                } else {
                    t.global_cached_bulk(m.work.accesses());
                }
                records[p] = (m.distance, m.length);
                t.shared_write(arena.rec + 2 * t.tid as u64, 2);
            });
            // Phase 3: greedy selection walk over this segment's records
            // — one thread, the exact `select_with` semantics of the V2
            // host pass. The cursor may resume mid-segment (a match from
            // the previous segment covered the first positions) and may
            // leave up to max_match − 1 positions into the next one.
            block.single_thread(|t| {
                let mut emitted = 0u64;
                let mut flags_closed = 0u64;
                while cursor < seg_end {
                    t.shared_read(arena.rec + 2 * (cursor - seg_base) as u64, 2);
                    let (distance, length) = records[cursor];
                    token_start[cursor] = true;
                    t.shared_write(arena.tok_bitmap + (cursor / 8) as u64, 1);
                    if length as usize >= min_match {
                        match_at[cursor] = true;
                        t.shared_write(arena.match_bitmap + (cursor / 8) as u64, 1);
                        t.shared_write(arena.matches + 2 * match_count as u64, 2);
                        match_count += 1;
                        tokens.push(Token::Match { distance, length });
                        cursor += length as usize;
                    } else {
                        tokens.push(Token::Literal(chunk[cursor]));
                        cursor += 1;
                    }
                    emitted += 1;
                    if tokens.len().is_multiple_of(8) {
                        // Group filled: flush its accumulated flag byte.
                        t.shared_write(arena.flags + (tokens.len() / 8 - 1) as u64, 1);
                        flags_closed += 1;
                    }
                }
                if seg == segments - 1 && !tokens.len().is_multiple_of(8) {
                    // Flush the final partial group's flag byte.
                    t.shared_write(arena.flags + (tokens.len() / 8) as u64, 1);
                    flags_closed += 1;
                }
                t.charge_ops(emitted * V3_SELECT_OPS + flags_closed * V3_FLAG_OPS);
            });
        }
        debug_assert!(cursor == chunk.len() || chunk.is_empty());

        // Lane spans for the sizing/compaction phases: lane `tid` owns
        // the `positions_per_lane` consecutive positions starting at
        // `tid × positions_per_lane` (the tail lanes may own none).
        let positions_per_lane = chunk.len().div_ceil(t_per_block).max(1);
        let span_of = |tid: usize| {
            let lo = (tid * positions_per_lane).min(chunk.len());
            let hi = ((tid + 1) * positions_per_lane).min(chunk.len());
            lo..hi
        };

        // Phase 4: lane-local sizing — each lane reduces its bitmap
        // slice to a (token count, match count) pair and seeds the scan
        // arrays.
        let mut counts = vec![0u32; t_per_block];
        let mut mcounts = vec![0u32; t_per_block];
        for tid in 0..t_per_block {
            for p in span_of(tid) {
                if token_start[p] {
                    counts[tid] += 1;
                    if match_at[p] {
                        mcounts[tid] += 1;
                    }
                }
            }
        }
        block.par_threads(|t| {
            let span = span_of(t.tid);
            if !span.is_empty() {
                let slice_bytes = span.len().div_ceil(8) as u64;
                t.shared_bulk(2 * slice_bytes, 1);
                t.charge_ops(span.len() as u64 * V3_SIZE_OPS);
            }
            t.shared_write(arena.scan[0] + 2 * t.tid as u64, 2);
            t.shared_write(arena.scan[2] + 2 * t.tid as u64, 2);
        });
        debug_assert_eq!(counts.iter().sum::<u32>() as usize, tokens.len());
        debug_assert_eq!(mcounts.iter().sum::<u32>() as usize, match_count);

        // Phase 5: Hillis–Steele inclusive scan over the lane pairs —
        // the warp decoder's offset_table ping/pong shape, log2(block)
        // steps, every lane live every step.
        let (mut src, mut dst) = (0usize, 1usize);
        let mut stride = 1usize;
        while stride < t_per_block {
            block.par_threads(|t| {
                t.charge_ops(2 * V3_SCAN_OPS);
                t.shared_read(arena.scan[src] + 2 * t.tid as u64, 2);
                t.shared_read(arena.scan[2 + src] + 2 * t.tid as u64, 2);
                if t.tid >= stride {
                    t.shared_read(arena.scan[src] + 2 * (t.tid - stride) as u64, 2);
                    t.shared_read(arena.scan[2 + src] + 2 * (t.tid - stride) as u64, 2);
                }
                t.shared_write(arena.scan[dst] + 2 * t.tid as u64, 2);
                t.shared_write(arena.scan[2 + dst] + 2 * t.tid as u64, 2);
            });
            std::mem::swap(&mut src, &mut dst);
            stride *= 2;
        }
        // Exclusive per-lane bases fall out of the inclusive scan.
        let mut token_base = vec![0u32; t_per_block];
        let mut match_base = vec![0u32; t_per_block];
        for tid in 1..t_per_block {
            token_base[tid] = token_base[tid - 1] + counts[tid - 1];
            match_base[tid] = match_base[tid - 1] + mcounts[tid - 1];
        }

        // Phase 6: compaction — each lane re-walks its slice and
        // scatters its tokens into the staged body. Token `i`'s first
        // body byte sits at `i/8 + 1` flag bytes plus `i + matches
        // before i` payload bytes; the lane that owns a group's first
        // token also writes the group's flag byte, one byte earlier.
        block.par_threads(|t| {
            let span = span_of(t.tid);
            if span.is_empty() {
                return;
            }
            t.shared_bulk(2 * span.len().div_ceil(8) as u64, 1);
            let mut i = token_base[t.tid] as u64;
            let mut m = match_base[t.tid] as u64;
            for p in span {
                if !token_start[p] {
                    continue;
                }
                let offset = i / 8 + 1 + i + m;
                if i.is_multiple_of(8) {
                    t.shared_read(arena.flags + i / 8, 1);
                    t.shared_write(arena.body + offset - 1, 1);
                    t.charge_ops(V3_FLAG_OPS);
                }
                if match_at[p] {
                    t.shared_read(arena.matches + 2 * m, 2);
                    t.shared_write(arena.body + offset, 2);
                    t.charge_ops(V3_EMIT_MATCH_OPS);
                    m += 1;
                } else {
                    t.global_cached_bulk(1);
                    t.shared_write(arena.body + offset, 1);
                    t.charge_ops(V3_EMIT_LITERAL_OPS);
                }
                i += 1;
            }
        });

        let mut body = self.pool.acquire_bytes();
        format::encode_into(&tokens, &self.config, &mut body);
        debug_assert_eq!(
            body.len(),
            tokens.len().div_ceil(8) + tokens.len() + match_count,
            "staged-body model disagrees with the Fixed16 encoder"
        );
        self.pool.release_tokens(tokens);

        // Phase 7: coalesced writeback of the staged body — whole words,
        // lanes interleaved, the warp decoder's writeback idiom.
        let words = body.len().div_ceil(4);
        block.par_threads(|t| {
            let mine = words / t_per_block + usize::from(t.tid < words % t_per_block);
            if mine > 0 {
                t.shared_bulk(mine as u64, 1);
                t.global_bulk(4 * mine as u64, 4, true);
            }
        });

        body
    }
}

fn launch_config(input: &[u8], params: &CulzssParams) -> culzss_gpusim::LaunchConfig {
    culzss_gpusim::LaunchConfig {
        grid_dim: params.grid_dim(input.len()),
        block_dim: params.threads_per_block,
        shared_bytes: params.shared_bytes(),
    }
}

/// Runs the fused V3 kernel, returning the padding-free per-chunk bodies
/// in chunk order plus launch statistics. Token scratch and body buffers
/// come from `pool`; the caller returns the bodies via
/// [`BufferPool::release_all_bytes`] once the container is assembled.
pub fn run_pooled(
    sim: &culzss_gpusim::GpuSim,
    input: &[u8],
    params: &CulzssParams,
    pool: &BufferPool,
) -> Result<(Vec<Vec<u8>>, culzss_gpusim::exec::LaunchStats), culzss_gpusim::exec::LaunchError> {
    let kernel = V3CompressKernel::new(input, params, pool);
    let result = sim.launch(launch_config(input, params), &kernel)?;
    Ok((result.outputs, result.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metered::select_records_into;
    use culzss_datasets::Dataset;
    use culzss_gpusim::{DeviceSpec, GpuSim};

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(4)
    }

    fn run(
        sim: &GpuSim,
        input: &[u8],
        params: &CulzssParams,
    ) -> Result<(Vec<Vec<u8>>, culzss_gpusim::exec::LaunchStats), culzss_gpusim::exec::LaunchError>
    {
        run_pooled(sim, input, params, &BufferPool::new())
    }

    #[test]
    fn arena_fits_the_device_at_paper_defaults() {
        let params = CulzssParams::v3();
        let total = shared_bytes_for(&params);
        assert!(total <= DeviceSpec::gtx480().shared_mem_per_block, "arena {total} too large");
        // The pipeline regions stay resident even without shared staging.
        let mut unshared = params.clone();
        unshared.use_shared_memory = false;
        assert!(shared_bytes_for(&unshared) < total);
    }

    #[test]
    fn v3_bodies_equal_v2_selection_encoding() {
        let params = CulzssParams::v3();
        let v2 = CulzssParams::v2();
        let config = params.lzss_config();
        let s = sim();
        for dataset in Dataset::ALL {
            let input = dataset.generate(48 * 1024, 2011);
            let (bodies, _) = run(&s, &input, &params).unwrap();
            let (records, _) = crate::kernel_v2::run(&s, &input, &v2).unwrap();
            assert_eq!(bodies.len(), records.len());
            for ((chunk, recs), body) in input.chunks(params.chunk_size).zip(&records).zip(&bodies)
            {
                let mut tokens = Vec::new();
                select_records_into(chunk, recs, &config, &mut tokens);
                let mut expect = Vec::new();
                format::encode_into(&tokens, &config, &mut expect);
                assert_eq!(body, &expect, "{dataset:?}: V3 body diverged from V2+selection");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let params = CulzssParams::v3();
        let (bodies, _) = run(&sim(), b"", &params).unwrap();
        assert!(bodies.is_empty());
        let (bodies, _) = run(&sim(), b"x", &params).unwrap();
        assert_eq!(bodies.len(), 1);
        assert!(!bodies[0].is_empty());
    }

    #[test]
    fn selection_scan_compaction_are_race_free() {
        let input = b"fused kernel racecheck sample; repeat repeat repeat ".repeat(400);
        let (_, stats) = run(&sim().with_sanitizer(), &input, &CulzssParams::v3()).unwrap();
        let report = stats.sanitizer.as_ref().expect("an armed launch reports");
        assert!(report.is_clean(), "V3 kernel not race-free:\n{report}");
        assert!(report.checked_accesses > 0);
        assert!(stats.cost.cycles > 0.0);
    }

    #[test]
    fn no_global_record_traffic() {
        // V3's reason to exist at the memory level: V2 stores two u16s
        // per position; V3 stores only the compacted body.
        let s = sim();
        let input = Dataset::CFiles.generate(64 * 1024, 7);
        let (_, v2_stats) = crate::kernel_v2::run(&s, &input, &CulzssParams::v2()).unwrap();
        let (bodies, v3_stats) = run(&s, &input, &CulzssParams::v3()).unwrap();
        let body_bytes: usize = bodies.iter().map(Vec::len).sum();
        assert!(body_bytes > 0);
        assert!(
            v3_stats.metrics.global_transactions < v2_stats.metrics.global_transactions,
            "V3 global traffic {} should undercut V2 {}",
            v3_stats.metrics.global_transactions,
            v2_stats.metrics.global_transactions
        );
    }

    #[test]
    fn v3_beats_v2_on_total_pipeline_cycles() {
        // The tentpole claim: the fused engine spends more GPU cycles
        // (the selection walk serializes on one thread per segment) but
        // deletes V2's serial host pass, and the *total* modelled
        // pipeline — GPU + host, one cycle axis — comes out ahead on
        // most corpora.
        use crate::params::Version;
        let mut wins = 0usize;
        for dataset in Dataset::ALL {
            let input = dataset.generate(64 * 1024, 2011);
            let v2 = crate::Culzss::new(Version::V2).with_workers(4);
            let v3 = crate::Culzss::new(Version::V3).with_workers(4);
            let (_, s2) = v2.compress(&input).unwrap();
            let (_, s3) = v3.compress(&input).unwrap();
            let p2 = s2.launch.as_ref().unwrap().cost.cycles + s2.host_cycles;
            let p3 = s3.launch.as_ref().unwrap().cost.cycles + s3.host_cycles;
            println!(
                "{dataset:?}: v2 gpu {:.0} + host {:.0} = {p2:.0}; v3 gpu {:.0} + host 0 = {p3:.0}",
                s2.launch.as_ref().unwrap().cost.cycles,
                s2.host_cycles,
                s3.launch.as_ref().unwrap().cost.cycles,
            );
            if p3 < p2 {
                wins += 1;
            }
        }
        assert!(wins >= 3, "V3 won only {wins}/5 corpora on pipeline cycles");
    }
}
