//! CULZSS Version 3: V2's match phase plus GPU-resident selection and
//! prefix-sum compaction.
//!
//! V2 stops where the paper stops: the kernel records a match candidate
//! for every position and ships the raw `(offset, length)` arrays back so
//! the **CPU** can run the serial selection walk and emit the flagged
//! stream (§III-B3 "CPU steps"). GPULZ-style engines keep those steps
//! on-device — greedy selection, a prefix sum over encoded sizes, and a
//! compaction scatter into a padding-free body — leaving the host only
//! container header/CRC assembly. The V3 kernel fuses it all into one
//! launch, one block per chunk:
//!
//! 1. **Match** — V2's own segment loop,
//!    [`ChunkMatcher::match_segment`](crate::kernel_v2): the same refill,
//!    search and metering, except that each thread parks its record in a
//!    segment-local shared ring instead of storing two `u16`s to global
//!    memory. The records never leave the chip.
//! 2. **Select** — after each segment's records land, one thread runs
//!    the greedy walk over the segment with the semantics of the host
//!    pass, [`crate::metered::select_records_into`]: take a ≥ `min_match`
//!    record and skip the covered positions, else emit a literal. It marks
//!    token boundaries and match positions in two shared bitmaps, appends
//!    match codes to a dense array, and accumulates the group flag bytes.
//!    The model prices the walk as one serialized phase per segment; the
//!    win comes from deleting the host pass, not from parallel selection.
//! 3. **Size + scan** — every lane reduces its slice of the bitmaps to a
//!    `(tokens, matches)` pair, and a Hillis–Steele inclusive scan (the
//!    warp decoder's `offset_table` ping/pong shape) turns the pairs into
//!    per-lane output bases.
//! 4. **Compact** — each lane scatters the tokens that start in its slice
//!    into a staged body: a flag byte per 8-token group, a literal re-read
//!    through L1, or a 2-byte match code from the dense array. A final
//!    pass writes the body back in coalesced 4-byte words.
//!
//! The walk can end a segment mid-match, up to `max_match − 1` positions
//! into the next segment; [`crate::params::CulzssParams::validate`]
//! enforces `max_match ≤ threads_per_block` for V3, so it always resumes
//! inside the next segment's ring, never past it. On the host, the only
//! per-position state is the record array; compaction walks the token
//! list itself, since each lane's tokens are one contiguous run of it.
//! Refill, sizing and scan log accesses that follow from the segment
//! fill and the chunk length alone, so unarmed launches price them once
//! per shape and replay them ([`culzss_gpusim::replay`]). The match
//! phase's accesses (window broadcast, lookahead spans, ring stores)
//! follow from the remaining length too, so it replays its memory while
//! its search ops run per lane. The body
//! bytes come from the Fixed16 encoder, so a V3 stream is byte-identical
//! to V2's (pinned by `tests/differential.rs` and the golden fixtures).

use culzss_gpusim::exec::{BlockCtx, BlockKernel};
use culzss_gpusim::PhaseShape;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::format;
use culzss_lzss::token::Token;

use crate::kernel_v2::{staging_bytes, ChunkMatcher, MatchRecord};
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
        // V2's match staging buffer sits at offset 0 and the pipeline
        // regions follow it; without shared staging they start at 0.
        let staging = if params.use_shared_memory { staging_bytes(params) } else { 0 };
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

/// Staged-body position of token `i`'s first byte when `m` matches
/// precede it: `i/8 + 1` flag bytes (its own group's included), one byte
/// per earlier literal or match, and a second byte per earlier match.
fn body_offset(i: u64, m: u64) -> u64 {
    i / 8 + 1 + i + m
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
        let mut matcher = ChunkMatcher::new(self.input, block.block_idx, self.params, &self.config);
        let chunk = matcher.chunk;
        let arena = Arena::new(self.params);
        let t_per_block = block.block_dim;

        let mut records: Vec<MatchRecord> = vec![(0, 0); chunk.len()];
        let mut tokens = self.pool.acquire_tokens();
        let mut match_count = 0usize;
        let mut cursor = 0usize;

        let segments = chunk.len().div_ceil(t_per_block);
        for seg in 0..segments {
            let seg_base = seg * t_per_block;
            let seg_end = ((seg + 1) * t_per_block).min(chunk.len());
            // Phases 1–2: V2's refill and match, except that each record
            // is parked in the segment ring instead of stored to global
            // memory, so it never leaves the chip.
            matcher.match_segment(block, seg_base, ("v3.match", [0; 2]), |t, p, rec| {
                records[p] = rec;
                t.shared_write(arena.rec + 2 * t.tid as u64, 2);
            });
            // Phase 3: greedy selection walk over this segment's records
            // — one thread, the exact semantics of the V2 host pass
            // (`select_records_into`). The cursor may resume mid-segment
            // (a match from the previous segment covered the first
            // positions) and may leave up to max_match − 1 positions into
            // the next one.
            block.single_thread(|t| {
                let before = tokens.len();
                let mut flags_closed = 0u64;
                while cursor < seg_end {
                    t.shared_read(arena.rec + 2 * (cursor - seg_base) as u64, 2);
                    let (distance, length) = records[cursor];
                    t.shared_write(arena.tok_bitmap + (cursor / 8) as u64, 1);
                    if length as usize >= self.config.min_match {
                        t.shared_write(arena.match_bitmap + (cursor / 8) as u64, 1);
                        t.shared_write(arena.matches + 2 * match_count as u64, 2);
                        match_count += 1;
                        tokens.push(Token::Match { distance, length });
                        cursor += length as usize;
                    } else {
                        tokens.push(Token::Literal(chunk[cursor]));
                        cursor += 1;
                    }
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
                let emitted = (tokens.len() - before) as u64;
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

        // Phases 4–5 depend only on the chunk length and the block
        // width: the scan arrays sit at fixed multiples of the lane
        // array size past `arena.scan[0]`.
        let size_scan = PhaseShape {
            phase: "v3.size_scan",
            shape: chunk.len() as u32,
            params: 0,
            global_bases: [0; 2],
            shared_base: arena.scan[0],
        };
        block.replay_phases(size_scan, |block| {
            // Phase 4: lane-local sizing — each lane reduces its bitmap
            // slice to a (token count, match count) pair and seeds the
            // scan arrays.
            block.par_threads(|t| {
                let span = span_of(t.tid);
                if !span.is_empty() {
                    t.shared_bulk(2 * span.len().div_ceil(8) as u64, 1);
                    t.charge_ops(span.len() as u64 * V3_SIZE_OPS);
                }
                t.shared_write(arena.scan[0] + 2 * t.tid as u64, 2);
                t.shared_write(arena.scan[2] + 2 * t.tid as u64, 2);
            });

            // Phase 5: Hillis–Steele inclusive scan over the lane pairs —
            // the warp decoder's offset_table ping/pong shape,
            // log2(block) steps, every lane live every step.
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
        });

        // Phase 6: compaction — each lane re-walks its slice and scatters
        // the tokens that start in it into the staged body at
        // `body_offset`; the lane that owns a group's first token also
        // writes the group's flag byte, one byte earlier. Tokens come in
        // position order and lanes own ascending slices, so each lane's
        // tokens are the next run of `tokens`, and running counts give
        // every token's index `i` and the matches `m` before it.
        let (mut i, mut m, mut pos) = (0usize, 0u64, 0usize);
        block.par_threads(|t| {
            let span = span_of(t.tid);
            if span.is_empty() {
                return;
            }
            t.shared_bulk(2 * span.len().div_ceil(8) as u64, 1);
            while pos < span.end {
                let offset = body_offset(i as u64, m);
                if i.is_multiple_of(8) {
                    t.shared_read(arena.flags + (i / 8) as u64, 1);
                    t.shared_write(arena.body + offset - 1, 1);
                    t.charge_ops(V3_FLAG_OPS);
                }
                if tokens[i].is_match() {
                    t.shared_read(arena.matches + 2 * m, 2);
                    t.shared_write(arena.body + offset, 2);
                    t.charge_ops(V3_EMIT_MATCH_OPS);
                    m += 1;
                } else {
                    t.global_cached_bulk(1);
                    t.shared_write(arena.body + offset, 1);
                    t.charge_ops(V3_EMIT_LITERAL_OPS);
                }
                pos += tokens[i].coverage();
                i += 1;
            }
        });

        let mut body = self.pool.acquire_bytes();
        format::encode_into(&tokens, &self.config, &mut body);
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
    let result = sim.launch(params.launch_config(input.len()), &kernel)?;
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

    /// Phase 6 prices each token's staged store at `body_offset`; the
    /// bytes themselves come from the Fixed16 encoder, so the two must
    /// agree on where every token and flag byte lands.
    #[test]
    fn body_offsets_locate_every_token_in_the_encoded_body() {
        let params = CulzssParams::v2();
        let config = params.lzss_config();
        let s = sim();
        for dataset in Dataset::ALL {
            let input = dataset.generate(48 * 1024 + 77, 2011);
            let (records, _) = crate::kernel_v2::run(&s, &input, &params).unwrap();
            for (chunk, recs) in input.chunks(params.chunk_size).zip(&records) {
                let mut tokens = Vec::new();
                select_records_into(chunk, recs, &config, &mut tokens);
                let mut body = Vec::new();
                format::encode_into(&tokens, &config, &mut body);
                let mut m = 0u64;
                for (i, token) in tokens.iter().enumerate() {
                    let at = body_offset(i as u64, m) as usize;
                    if i % 8 == 0 {
                        let mut group = Vec::new();
                        format::encode_into(
                            &tokens[i..(i + 8).min(tokens.len())],
                            &config,
                            &mut group,
                        );
                        assert_eq!(
                            body[at - 1],
                            group[0],
                            "{dataset:?}: flag byte of group {}",
                            i / 8
                        );
                    }
                    let mut code = Vec::new();
                    format::encode_into(std::slice::from_ref(token), &config, &mut code);
                    assert_eq!(
                        &body[at..at + code.len() - 1],
                        &code[1..],
                        "{dataset:?}: token {i}"
                    );
                    m += u64::from(token.is_match());
                }
                let n = tokens.len();
                assert_eq!(body.len(), n.div_ceil(8) + n + m as usize, "{dataset:?}: body length");
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
