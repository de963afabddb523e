//! GPU decompression: one compressed chunk per block, with two engines.
//!
//! "To distribute the work across the GPU cores, we need to identify
//! which block of compressed data needs to be decompressed into the
//! corresponding decompressed data block. To achieve this, we keep a list
//! of block compression sizes that are recorded during compression." The
//! container's chunk table is exactly that list.
//!
//! Two decode engines share it:
//!
//! * [`DecodeEngine::Serial`] — the paper-faithful block decoder. Each
//!   block decodes its chunk serially (decoding is a data-dependent
//!   chain, so only one lane does useful work — which is why the paper
//!   sees a modest 2.5–3.5× speedup here, not 18×).
//! * [`DecodeEngine::WarpParallel`] — a two-pass decoder in the style of
//!   Sitaridi's *Massively-Parallel Lossless Data Decompression* and
//!   CODAG. Pass 1 scans the token stream into a per-token output-offset
//!   table (a parallel prefix sum over the flag/length fields); pass 2
//!   resolves all literals in one parallel phase and back-reference
//!   copies in dependency-wavefront order. The serial dependent chain
//!   shrinks to (a) a cheap flag-byte walk and (b) one barrier per
//!   dependency level, so cycle counts drop wherever match chains are
//!   shallow — and honestly do *not* drop on deeply chained data
//!   (run-length-like corpora), which the cost model shows.

use std::cell::RefCell;

use culzss_gpusim::exec::{BlockCtx, BlockKernel, LaunchStats, ThreadCtx};
use culzss_gpusim::{DeviceSpec, GpuSim, LaunchConfig, PhaseShape};
use culzss_lzss::config::LzssConfig;
use culzss_lzss::error::Error;
use culzss_lzss::format::TokenFormat;
use culzss_lzss::token::Token;
use culzss_lzss::{format, serial, token};

/// Issued instructions per decoded token (flag test, field extraction,
/// branch — serial dependent chain, so effectively latency-priced).
pub const DEC_OPS_PER_TOKEN: u64 = 40;
/// Issued instructions per output byte (window copy or literal store).
pub const DEC_OPS_PER_BYTE: u64 = 14;

// Warp-parallel pricing. The serial constants above price a *dependent*
// chain: every token decode waits on the previous one, so the 40-op
// per-token figure folds issue plus exposed latency into one number. The
// two-pass decoder breaks the chain; what remains per token is pure
// issue work, split across the passes below. Summed, pass 1 charges
// `6/8 + 12 + 4·log/T + 2 ≈ 15` ops per token — the issue component of
// the serial 40 with the exposed latency removed — and pass 2 charges
// 4–5 ops per output byte against the serial 14 for the same reason.
// Every shared access additionally charges one issue op in the meter, so
// the modelled totals stay within ~2× of a hand count of the real inner
// loops; the win the cycle counters show comes from distributing those
// ops over 32-lane warps, not from pricing the same work cheaper.

/// Pass 1a: serial flag-byte walk, per 8-token group (cached flag fetch,
/// popcount, offset accumulate).
pub const WARP_GROUP_SCAN_OPS: u64 = 6;
/// Pass 1b: per-token field extraction into the table (branch-free
/// unpack of flag bit + 1–2 field bytes).
pub const WARP_TOKEN_PARSE_OPS: u64 = 12;
/// Pass 1c: per element, per Hillis–Steele scan step.
pub const WARP_PREFIX_OPS: u64 = 4;
/// Pass 1d: per token, folding the group base into the final offset.
pub const WARP_TOKEN_OFFSET_OPS: u64 = 2;
/// Pass 2: per literal byte (table lookup math + store setup; the staging
/// store itself is metered as a shared access).
pub const WARP_LITERAL_OPS: u64 = 4;
/// Pass 2: per match, address setup before the copy loop.
pub const WARP_MATCH_SETUP_OPS: u64 = 8;
/// Pass 2: per copied match byte (index math; the staging load/store pair
/// is metered as shared accesses).
pub const WARP_COPY_OPS: u64 = 2;

/// Selects the decode kernel. The default is the paper-faithful serial
/// block decoder; every byte-level behaviour (outputs *and* typed errors)
/// is identical across engines — only the modelled execution differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeEngine {
    /// One lane per block replays the dependent decode chain (paper
    /// behaviour).
    #[default]
    Serial,
    /// Two-pass warp-parallel decode: offset-table scan, then parallel
    /// literal resolution and dependency-ordered back-reference copies.
    WarpParallel,
}

impl DecodeEngine {
    /// Stable lowercase name (CLI flags, bench cell ids).
    pub fn name(self) -> &'static str {
        match self {
            DecodeEngine::Serial => "serial",
            DecodeEngine::WarpParallel => "warp",
        }
    }

    /// Parses a CLI-style engine name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serial" => Some(DecodeEngine::Serial),
            "warp" | "warp-parallel" => Some(DecodeEngine::WarpParallel),
            _ => None,
        }
    }
}

/// The serial decompression kernel: grid = chunk count.
pub struct DecompressKernel<'a> {
    /// Concatenated compressed chunk bodies (device global memory).
    pub payload: &'a [u8],
    /// Per-chunk layout: payload range and uncompressed length.
    pub layout: &'a [(std::ops::Range<usize>, usize)],
    /// Token configuration of the stream.
    pub config: LzssConfig,
}

impl BlockKernel for DecompressKernel<'_> {
    /// Decoded chunk bytes, or the decode error.
    type Output = Result<Vec<u8>, Error>;

    fn run_block(&self, block: &mut BlockCtx) -> Result<Vec<u8>, Error> {
        let (range, unc_len) = &self.layout[block.block_idx];
        let body = &self.payload[range.clone()];
        let mut out = Err(Error::UnexpectedEof { context: "chunk body" });
        block.single_thread(|t| {
            // One fused pass writes the chunk and counts its tokens. A
            // chunk that fails it (or a flag-bit body) reruns as token
            // decode + expand, so the error, and the token ops charged
            // before it, are the ones the warp engine reports.
            let fused = match self.config.format {
                TokenFormat::Fixed16 => {
                    let mut bytes = Vec::new();
                    serial::decode_fixed16_into(body, &self.config, *unc_len, &mut bytes)
                        .ok()
                        .map(|n_tokens| (bytes, n_tokens))
                }
                TokenFormat::FlagBit { .. } => None,
            };
            let decoded = match fused {
                Some((bytes, n_tokens)) => {
                    t.charge_ops(n_tokens as u64 * DEC_OPS_PER_TOKEN);
                    Ok(bytes)
                }
                None => format::decode(body, &self.config, *unc_len).and_then(|tokens| {
                    t.charge_ops(tokens.len() as u64 * DEC_OPS_PER_TOKEN);
                    token::expand(&tokens, &self.config)
                }),
            };
            // Compressed bytes stream through L1 (sequential single-lane
            // reads); output writes are sequential too.
            t.global_cached_bulk(body.len() as u64);
            t.charge_ops(*unc_len as u64 * DEC_OPS_PER_BYTE);
            t.global_bulk(*unc_len as u64, 1, true);
            out = decoded;
        });
        out
    }
}

/// Per-token output offsets: the prefix sum of [`Token::coverage`]. This
/// is the table pass 1 of the warp decoder materializes; `offsets[i]` is
/// the position where token `i`'s first output byte lands, so the table
/// exactly partitions the serial decoder's output positions (pinned by
/// the decode proptests).
pub fn offset_table(tokens: &[Token]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(tokens.len());
    fill_offsets(tokens, &mut offsets);
    offsets
}

/// [`offset_table`] into a reused buffer.
fn fill_offsets(tokens: &[Token], offsets: &mut Vec<usize>) {
    offsets.clear();
    let mut pos = 0usize;
    for t in tokens {
        offsets.push(pos);
        pos += t.coverage();
    }
}

/// Dependency wavefront levels for pass 2: literals are level 0; a match
/// is one level above the deepest token producing any of its source bytes
/// *before* its own start (self-overlapping bytes resolve in-lane).
/// Fills per-token levels and returns the maximum, which is the number of
/// barrier-separated copy rounds the kernel executes.
///
/// Every token covers at least one byte, so `offsets` strictly increases:
/// a binary search finds the token holding a match's first source byte,
/// and the producers are it and the earlier tokens after it that start
/// before the source run ends. The tokens lying wholly between that byte
/// and the match number fewer than `distance`, so the search only needs
/// the last `distance` offsets.
fn fill_levels(tokens: &[Token], offsets: &[usize], levels: &mut Vec<u32>) -> u32 {
    levels.clear();
    let mut max_level = 0;
    for (i, token) in tokens.iter().enumerate() {
        let level = match *token {
            Token::Literal(_) => 0,
            Token::Match { distance, length } => {
                let src = offsets[i] - usize::from(distance);
                let end = src + usize::from(length);
                let near = i.saturating_sub(usize::from(distance));
                let first = near + offsets[near..i].partition_point(|&o| o <= src) - 1;
                let deepest = (first..i)
                    .take_while(|&j| offsets[j] < end)
                    .map(|j| levels[j])
                    .max()
                    .unwrap_or(0);
                deepest + 1
            }
        };
        max_level = max_level.max(level);
        levels.push(level);
    }
    max_level
}

/// Buckets the matches by copy round in one pass over the tokens. Round
/// `r`'s matches end up in `matches[starts[r]..starts[r + 1]]`, grouped
/// by lane in ascending lane order and in token order within a lane:
/// exactly the matches, and the order, that a strided `levels[i] == r`
/// scan hands each lane.
fn fill_rounds(
    levels: &[u32],
    max_level: u32,
    block_dim: usize,
    starts: &mut Vec<usize>,
    matches: &mut Vec<u32>,
) {
    // Counting sort by level. Each level's count sits two slots up, so
    // after the prefix sum `starts[r + 1]` is round r's first slot; using
    // it as round r's write cursor leaves it at round r's end, which is
    // where round r + 1 begins.
    let rounds = max_level as usize;
    starts.clear();
    starts.resize(rounds + 3, 0);
    for &level in levels {
        if level > 0 {
            starts[level as usize + 2] += 1;
        }
    }
    for r in 1..starts.len() {
        starts[r] += starts[r - 1];
    }
    matches.clear();
    matches.resize(starts[rounds + 2], 0);
    for lane in 0..block_dim {
        for i in (lane..levels.len()).step_by(block_dim) {
            let level = levels[i] as usize;
            if level > 0 {
                matches[starts[level + 1]] = i as u32;
                starts[level + 1] += 1;
            }
        }
    }
}

/// Host tables behind one warp-decoded block. Each launch worker keeps
/// one and reuses it from block to block, so once the tables have grown
/// to the largest chunk, decoding a chunk allocates only its output.
#[derive(Debug, Default)]
struct WarpScratch {
    /// The chunk's token stream.
    tokens: Vec<Token>,
    /// Pass 1's per-token output offsets.
    offsets: Vec<usize>,
    /// Per-token dependency level (0 for literals).
    levels: Vec<u32>,
    /// Round `r` copies `round_matches[round_starts[r]..round_starts[r + 1]]`.
    round_starts: Vec<usize>,
    /// Match token indices ordered by (level, lane, index).
    round_matches: Vec<u32>,
}

thread_local! {
    /// Launch workers are host threads, so this is one table set per
    /// worker.
    static WARP_SCRATCH: RefCell<WarpScratch> = RefCell::new(WarpScratch::default());
}

/// Pass 2's copy rounds over a block whose tokens and offsets are in the
/// scratch; the last argument is the staged output's shared base.
type CopyRounds = fn(&mut BlockCtx, &mut WarpScratch, u64);

/// Pass 2, rounds 1..=max_level: back-reference copies in dependency
/// order. A match at level r only reads bytes written at levels < r
/// (earlier phases) or by its own lane (overlap), so each round is
/// race-free; the barrier between rounds is the real cost of deep chains
/// and is charged per round. Each round visits only its own matches.
fn bucketed_copy_rounds(block: &mut BlockCtx, s: &mut WarpScratch, out_base: u64) {
    let block_dim = block.block_dim;
    let max_level = fill_levels(&s.tokens, &s.offsets, &mut s.levels);
    fill_rounds(&s.levels, max_level, block_dim, &mut s.round_starts, &mut s.round_matches);
    let s = &*s;
    let lane_of = |i: u32| i as usize % block_dim;
    for round in 1..=max_level as usize {
        let matches = &s.round_matches[s.round_starts[round]..s.round_starts[round + 1]];
        // The round's matches come grouped by ascending lane, and only
        // the lanes holding one of them run.
        let lanes = matches.chunk_by(|&a, &b| lane_of(a) == lane_of(b));
        block.par_threads_with(lanes.map(|mine| (lane_of(mine[0]), mine)), |t, mine| {
            for &i in mine {
                copy_match(t, s.tokens[i as usize], s.offsets[i as usize], out_base);
            }
        });
    }
}

/// One lane's copy of one match into the staged output, byte by byte.
fn copy_match(t: &mut ThreadCtx, token: Token, offset: usize, out_base: u64) {
    if let Token::Match { distance, length } = token {
        let dst = out_base + offset as u64;
        let src = dst - u64::from(distance);
        let length = u64::from(length);
        t.charge_ops(WARP_MATCH_SETUP_OPS + length * WARP_COPY_OPS);
        for k in 0..length {
            t.shared_read(src + k, 1);
            t.shared_write(dst + k, 1);
        }
    }
}

/// The two-pass warp-parallel decompression kernel: grid = chunk count.
///
/// Shared-memory layout per block (all offsets block-relative, sized for
/// the chunk's actual token count; the launch reserves the worst case):
///
/// ```text
/// [offset table: 2 B/token][group offsets: 2 B/group]
/// [scan ping: 2 B/group][scan pong: 2 B/group][staged output: unc_len B]
/// ```
///
/// Every staging access is logged exactly so armed launches racecheck
/// the full discipline: writes are partitioned by token (pass 1), by
/// output byte (pass 2), and reads only touch bytes resolved in an
/// earlier phase — or the lane's own in-flight copy for overlapping
/// matches, which is same-thread and therefore not a hazard.
pub struct WarpDecompressKernel<'a> {
    /// Concatenated compressed chunk bodies (device global memory).
    pub payload: &'a [u8],
    /// Per-chunk layout: payload range and uncompressed length.
    pub layout: &'a [(std::ops::Range<usize>, usize)],
    /// Token configuration of the stream.
    pub config: LzssConfig,
}

impl BlockKernel for WarpDecompressKernel<'_> {
    /// Decoded chunk bytes, or the decode error.
    type Output = Result<Vec<u8>, Error>;

    fn run_block(&self, block: &mut BlockCtx) -> Result<Vec<u8>, Error> {
        WARP_SCRATCH.with_borrow_mut(|s| self.decode_block(block, s, bucketed_copy_rounds))
    }
}

impl WarpDecompressKernel<'_> {
    fn decode_block(
        &self,
        block: &mut BlockCtx,
        s: &mut WarpScratch,
        copy_rounds: CopyRounds,
    ) -> Result<Vec<u8>, Error> {
        let (range, unc_len) = &self.layout[block.block_idx];
        let body = &self.payload[range.clone()];

        // Functional decode up front: token stream and typed errors are
        // byte-identical to the serial engine by construction.
        if let Err(e) = format::decode_into(body, &self.config, *unc_len, &mut s.tokens) {
            // The structural scan still ran before the bad group or
            // truncation was hit; charge it and surface the error.
            block.single_thread(|t| {
                t.charge_ops((body.len() as u64 / 8 + 1) * WARP_GROUP_SCAN_OPS);
                t.global_cached_bulk(body.len() as u64);
            });
            return Err(e);
        }
        let mut out = Vec::with_capacity(*unc_len);
        if let Err(e) = token::expand_into(&s.tokens, &self.config, &mut out) {
            block.single_thread(|t| {
                t.charge_ops(s.tokens.len() as u64 * WARP_TOKEN_PARSE_OPS);
                t.global_cached_bulk(body.len() as u64);
            });
            return Err(e);
        }
        fill_offsets(&s.tokens, &mut s.offsets);
        let tokens = &s.tokens;
        let offsets = &s.offsets;

        let n_tokens = tokens.len();
        let groups = n_tokens.div_ceil(8).max(1);
        let block_dim = block.block_dim;

        // Shared arena layout (see type docs).
        let offs_base = 0u64;
        let goff_base = offs_base + 2 * n_tokens as u64;
        let scan_a = goff_base + 2 * groups as u64;
        let scan_b = scan_a + 2 * groups as u64;
        let out_base = scan_b + 2 * groups as u64;

        // Pass 1a (serial, tid 0): flag-byte walk. Group g's byte offset
        // is the running sum of `1 + tokens + matches` over groups before
        // it — the only part of the format that is a true dependent
        // chain, and it touches one byte per 8 tokens. Its stores are
        // 2-byte values at even addresses from a lone lane, so unless the
        // sanitizer needs to see them they are priced in closed form.
        let sanitized = block.sanitized();
        block.single_thread(|t| {
            t.charge_ops(groups as u64 * WARP_GROUP_SCAN_OPS);
            t.global_cached_bulk(groups as u64);
            if sanitized {
                for g in 0..groups {
                    t.shared_write(goff_base + 2 * g as u64, 2);
                }
            } else {
                t.shared_lone_lane_bulk(groups as u64);
            }
        });

        // Passes 1b and 1c log accesses that follow from `groups` and the
        // base of the group offsets: the ping buffer sits 2 · groups bytes
        // past it, and the base is 2 · tokens, so it sits at either parity
        // of a word. Pass 1b's ops and L1 fetches follow the literal/match
        // mix and run per lane; pass 1c only meters.
        let group_scan = PhaseShape {
            phase: "warp.group_scan",
            shape: groups as u32,
            params: 0,
            global_bases: [0; 2],
            shared_base: goff_base,
        };
        block.replay_memory(
            group_scan,
            |block| {
                // Pass 1b (parallel over groups): unpack each group's
                // tokens and reduce the group's output coverage into the
                // scan ping buffer.
                block.par_threads(|t| {
                    let mut ops = 0u64;
                    let mut cached = 0u64;
                    for g in (t.tid..groups).step_by(block_dim) {
                        t.shared_read(goff_base + 2 * g as u64, 2);
                        let lo = g * 8;
                        let hi = (lo + 8).min(n_tokens);
                        for tok in &tokens[lo..hi] {
                            ops += WARP_TOKEN_PARSE_OPS;
                            // Flag bit plus 1 (literal) or 2 (match) field
                            // bytes through L1.
                            cached += match tok {
                                Token::Literal(_) => 1,
                                Token::Match { .. } => 2,
                            };
                        }
                        t.shared_write(scan_a + 2 * g as u64, 2);
                    }
                    if ops > 0 {
                        t.charge_ops(ops);
                        t.global_cached_bulk(cached);
                    }
                });
            },
            |block| {
                // Pass 1c: Hillis–Steele inclusive scan over the per-group
                // coverages, ping-pong buffered so each step only reads
                // values the previous phase wrote. ⌈log2(groups)⌉ barriers.
                let (mut src, mut dst) = (scan_a, scan_b);
                let mut stride = 1usize;
                while stride < groups {
                    block.par_threads(|t| {
                        let mut ops = 0u64;
                        for g in (t.tid..groups).step_by(block_dim) {
                            ops += WARP_PREFIX_OPS;
                            t.shared_read(src + 2 * g as u64, 2);
                            if g >= stride {
                                t.shared_read(src + 2 * (g - stride) as u64, 2);
                            }
                            t.shared_write(dst + 2 * g as u64, 2);
                        }
                        if ops > 0 {
                            t.charge_ops(ops);
                        }
                    });
                    std::mem::swap(&mut src, &mut dst);
                    stride *= 2;
                }
            },
        );
        // Each step swaps the buffers, so the sums end in the ping buffer
        // after an even number of steps.
        let steps = groups.next_power_of_two().trailing_zeros();
        let src = if steps.is_multiple_of(2) { scan_a } else { scan_b };

        // Pass 1d (parallel over groups): fold the exclusive group base
        // (inclusive sum of the *previous* group) into per-token offsets.
        // The intra-group coverages are still register-resident from 1b
        // (same lane ↔ same groups), so only the base is re-read.
        block.par_threads(|t| {
            let mut ops = 0u64;
            for g in (t.tid..groups).step_by(block_dim) {
                if g > 0 {
                    t.shared_read(src + 2 * (g - 1) as u64, 2);
                }
                let lo = g * 8;
                let hi = (lo + 8).min(n_tokens);
                for i in lo..hi {
                    ops += WARP_TOKEN_OFFSET_OPS;
                    t.shared_write(offs_base + 2 * i as u64, 2);
                }
            }
            if ops > 0 {
                t.charge_ops(ops);
            }
        });

        // Pass 2, round 0 (parallel over tokens): every literal lands
        // independently — one staging store each, no ordering.
        block.par_threads(|t| {
            let mut literals = 0u64;
            for i in (t.tid..n_tokens).step_by(block_dim) {
                if let Token::Literal(_) = tokens[i] {
                    literals += 1;
                    t.shared_write(out_base + offsets[i] as u64, 1);
                }
            }
            if literals > 0 {
                t.charge_ops(literals * WARP_LITERAL_OPS);
                t.global_cached_bulk(literals);
            }
        });

        copy_rounds(block, s, out_base);

        // Writeback: staged chunk streams to global memory in coalesced
        // 4-byte words, lanes striding the chunk together.
        block.par_threads(|t| {
            let words = out.len().div_ceil(4);
            let mine = words / block_dim + usize::from(t.tid < words % block_dim);
            if mine > 0 {
                t.shared_bulk(mine as u64, 1);
                t.global_bulk(4 * mine as u64, 4, true);
            }
        });

        Ok(out)
    }
}

/// Worst-case shared bytes per block for [`WarpDecompressKernel`] on a
/// chunk of `chunk` uncompressed bytes: an all-literal chunk has one
/// token per byte (offset table `2·chunk`), `chunk/8` flag groups (three
/// 2-byte tables), plus the staged output. 15 360 B at the paper's 4 KiB
/// chunk — inside the GTX 480's 16 KiB arena.
pub fn warp_shared_bytes(chunk: usize) -> usize {
    2 * chunk + 6 * chunk.div_ceil(8) + chunk
}

fn warp_launch_config(
    layout: &[(std::ops::Range<usize>, usize)],
    threads_per_block: usize,
) -> LaunchConfig {
    let worst = layout.iter().map(|(_, unc)| warp_shared_bytes(*unc)).max().unwrap_or(0);
    LaunchConfig::new(layout.len(), threads_per_block).with_shared(worst)
}

/// True when the warp engine's staging arena fits the device. Oversized
/// chunks (only possible via foreign containers — our encoders cap
/// chunks at 4 KiB) fall back to the serial engine rather than failing,
/// mirroring how a real launcher would pick the fitting kernel variant.
pub fn warp_engine_fits(device: &DeviceSpec, layout: &[(std::ops::Range<usize>, usize)]) -> bool {
    layout.iter().all(|(_, unc)| warp_shared_bytes(*unc) <= device.shared_mem_per_block)
}

/// Runs GPU decompression over a parsed container payload with the
/// selected engine, returning the decoded chunks in order plus launch
/// statistics (with the sanitizer's verdict when `sim` is armed).
pub fn run_with_engine(
    sim: &GpuSim,
    payload: &[u8],
    layout: &[(std::ops::Range<usize>, usize)],
    config: &LzssConfig,
    threads_per_block: usize,
    engine: DecodeEngine,
) -> Result<(Vec<Vec<u8>>, LaunchStats), crate::error::CulzssError> {
    let config = config.clone();
    // Oversized chunks fall back to the serial engine (see
    // [`warp_engine_fits`]).
    let result = match engine {
        DecodeEngine::WarpParallel if warp_engine_fits(sim.device(), layout) => sim.launch(
            warp_launch_config(layout, threads_per_block),
            &WarpDecompressKernel { payload, layout, config },
        )?,
        _ => sim.launch(
            LaunchConfig::new(layout.len(), threads_per_block),
            &DecompressKernel { payload, layout, config },
        )?,
    };
    let chunks = result.outputs.into_iter().collect::<Result<Vec<_>, Error>>()?;
    Ok((chunks, result.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CulzssParams;
    use culzss_gpusim::{DeviceSpec, GpuSim};

    fn sim() -> GpuSim {
        GpuSim::new(DeviceSpec::gtx480()).with_workers(4)
    }

    fn chunked(
        input: &[u8],
        params: &CulzssParams,
    ) -> (Vec<u8>, Vec<(std::ops::Range<usize>, usize)>) {
        let config = params.lzss_config();
        let mut payload = Vec::new();
        let mut layout = Vec::new();
        for chunk in input.chunks(params.chunk_size) {
            let body = format::encode(&serial::tokenize(chunk, &config), &config);
            let start = payload.len();
            payload.extend_from_slice(&body);
            layout.push((start..payload.len(), chunk.len()));
        }
        (payload, layout)
    }

    #[test]
    fn decodes_chunks_in_order() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let input = b"gpu decompression block parallel over chunk table ".repeat(500);
        let (payload, layout) = chunked(&input, &params);

        let (chunks, stats) = run_with_engine(
            &sim(),
            &payload,
            &layout,
            &config,
            params.threads_per_block,
            DecodeEngine::Serial,
        )
        .unwrap();
        let restored: Vec<u8> = chunks.concat();
        assert_eq!(restored, input);
        assert_eq!(stats.grid_dim, layout.len());
        assert!(stats.metrics.warp_issue_ops > 0.0);
    }

    #[test]
    fn corrupt_chunk_surfaces_an_error() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let chunk = b"corrupt me please, corrupt me please";
        let body = format::encode(&serial::tokenize(chunk, &config), &config);
        let layout = vec![(0..body.len(), chunk.len() + 5)]; // wrong length
        for engine in [DecodeEngine::Serial, DecodeEngine::WarpParallel] {
            let err = run_with_engine(&sim(), &body, &layout, &config, 128, engine);
            assert!(err.is_err());
        }
    }

    #[test]
    fn single_lane_execution_shows_divergence() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let chunk = vec![9u8; 4096];
        let body = format::encode(&serial::tokenize(&chunk, &config), &config);
        let layout = vec![(0..body.len(), chunk.len())];
        let (_, stats) =
            run_with_engine(&sim(), &body, &layout, &config, 128, DecodeEngine::Serial).unwrap();
        // Only lane 0 works: warp-serialized ops ≈ thread ops (factor 32
        // divergence), the structural reason decompression speedups are
        // modest in the paper.
        assert!(stats.metrics.divergence_factor(32) > 16.0);
    }

    #[test]
    fn warp_engine_matches_serial_bytes_exactly() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let input = b"the quick brown fox jumps over the lazy dog. ".repeat(700);
        let (payload, layout) = chunked(&input, &params);
        let (serial_chunks, _) =
            run_with_engine(&sim(), &payload, &layout, &config, 128, DecodeEngine::Serial).unwrap();
        let (warp_chunks, _) =
            run_with_engine(&sim(), &payload, &layout, &config, 128, DecodeEngine::WarpParallel)
                .unwrap();
        assert_eq!(serial_chunks, warp_chunks);
        assert_eq!(warp_chunks.concat(), input);
    }

    #[test]
    fn warp_engine_beats_serial_cycles_on_text() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let input = b"int main(void) { return culzss_decode(argv[1]); } /* gpu */ ".repeat(600);
        let (payload, layout) = chunked(&input, &params);
        let (_, serial_stats) =
            run_with_engine(&sim(), &payload, &layout, &config, 128, DecodeEngine::Serial).unwrap();
        let (_, warp_stats) =
            run_with_engine(&sim(), &payload, &layout, &config, 128, DecodeEngine::WarpParallel)
                .unwrap();
        assert!(
            warp_stats.cost.cycles * 2.0 <= serial_stats.cost.cycles,
            "warp {} vs serial {} cycles",
            warp_stats.cost.cycles,
            serial_stats.cost.cycles
        );
        // And the structural reason: the warp engine keeps its lanes busy.
        assert!(
            warp_stats.metrics.divergence_factor(32) < serial_stats.metrics.divergence_factor(32)
        );
    }

    #[test]
    fn warp_engine_is_race_free_under_the_sanitizer() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        // Overlapping matches (run of one byte) + mixed text: the
        // self-overlap copies must not read as races.
        let mut input = vec![b'z'; 6000];
        input.extend_from_slice(&b"mixed tail with its own matches, matches, matches".repeat(40));
        let (payload, layout) = chunked(&input, &params);
        let (chunks, stats) = run_with_engine(
            &sim().with_sanitizer(),
            &payload,
            &layout,
            &config,
            128,
            DecodeEngine::WarpParallel,
        )
        .unwrap();
        let sanitizer = stats.sanitizer.expect("an armed launch reports");
        assert!(sanitizer.is_clean(), "{sanitizer}");
        assert!(sanitizer.checked_accesses > 0);
        assert_eq!(chunks.concat(), input);
    }

    #[test]
    fn offset_table_is_the_coverage_prefix_sum() {
        let config = LzssConfig::culzss_v1();
        let input = b"abcabcabcabc swizzle swizzle".repeat(20);
        let tokens = serial::tokenize(&input, &config);
        let offsets = offset_table(&tokens);
        let expanded = token::expand(&tokens, &config).unwrap();
        let mut pos = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(offsets[i], pos);
            pos += t.coverage();
        }
        assert_eq!(pos, expanded.len());
    }

    /// The copy rounds as first written, kept as the oracle for the
    /// bucketed rounds: levels come from a per-byte producer map, and
    /// every round rescans every token for the ones at its level.
    fn rescan_copy_rounds(block: &mut BlockCtx, s: &mut WarpScratch, out_base: u64) {
        let tokens = &s.tokens;
        let offsets = &s.offsets;
        let (levels, max_level) = producer_map_levels(tokens, offsets);
        let n_tokens = tokens.len();
        let block_dim = block.block_dim;
        for round in 1..=max_level {
            block.par_threads(|t| {
                for i in (t.tid..n_tokens).step_by(block_dim) {
                    if levels[i] != round {
                        continue;
                    }
                    if let Token::Match { distance, .. } = &tokens[i] {
                        let start = offsets[i] as u64;
                        let src_start = start - u64::from(*distance);
                        t.charge_ops(WARP_MATCH_SETUP_OPS);
                        for k in 0..tokens[i].coverage() as u64 {
                            t.charge_ops(WARP_COPY_OPS);
                            t.shared_read(out_base + src_start + k, 1);
                            t.shared_write(out_base + start + k, 1);
                        }
                    }
                }
            });
        }
    }

    /// Dependency levels from a map of which token produced each output
    /// byte.
    fn producer_map_levels(tokens: &[Token], offsets: &[usize]) -> (Vec<u32>, u32) {
        let total = tokens.iter().map(Token::coverage).sum();
        let mut producer = vec![0u32; total];
        let mut level = vec![0u32; tokens.len()];
        let mut max_level = 0u32;
        for (i, t) in tokens.iter().enumerate() {
            let start = offsets[i];
            let cover = t.coverage();
            if let Token::Match { distance, .. } = t {
                let src = start - *distance as usize;
                let deepest = (src..(src + cover).min(start))
                    .map(|p| level[producer[p] as usize])
                    .max()
                    .unwrap_or(0);
                level[i] = deepest + 1;
                max_level = max_level.max(level[i]);
            }
            for slot in producer.iter_mut().skip(start).take(cover) {
                *slot = i as u32;
            }
        }
        (level, max_level)
    }

    /// The warp decoder with the oracle's copy rounds, on fresh tables.
    struct RescanKernel<'a>(WarpDecompressKernel<'a>);

    impl BlockKernel for RescanKernel<'_> {
        type Output = Result<Vec<u8>, Error>;

        fn run_block(&self, block: &mut BlockCtx) -> Result<Vec<u8>, Error> {
            self.0.decode_block(block, &mut WarpScratch::default(), rescan_copy_rounds)
        }
    }

    /// Runs the warp decoder and the rescanning oracle under the
    /// sanitizer and asserts they are indistinguishable: outputs (typed
    /// errors included), per-block metrics and sanitizer reports.
    fn assert_rounds_match_the_rescan_oracle(
        what: &str,
        payload: &[u8],
        layout: &[(std::ops::Range<usize>, usize)],
        config: &LzssConfig,
    ) {
        let sim = sim().with_sanitizer();
        let kernel = || WarpDecompressKernel { payload, layout, config: config.clone() };
        let cfg = warp_launch_config(layout, 128);
        let bucketed = sim.launch(cfg, &kernel()).unwrap();
        let rescan = sim.launch(cfg, &RescanKernel(kernel())).unwrap();
        assert_eq!(bucketed.outputs, rescan.outputs, "{what}: outputs");
        assert_eq!(bucketed.stats.per_block, rescan.stats.per_block, "{what}: per-block metrics");
        assert_eq!(bucketed.stats.sanitizer, rescan.stats.sanitizer, "{what}: sanitizer reports");
        // The scratch is reused across launches too: a second launch on
        // warm tables must observe the same.
        let again = sim.launch(cfg, &kernel()).unwrap();
        assert_eq!(again.outputs, rescan.outputs, "{what}: outputs on warm scratch");
        assert_eq!(again.stats.per_block, rescan.stats.per_block, "{what}: warm metrics");
    }

    #[test]
    fn bucketed_rounds_match_the_rescan_oracle_on_every_corpus() {
        for params in [CulzssParams::v1(), CulzssParams::v2()] {
            let config = params.lzss_config();
            for dataset in culzss_datasets::Dataset::ALL {
                let input = dataset.generate(6 * 4096 + 123, 2011);
                let (payload, layout) = chunked(&input, &params);
                assert_rounds_match_the_rescan_oracle(dataset.slug(), &payload, &layout, &config);
            }
        }
    }

    #[test]
    fn bucketed_rounds_match_the_rescan_oracle_on_a_deep_run() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        // A run of one byte: every match copies from the one before it.
        let mut input = vec![b'r'; 4096];
        input.extend_from_slice(&b"ab".repeat(2048));
        let (payload, layout) = chunked(&input, &params);
        let tokens = format::decode(&payload[layout[0].0.clone()], &config, 4096).unwrap();
        let (_, rounds) = producer_map_levels(&tokens, &offset_table(&tokens));
        assert!(rounds >= 100, "only {rounds} dependency rounds");
        assert_rounds_match_the_rescan_oracle("run", &payload, &layout, &config);
    }

    #[test]
    fn bucketed_rounds_match_the_rescan_oracle_at_chunk_edges() {
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let data = culzss_datasets::Dataset::ALL[0].generate(4097, 7);
        for len in [0usize, 1, 4096, 4097] {
            let (payload, mut layout) = chunked(&data[..len], &params);
            if layout.is_empty() {
                // An empty input still launches as one empty chunk.
                layout.push((0..0, 0));
            }
            assert_rounds_match_the_rescan_oracle(&format!("{len} B"), &payload, &layout, &config);
        }
        // A chunk whose stated length disagrees with its body: both
        // kernels must fail it the same way.
        let (payload, mut layout) = chunked(&data[..4096], &params);
        layout[0].1 += 5;
        assert_rounds_match_the_rescan_oracle("bad length", &payload, &layout, &config);
    }

    #[test]
    fn binary_search_levels_match_the_producer_map() {
        let params = CulzssParams::v2();
        let config = params.lzss_config();
        let mut levels = Vec::new();
        for dataset in culzss_datasets::Dataset::ALL {
            let input = dataset.generate(4 * 4096, 99);
            for chunk in input.chunks(params.chunk_size) {
                let tokens = serial::tokenize(chunk, &config);
                let offsets = offset_table(&tokens);
                let max_level = fill_levels(&tokens, &offsets, &mut levels);
                assert_eq!((levels.clone(), max_level), producer_map_levels(&tokens, &offsets));
            }
        }
    }

    #[test]
    fn oversized_chunks_fall_back_to_the_serial_engine() {
        let device = DeviceSpec::gtx480();
        let huge = vec![(0..10usize, 8 * 1024usize)];
        assert!(!warp_engine_fits(&device, &huge));
        let fine = vec![(0..10usize, 4096usize)];
        assert!(warp_engine_fits(&device, &fine));
    }
}
