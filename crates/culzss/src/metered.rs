//! Work-counted LZSS match search shared by the V1, V2 and V3 kernels.
//!
//! The kernels must (a) produce exactly the tokens the algorithm
//! specifies and (b) report how much machine work producing them took, so
//! the simulator's cost model can price the launch. The work is that of
//! the paper's per-thread window scan: candidates visited nearest first,
//! bytes compared until the first mismatch, the scan stopping at the
//! first full-length match. [`MatchSearcher`] returns the scan's match
//! and its [`Work`] record without running the scan byte by byte; see
//! its docs for how.
//!
//! The op-cost constants translate algorithmic counts into issued
//! instructions. They are the calibration surface of the reproduction
//! (DESIGN.md §6): one compared byte costs two loads, a comparison and a
//! branch plus index arithmetic; every candidate visit costs loop
//! overhead. They are deliberately coarse — the paper's comparisons span
//! datasets and implementations, so only relative magnitudes matter.

use culzss_lzss::config::LzssConfig;
use culzss_lzss::token::Token;

/// Issued instructions per compared byte pair (2 loads + cmp + branch +
/// addressing on a machine without fused compare-branch).
pub const OPS_PER_COMPARED_BYTE: u64 = 6;
/// Issued instructions of per-candidate loop overhead.
pub const OPS_PER_CANDIDATE: u64 = 4;
/// Issued instructions per emitted token (flag bookkeeping + stores).
pub const OPS_PER_TOKEN: u64 = 12;

/// Algorithmic work performed by a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Byte pairs compared.
    pub compared_bytes: u64,
    /// Window candidates visited.
    pub candidates: u64,
}

impl Work {
    /// Adds another work record.
    pub fn add(&mut self, other: Work) {
        self.compared_bytes += other.compared_bytes;
        self.candidates += other.candidates;
    }

    /// Issued-instruction estimate.
    pub fn ops(&self) -> u64 {
        self.compared_bytes * OPS_PER_COMPARED_BYTE + self.candidates * OPS_PER_CANDIDATE
    }

    /// Buffer (shared-memory) accesses: each compared pair touches the
    /// window byte and the lookahead byte.
    pub fn accesses(&self) -> u64 {
        self.compared_bytes * 2
    }
}

/// Positions one tile caches `E` for: the tile's own positions plus the
/// lookahead their searches read.
const SPAN: usize = 512;

/// A set of match distances, one bit per distance, the nearest
/// candidate in the highest bit (distance `d` is bit `128 − d` of a
/// `u128`).
trait Lanes: Copy + Eq {
    const EMPTY: Self;
    const ALL: Self;
    /// The distances `1..=n` (`n` at most the set's width).
    fn nearest_n(n: usize) -> Self;
    fn and(self, other: Self) -> Self;
    fn and_not(self, other: Self) -> Self;
    fn count(self) -> u64;
    /// The smallest distance of a non-empty set.
    fn nearest(self) -> usize;
    /// `E` of a byte whose previous occurrence lies `delta` back
    /// (at most the set's width) and has `E` = `self`: the same distances pushed
    /// `delta` further, plus `delta` itself.
    fn step(self, delta: usize) -> Self;
}

impl Lanes for u128 {
    const EMPTY: Self = 0;
    const ALL: Self = !0;

    fn nearest_n(n: usize) -> Self {
        if n == 0 {
            0
        } else {
            !0 << (128 - n)
        }
    }

    fn and(self, other: Self) -> Self {
        self & other
    }

    fn and_not(self, other: Self) -> Self {
        self & !other
    }

    fn count(self) -> u64 {
        u64::from(self.count_ones())
    }

    fn nearest(self) -> usize {
        self.leading_zeros() as usize + 1
    }

    fn step(self, delta: usize) -> Self {
        // Two shifts keep the amount below 128 when `delta == 128`.
        (self >> 1) >> (delta - 1) | (1 << 127) >> (delta - 1)
    }
}

/// Distances `1..=256`, for windows wider than 128 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Wide {
    /// Distances `1..=128`.
    near: u128,
    /// Distances `129..=256`.
    far: u128,
}

impl Lanes for Wide {
    const EMPTY: Self = Wide { near: 0, far: 0 };
    const ALL: Self = Wide { near: !0, far: !0 };

    fn nearest_n(n: usize) -> Self {
        if n <= 128 {
            Wide { near: u128::nearest_n(n), far: 0 }
        } else {
            Wide { near: !0, far: u128::nearest_n(n - 128) }
        }
    }

    fn and(self, other: Self) -> Self {
        Wide { near: self.near & other.near, far: self.far & other.far }
    }

    fn and_not(self, other: Self) -> Self {
        Wide { near: self.near & !other.near, far: self.far & !other.far }
    }

    fn count(self) -> u64 {
        self.near.count() + self.far.count()
    }

    fn nearest(self) -> usize {
        if self.near != 0 {
            self.near.nearest()
        } else {
            128 + self.far.nearest()
        }
    }

    fn step(self, delta: usize) -> Self {
        if delta <= 128 {
            let carried = if delta == 128 { self.near } else { self.near << (128 - delta) };
            Wide { near: self.near.step(delta), far: (self.far >> 1) >> (delta - 1) | carried }
        } else {
            Wide { near: 0, far: self.near.step(delta - 128) }
        }
    }
}

/// The window scan of one chunk, computed a tile of positions at a time.
///
/// Write `E(q)` for the set of distances `d` with `chunk[q] ==
/// chunk[q - d]`. A candidate at distance `d` matches `k` bytes at `pos`
/// exactly when `d` lies in `E(pos) ∩ … ∩ E(pos + k − 1)`, so the
/// candidates alive at level `k + 1` are those alive at level `k` ANDed
/// with `E(pos + k)`, and the deepest non-empty level is the longest
/// match, its nearest bit the scan's pick. Popcounts of the levels give
/// the scan's work: each candidate compares its match length plus the
/// mismatching byte. A tile computes every `E(q)` once, each from the
/// `E` of the previous occurrence of the same byte, and keeps van
/// Herk/Gil-Werman block ANDs of the `E`s, which give each position the
/// candidates that run a full `max_match` bytes in O(1). The nearest of
/// those is where the scan stops, so only the candidates up to it are
/// walked.
struct Tiles<'a, L: Lanes> {
    chunk: &'a [u8],
    window: usize,
    min_match: usize,
    max_match: usize,
    /// Positions per tile.
    tile: usize,
    /// The current tile searches `base..end` and caches `E` for
    /// `base..base + cached`, computed from `lo = base − window` on.
    base: usize,
    end: usize,
    cached: usize,
    lo: usize,
    /// `eq[q − lo]` = `E(q)` (exact within the window for `q >= base`).
    eq: [L; SPAN + 256],
    /// `full[q − base]`: AND of `E(q..q + max_match)`, the candidates
    /// that match `max_match` bytes at `q` (where that fits the cache).
    full: [L; SPAN],
    /// One past the latest position of each byte value seen by `fill`.
    last: [usize; 256],
}

impl<'a, L: Lanes> Tiles<'a, L> {
    fn new(chunk: &'a [u8], config: &LzssConfig) -> Self {
        Self {
            chunk,
            window: config.window_size,
            min_match: config.min_match,
            max_match: config.max_match,
            tile: (SPAN + 1).saturating_sub(config.max_match).max(1),
            base: 0,
            end: 0,
            cached: 0,
            lo: 0,
            eq: [L::EMPTY; SPAN + 256],
            full: [L::EMPTY; SPAN],
            last: [0; 256],
        }
    }

    /// Moves the tile to start at `base`.
    fn fill(&mut self, base: usize) {
        self.base = base;
        self.end = (base + self.tile).min(self.chunk.len());
        self.cached = (self.chunk.len() - base).min(SPAN);
        self.lo = base.saturating_sub(self.window);
        // Positions before `lo` are out of every window from `base` on,
        // so `E` restarts empty there.
        self.last = [0; 256];
        for q in self.lo..base + self.cached {
            let byte = usize::from(self.chunk[q]);
            let delta = q + 1 - self.last[byte];
            self.eq[q - self.lo] = if self.last[byte] == 0 || delta > self.window {
                L::EMPTY
            } else {
                self.eq[q - delta - self.lo].step(delta)
            };
            self.last[byte] = q + 1;
        }
        let m = self.max_match;
        if m > SPAN {
            return;
        }
        // Van Herk/Gil-Werman over blocks of `m`: the window `i..i + m`
        // is the suffix of `i`'s block ANDed with the prefix of the next
        // block up to `i + m − 1`. Suffixes first, into `full`; then
        // each block's running prefix folds into the previous block.
        let eq = &self.eq[base - self.lo..base - self.lo + self.cached];
        for (block, full) in eq.chunks(m).zip(self.full.chunks_mut(m)) {
            let mut suffix = L::ALL;
            for (e, f) in block.iter().zip(full.iter_mut()).rev() {
                suffix = suffix.and(*e);
                *f = suffix;
            }
        }
        for (next, full) in eq.chunks(m).skip(1).zip(self.full.chunks_mut(m)) {
            let mut prefix = L::ALL;
            for (e, f) in next.iter().zip(&mut full[1..]) {
                prefix = prefix.and(*e);
                *f = f.and(prefix);
            }
        }
    }

    /// `E(q)`; positions past the cache (only when `max_match` outgrows
    /// a tile) are computed on the spot.
    fn eq_at(&self, q: usize) -> L {
        if q < self.base + self.cached {
            return self.eq[q - self.lo];
        }
        let mut e = L::EMPTY;
        let mut last = None;
        for pos in q.saturating_sub(self.window)..=q {
            if self.chunk[pos] == self.chunk[q] {
                if let Some(prev) = last {
                    e = e.step(pos - prev);
                }
                last = Some(pos);
            }
        }
        e
    }

    /// The candidates at `pos` that match a full `max_match` bytes (bits
    /// past the window may be set too).
    fn full_length(&self, pos: usize) -> L {
        let m = self.max_match;
        if m > SPAN {
            let mut alive = self.eq_at(pos);
            for q in pos + 1..pos + m {
                if alive == L::EMPTY {
                    break;
                }
                alive = alive.and(self.eq_at(q));
            }
            return alive;
        }
        self.full[pos - self.base]
    }

    fn search(&mut self, pos: usize) -> PosMatch {
        if !(self.base..self.end).contains(&pos) {
            self.fill(pos);
        }
        let reach = self.window.min(pos);
        if reach == 0 {
            return PosMatch::default();
        }
        let limit = self.max_match.min(self.chunk.len() - pos);
        let mut candidates = reach;
        let mut alive = L::nearest_n(reach);
        // Candidates known to match all `limit` bytes: the scan stops at
        // the nearest full-length match, so it alone is kept.
        let mut full = L::EMPTY;
        if limit == self.max_match {
            let stops = self.full_length(pos).and(alive);
            if stops != L::EMPTY {
                candidates = stops.nearest();
                alive = L::nearest_n(candidates);
                full = stops.and(alive);
            }
        }
        let initial = candidates as u64;
        let mut count = initial;
        // Sum over levels 1..=level of the candidates alive there.
        let mut matched = 0u64;
        let mut level = 0;
        while level < limit {
            if alive.and_not(full) == L::EMPTY {
                matched += count * (limit - level) as u64;
                level = limit;
                break;
            }
            let next = alive.and(self.eq_at(pos + level));
            if next == L::EMPTY {
                break;
            }
            if next != alive {
                alive = next;
                count = alive.count();
            }
            matched += count;
            level += 1;
        }
        // Every candidate compares its match length, plus the mismatching
        // byte unless it ran to the limit.
        let at_limit = if level == limit { count } else { 0 };
        let work = Work { compared_bytes: matched + initial - at_limit, candidates: initial };
        if level >= self.min_match {
            PosMatch { distance: alive.nearest() as u16, length: level as u16, work }
        } else {
            PosMatch { distance: 0, length: 0, work }
        }
    }
}

/// Finds, for positions of one chunk, the match and [`Work`] of the
/// paper's per-thread window scan: candidates visited nearest first,
/// compared until the first mismatch (or `max_match`), the scan stopping
/// at the first full-length match, and ties kept at the smallest
/// distance. Matches never cross the chunk boundary (the slice *is* the
/// chunk).
///
/// The scan is computed with one bit per window candidate instead of a
/// byte loop per candidate (see DESIGN.md §6); records and work counts
/// are those of the byte loop. Positions are cheapest queried in
/// ascending order: each tile of positions is built once. The searcher
/// holds fixed-size tables and allocates nothing.
pub struct MatchSearcher<'a>(Searcher<'a>);

// Boxing the wide variant would put its tables on the heap, once per
// chunk; both variants live on the stack of the calling kernel thread.
#[allow(clippy::large_enum_variant)]
enum Searcher<'a> {
    Narrow(Tiles<'a, u128>),
    Wide(Tiles<'a, Wide>),
}

impl<'a> MatchSearcher<'a> {
    /// A searcher over `chunk` under `config`.
    ///
    /// # Panics
    ///
    /// If `config.window_size` exceeds 256 (the Fixed16 limit every
    /// CULZSS configuration obeys).
    pub fn new(chunk: &'a [u8], config: &LzssConfig) -> Self {
        assert!(config.window_size <= 256, "window {} exceeds 256", config.window_size);
        if config.window_size <= 128 {
            Self(Searcher::Narrow(Tiles::new(chunk, config)))
        } else {
            Self(Searcher::Wide(Tiles::new(chunk, config)))
        }
    }

    /// The scan's record at `pos` (`pos < chunk.len()`): distance and
    /// length of the match (both 0 when none reaches `min_match`) and
    /// the work the scan spent.
    pub fn search(&mut self, pos: usize) -> PosMatch {
        match &mut self.0 {
            Searcher::Narrow(tiles) => tiles.search(pos),
            Searcher::Wide(tiles) => tiles.search(pos),
        }
    }
}

/// Greedy parse with skipping — the serial/V1 processing order: matched
/// positions are not searched again. Appends into a reusable token
/// buffer (the allocation-free path of the pooled V1 kernel) and returns
/// the search work. Panics where [`MatchSearcher::new`] does.
pub fn greedy_parse_into(chunk: &[u8], config: &LzssConfig, tokens: &mut Vec<Token>) -> Work {
    let mut searcher = MatchSearcher::new(chunk, config);
    let mut work = Work::default();
    let mut pos = 0usize;
    while pos < chunk.len() {
        let m = searcher.search(pos);
        work.add(m.work);
        if m.length > 0 {
            tokens.push(Token::Match { distance: m.distance, length: m.length });
            pos += usize::from(m.length);
        } else {
            tokens.push(Token::Literal(chunk[pos]));
            pos += 1;
        }
    }
    work
}

/// Per-position match record produced by the V2 matching kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PosMatch {
    /// Match distance (0 = no match of at least `min_match`).
    pub distance: u16,
    /// Match length (0 = no match).
    pub length: u16,
    /// Work spent on this position (per-thread metering).
    pub work: Work,
}

/// The CPU-side selection pass of V2, directly over the raw
/// `(distance, length)` records the V2 kernel ships back: walk the
/// positions greedily, taking recorded matches and skipping the positions
/// they cover, appending into a reusable token buffer. Produces the same
/// tokens as [`greedy_parse_into`] would, with no intermediate
/// [`PosMatch`] array and no fresh token vector per chunk.
pub fn select_records_into(
    chunk: &[u8],
    records: &[(u16, u16)],
    config: &LzssConfig,
    tokens: &mut Vec<Token>,
) {
    debug_assert_eq!(chunk.len(), records.len());
    let mut pos = 0usize;
    while pos < chunk.len() {
        let (distance, length) = records[pos];
        if length as usize >= config.min_match {
            tokens.push(Token::Match { distance, length });
            pos += length as usize;
        } else {
            tokens.push(Token::Literal(chunk[pos]));
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_lzss::format::TokenFormat;
    use culzss_lzss::matchfind::{BruteForce, MatchFinder};
    use culzss_lzss::serial;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn v1() -> LzssConfig {
        crate::params::CulzssParams::v1().lzss_config()
    }

    fn v2() -> LzssConfig {
        crate::params::CulzssParams::v2().lzss_config()
    }

    /// The paper's per-thread window scan, byte by byte: the oracle the
    /// searcher must reproduce record for record and count for count.
    fn scan(chunk: &[u8], pos: usize, config: &LzssConfig) -> PosMatch {
        let window_start = pos.saturating_sub(config.window_size);
        let mut work = Work::default();
        let mut best = PosMatch::default();
        let limit = config.max_match.min(chunk.len() - pos);
        let mut candidate = pos;
        while candidate > window_start {
            candidate -= 1;
            work.candidates += 1;
            let mut len = 0usize;
            while len < limit && chunk[candidate + len] == chunk[pos + len] {
                len += 1;
            }
            // Compared bytes: every matched byte plus the mismatching pair
            // (when the loop stopped on a mismatch rather than the limit).
            work.compared_bytes += (len + usize::from(len < limit)) as u64;
            if len >= config.min_match && len > usize::from(best.length) {
                best = PosMatch { distance: (pos - candidate) as u16, length: len as u16, work };
                if len == config.max_match {
                    break;
                }
            }
        }
        PosMatch { work, ..best }
    }

    fn all_positions(chunk: &[u8], config: &LzssConfig) -> Vec<PosMatch> {
        let mut searcher = MatchSearcher::new(chunk, config);
        (0..chunk.len()).map(|p| searcher.search(p)).collect()
    }

    fn greedy_parse(chunk: &[u8], config: &LzssConfig) -> (Vec<Token>, Work) {
        let mut tokens = Vec::new();
        let work = greedy_parse_into(chunk, config, &mut tokens);
        (tokens, work)
    }

    /// Greedy parse over the oracle scan.
    fn greedy_scan(chunk: &[u8], config: &LzssConfig) -> (Vec<Token>, Work) {
        let (mut tokens, mut work, mut pos) = (Vec::new(), Work::default(), 0);
        while pos < chunk.len() {
            let m = scan(chunk, pos, config);
            work.add(m.work);
            if m.length > 0 {
                tokens.push(Token::Match { distance: m.distance, length: m.length });
                pos += usize::from(m.length);
            } else {
                tokens.push(Token::Literal(chunk[pos]));
                pos += 1;
            }
        }
        (tokens, work)
    }

    /// Random bytes over `alphabet` symbols, or (`alphabet == 0`) a
    /// random pattern of period 1..=40 with sparse noise.
    fn sample(rng: &mut SmallRng, alphabet: u32, len: usize) -> Vec<u8> {
        if alphabet > 0 {
            return (0..len).map(|_| rng.gen_range(0..alphabet) as u8).collect();
        }
        let pattern: Vec<u8> = (0..rng.gen_range(1..=40)).map(|_| rng.gen()).collect();
        (0..len)
            .map(
                |i| if rng.gen_range(0..200) == 0 { rng.gen() } else { pattern[i % pattern.len()] },
            )
            .collect()
    }

    fn assert_oracle(chunk: &[u8], config: &LzssConfig, what: &str) {
        for (pos, got) in all_positions(chunk, config).into_iter().enumerate() {
            assert_eq!(got, scan(chunk, pos, config), "{what} len {} pos {pos}", chunk.len());
        }
        assert_eq!(greedy_parse(chunk, config), greedy_scan(chunk, config), "{what} greedy");
    }

    #[test]
    fn searcher_reproduces_the_scan_across_configs_and_data() {
        let mut rng = SmallRng::seed_from_u64(19);
        for window in [1, 32, 64, 128, 129, 256] {
            for min_match in [2, 3] {
                for max_match in [min_match, 18, 32, 130] {
                    let config =
                        LzssConfig::custom(window, min_match, max_match, TokenFormat::Fixed16)
                            .unwrap();
                    for alphabet in [2, 3, 4, 256, 0] {
                        let len = rng.gen_range(0..=1200);
                        let chunk = sample(&mut rng, alphabet, len);
                        let what = format!("w{window} min{min_match} max{max_match} a{alphabet}");
                        assert_oracle(&chunk, &config, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn searcher_reproduces_the_scan_at_tile_and_chunk_edges() {
        // Lengths around the tile size (SPAN + 1 − max_match positions)
        // and the paper's 4 KiB chunk, plus every prefix ("chunk tail")
        // of a short chunk.
        let mut rng = SmallRng::seed_from_u64(4097);
        for config in [v1(), v2()] {
            let tile = SPAN + 1 - config.max_match;
            for len in [tile - 1, tile, tile + 1, SPAN, SPAN + 1, 2 * tile + 3, 4095, 4096, 4097] {
                for alphabet in [2, 4, 0] {
                    assert_oracle(&sample(&mut rng, alphabet, len), &config, "edge");
                }
            }
            for alphabet in [2, 3, 0] {
                let chunk = sample(&mut rng, alphabet, 200);
                for len in 0..=chunk.len() {
                    assert_oracle(&chunk[..len], &config, "tail");
                }
            }
        }
    }

    #[test]
    fn searcher_reproduces_the_scan_when_matches_outgrow_a_tile() {
        // max_match beyond SPAN: one position per tile, later levels
        // compared directly.
        // Noise-free periods at and below the window make runs longer
        // than a tile.
        let mut rng = SmallRng::seed_from_u64(555);
        for (window, min_match, max_match) in [(64, 300, 555), (200, 260, 515)] {
            let config =
                LzssConfig::custom(window, min_match, max_match, TokenFormat::Fixed16).unwrap();
            assert_oracle(&sample(&mut rng, 2, 1400), &config, "long random");
            for period in [1, 7, window] {
                let chunk: Vec<u8> = (0..1400).map(|i| (i % period) as u8).collect();
                assert_oracle(&chunk, &config, &format!("long period {period}"));
            }
        }
    }

    #[test]
    fn searcher_answers_positions_in_any_order() {
        let config = v2();
        let data = b"abcabcabc xyz xyz abcabc zzzzzzzzzzzzzz abc".repeat(40);
        let mut searcher = MatchSearcher::new(&data, &config);
        for pos in (0..data.len()).rev().step_by(7) {
            assert_eq!(searcher.search(pos), scan(&data, pos, &config), "pos {pos}");
        }
    }

    #[test]
    fn search_matches_brute_force_reference() {
        let config = v2();
        let data = b"abcabcabc xyz xyz abcabc zzzzzzzzzzzzzz abc".repeat(3);
        let mut reference = BruteForce::new();
        for (pos, m) in all_positions(&data, &config).into_iter().enumerate() {
            let want = reference.find(&data, pos, &config);
            assert_eq!(
                want.map_or((0, 0), |f| (f.distance as u16, f.length as u16)),
                (m.distance, m.length),
                "pos {pos}"
            );
            if pos > 0 {
                assert!(m.work.candidates > 0);
            }
        }
    }

    #[test]
    fn greedy_parse_equals_serial_tokenize() {
        for config in [v1(), v2()] {
            let data = b"the cat sat on the mat, the cat sat on the hat".repeat(4);
            let (tokens, _) = greedy_parse(&data, &config);
            assert_eq!(tokens, serial::tokenize(&data, &config));
        }
    }

    #[test]
    fn record_selection_reproduces_greedy_parse() {
        let config = v2();
        let data = b"select me, select me again, and again and again".repeat(5);
        let records: Vec<(u16, u16)> =
            all_positions(&data, &config).iter().map(|m| (m.distance, m.length)).collect();
        let mut tokens = vec![Token::Literal(99)]; // pre-existing content survives
        select_records_into(&data, &records, &config, &mut tokens);
        assert_eq!(tokens[0], Token::Literal(99));
        let (greedy, _) = greedy_parse(&data, &config);
        assert_eq!(&tokens[1..], greedy);
    }

    #[test]
    fn greedy_parse_into_appends() {
        let config = v2();
        let data = b"append me, append me, append me".repeat(3);
        let (expected, expected_work) = greedy_parse(&data, &config);
        let mut tokens = vec![Token::Literal(7)];
        let work = greedy_parse_into(&data, &config, &mut tokens);
        assert_eq!(&tokens[1..], expected);
        assert_eq!(work, expected_work);
    }

    #[test]
    fn skipping_saves_work_on_compressible_data() {
        // The paper's §V argument: serial/V1 skip matched positions, V2
        // cannot — on highly repetitive data the difference is large.
        let config = v2();
        let data: Vec<u8> = b"ABCDEFGHIJKLMNOPQRST".repeat(200); // period 20
        let (_, greedy_work) = greedy_parse(&data, &config);
        let full_work: u64 = all_positions(&data, &config).iter().map(|m| m.work.ops()).sum();
        assert!(
            full_work > greedy_work.ops() * 5,
            "full {} vs greedy {}",
            full_work,
            greedy_work.ops()
        );
    }

    #[test]
    fn work_scales_with_window_occupancy() {
        let config = v2();
        let data = vec![7u8; 600];
        // Early positions have small windows, later ones full windows,
        // but max-match early termination bounds the work per position.
        let matches = all_positions(&data, &config);
        let (early, late) = (matches[1], matches[500]);
        assert_eq!(usize::from(late.length), config.max_match);
        assert!(late.work.ops() >= early.work.ops());
    }

    #[test]
    fn no_match_is_reported_as_zero() {
        let m = MatchSearcher::new(b"abcdefgh", &v2()).search(4);
        assert_eq!((m.distance, m.length), (0, 0));
        assert_eq!(m.work, Work { compared_bytes: 4, candidates: 4 });
    }

    #[test]
    fn work_accessors() {
        let w = Work { compared_bytes: 10, candidates: 4 };
        assert_eq!(w.ops(), 10 * OPS_PER_COMPARED_BYTE + 4 * OPS_PER_CANDIDATE);
        assert_eq!(w.accesses(), 20);
        let mut acc = Work::default();
        acc.add(w);
        acc.add(w);
        assert_eq!(acc.compared_bytes, 20);
    }

    /// Search time, scalar scan against the searcher, per corpus: every
    /// position under the V1 and V2 configurations (what the V2 and V3
    /// kernels search) and the greedy parse under V1 (what the V1 kernel
    /// searches), over 4 KiB chunks of a 1 MiB sample. The two run
    /// alternately, nine times each; the table shows medians. Timing
    /// only; run with `cargo test --release -p culzss --lib -- --ignored
    /// --nocapture search_time`.
    #[test]
    #[ignore]
    fn search_time() {
        use std::hint::black_box;
        use std::time::Instant;
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let race = |scalar: &dyn Fn(&[u8]), fast: &dyn Fn(&[u8]), data: &[u8]| {
            let time = |f: &dyn Fn(&[u8])| {
                let t = Instant::now();
                data.chunks(4096).for_each(f);
                t.elapsed().as_secs_f64() * 1e3
            };
            let runs: Vec<(f64, f64)> = (0..9).map(|_| (time(scalar), time(fast))).collect();
            (
                median(runs.iter().map(|r| r.0).collect()),
                median(runs.iter().map(|r| r.1).collect()),
                median(runs.iter().map(|r| r.0 / r.1).collect()),
            )
        };
        println!("| corpus | search | scalar ms | searcher ms | speedup |");
        println!("|---|---|---:|---:|---:|");
        for dataset in culzss_datasets::Dataset::EVERY {
            let data = dataset.generate(1 << 20, 7);
            for (name, config, greedy) in
                [("all, V1", v1(), false), ("all, V2", v2(), false), ("greedy, V1", v1(), true)]
            {
                let scalar = |chunk: &[u8]| {
                    if greedy {
                        black_box(greedy_scan(chunk, &config));
                    } else {
                        (0..chunk.len()).for_each(|p| {
                            black_box(scan(chunk, p, &config));
                        });
                    }
                };
                let fast = |chunk: &[u8]| {
                    if greedy {
                        black_box(greedy_parse(chunk, &config));
                    } else {
                        let mut searcher = MatchSearcher::new(chunk, &config);
                        (0..chunk.len()).for_each(|p| {
                            black_box(searcher.search(p));
                        });
                    }
                };
                let (scalar, fast, speedup) = race(&scalar, &fast, &data);
                println!(
                    "| {} | {name} | {scalar:.1} | {fast:.1} | {speedup:.2}× |",
                    dataset.slug()
                );
            }
        }
    }
}
