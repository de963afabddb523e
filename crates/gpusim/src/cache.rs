//! Set-associative cache simulation (Fermi L1 geometry).
//!
//! The cost model prices L1-cached global traffic with a constant
//! ([`crate::device::DeviceSpec::l1_hit_cycles`]); this module provides
//! the exact machinery to *validate* that constant for a given access
//! pattern: an LRU set-associative cache with Fermi L1 geometry (16 KB
//! or 48 KB per SM, 128-byte lines). The validation test at the bottom
//! replays the V1 kernel's per-thread streaming pattern and confirms
//! the near-perfect hit rate the constant assumes.

/// One simulated cache (per SM in the intended use).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line size in bytes (power of two).
    line_bytes: usize,
    /// Number of sets (power of two).
    sets: usize,
    /// Associativity (ways per set).
    ways: usize,
    /// `tags[set * ways + way]` = line tag, or `u64::MAX` when invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `capacity_bytes` with `ways`-way sets and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (capacity not divisible
    /// into `ways × line` sets, or non-power-of-two line/sets).
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Cache {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(ways > 0);
        assert_eq!(capacity_bytes % (ways * line_bytes), 0, "capacity must divide evenly");
        let sets = capacity_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_bytes,
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Fermi L1 in the 16 KB configuration (48 KB shared): 4-way, 128 B
    /// lines — the paper's configuration.
    pub fn fermi_l1_16k() -> Cache {
        Cache::new(16 * 1024, 4, 128)
    }

    /// Touches `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.line_bytes as u64;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let base = set * self.ways;

        // Hit path.
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU way.
        self.misses += 1;
        let victim = (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Touches a byte span, one access per covered line.
    pub fn access_span(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let first = addr / self.line_bytes as u64;
        let last = (addr + bytes - 1) / self.line_bytes as u64;
        for line in first..=last {
            self.access(line * self.line_bytes as u64);
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::fermi_l1_16k();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(127)); // same line
        assert!(!c.access(128)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny cache: 2 sets × 2 ways × 16 B lines = 64 B.
        let mut c = Cache::new(64, 2, 16);
        // All map to set 0: line numbers 0, 2, 4 (even lines).
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(64)); // evicts line 32 (LRU)
        assert!(c.access(0));
        assert!(!c.access(32)); // was evicted
    }

    #[test]
    fn working_set_within_capacity_hits_fully() {
        let mut c = Cache::fermi_l1_16k();
        // 8 KB working set, scanned twice.
        for pass in 0..2 {
            for addr in (0..8 * 1024u64).step_by(128) {
                let hit = c.access(addr);
                if pass == 1 {
                    assert!(hit, "second pass must hit at {addr}");
                }
            }
        }
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn streaming_beyond_capacity_thrashes() {
        let mut c = Cache::fermi_l1_16k();
        // 1 MB scanned twice: second pass misses too (capacity evictions).
        for _ in 0..2 {
            for addr in (0..1 << 20u64).step_by(128) {
                c.access(addr);
            }
        }
        assert!(c.hit_rate() < 0.01, "{}", c.hit_rate());
    }

    #[test]
    fn span_access_touches_every_line() {
        let mut c = Cache::fermi_l1_16k();
        c.access_span(100, 300); // lines 0,1,2,3 (byte 100..400)
        assert_eq!(c.hits() + c.misses(), 4);
        c.access_span(0, 0);
        assert_eq!(c.hits() + c.misses(), 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::fermi_l1_16k();
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }

    /// Teaching test: V1's *naively aligned* per-thread layout (32 lanes
    /// × 4 KB-aligned chunks) maps every lane's current line into the
    /// same L1 set (line = lane×32 + i/128 ⇒ set = (i/128) mod 32 for
    /// all lanes), so a 4-way L1 thrashes completely. This is the classic
    /// GPU set-conflict pitfall that padding cures (next test), and why
    /// the cost model's cached path assumes a padded/staggered layout.
    #[test]
    fn aligned_per_thread_chunks_thrash_the_l1() {
        let mut c = Cache::fermi_l1_16k();
        let lanes = 32u64;
        let chunk = 4096u64;
        for i in 0..chunk {
            for lane in 0..lanes {
                c.access(lane * chunk + i);
            }
        }
        assert!(c.hit_rate() < 0.01, "hit rate {}", c.hit_rate());
    }

    /// Padding each lane's chunk by one line breaks the set aliasing:
    /// warp-lockstep streaming then hits L1 on every byte after each
    /// line's first touch — the behaviour the V1 kernel's
    /// `global_bulk(len, 128, false)` + `global_cached_bulk(len)` split
    /// models.
    #[test]
    fn padded_per_thread_chunks_validate_the_model_split() {
        let mut c = Cache::fermi_l1_16k();
        let lanes = 32u64;
        let chunk = 4096u64;
        let stride = chunk + 128; // one line of padding per lane
        for i in 0..chunk {
            for lane in 0..lanes {
                c.access(lane * stride + i);
            }
        }
        let total = lanes * chunk;
        let expected_misses = total / 128;
        assert_eq!(c.misses(), expected_misses, "hit rate {}", c.hit_rate());
        assert!(c.hit_rate() > 0.99);
    }

    /// With the padded layout, per-thread 128-byte hot windows (32 lanes
    /// = 4 KB footprint) stay fully resident once warm — the basis for
    /// pricing window reads at `l1_hit_cycles` instead of DRAM latency in
    /// the shared-vs-global ablation.
    #[test]
    fn padded_window_pattern_stays_resident() {
        let mut c = Cache::fermi_l1_16k();
        let lanes = 32u64;
        let stride = 4096u64 + 128;
        for round in 0..100u64 {
            for lane in 0..lanes {
                for off in (0..128u64).step_by(16) {
                    let hit = c.access(lane * stride + off);
                    if round > 0 {
                        assert!(hit, "round {round} lane {lane} off {off}");
                    }
                }
            }
        }
        assert!(c.hit_rate() > 0.99);
    }
}
