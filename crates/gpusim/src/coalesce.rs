//! Warp-level memory-access analysis: global-memory coalescing and
//! shared-memory bank conflicts.
//!
//! These are the two effects the paper's optimization section is built
//! around: "memory accesses must be coalesced … anytime an access is needed
//! to an address from a block, the entire block must be transferred", and
//! "the shared memory is divided into banks … if there are conflicts, the
//! accesses are serialized". The analytics below are applied to logged
//! per-warp access lists (exact path) and reused in closed form by the bulk
//! metering helpers (fast path).
//!
//! The exact analytics neither allocate nor hash. An instruction with one
//! active lane is priced from its span alone. A wider one is sorted by
//! address in place; identical lane accesses (a broadcast) then
//! sit next to each other and fold into one span before anything is
//! expanded, and overlapping spans merge. Coalescing counts the union of
//! the spans' segments; bank conflicts count the union's distinct words
//! per bank in a caller-owned [`BankCounts`] array sized by the device's
//! bank count. [`strided_conflict_ways`] feeds the same counter, so bank
//! conflicts have one implementation.

/// One logged memory access: starting byte address and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Starting byte address (device address space is flat per buffer).
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
}

impl Access {
    /// Inclusive `[first, last]` range of `unit`-byte blocks the access
    /// touches, or `None` for a zero-byte access.
    fn span(self, unit: u64) -> Option<(u64, u64)> {
        (self.bytes > 0).then(|| {
            let last = self.addr + u64::from(self.bytes) - 1;
            if unit.is_power_of_two() {
                // Every real segment and bank width: shift, not divide.
                let shift = unit.trailing_zeros();
                (self.addr >> shift, last >> shift)
            } else {
                (self.addr / unit, last / unit)
            }
        })
    }
}

/// Number of `segment_bytes`-aligned segments touched by one warp-wide
/// memory instruction — i.e. the number of global-memory transactions it
/// issues on Fermi-class hardware.
///
/// `accesses` holds the per-thread accesses of a single warp instruction
/// (usually at most `warp_size` entries; inactive threads are simply
/// absent). The slice is sorted by address in place.
pub fn transactions_for_warp(accesses: &mut [Access], segment_bytes: u64) -> u64 {
    debug_assert!(segment_bytes.is_power_of_two());
    if let [access] = *accesses {
        return transactions_for_access(access, segment_bytes);
    }
    accesses.sort_unstable_by_key(|a| a.addr);
    let mut count = 0;
    for_each_run(accesses.iter().filter_map(|a| a.span(segment_bytes)), |(first, last)| {
        count += last - first + 1;
    });
    count
}

/// [`transactions_for_warp`] for an instruction with one active lane:
/// the segments its single access touches, with no sort or merge.
fn transactions_for_access(access: Access, segment_bytes: u64) -> u64 {
    access.span(segment_bytes).map_or(0, |(first, last)| last - first + 1)
}

/// Merges inclusive `[first, last]` spans, sorted by `first`, into
/// disjoint runs and hands each run to `f`: identical spans (a broadcast)
/// fold into one before anything is expanded, and overlapping or adjacent
/// spans join.
fn for_each_run(mut spans: impl Iterator<Item = (u64, u64)>, mut f: impl FnMut((u64, u64))) {
    let Some(mut run) = spans.next() else {
        return;
    };
    for (first, last) in spans {
        if first <= run.1 + 1 {
            run.1 = run.1.max(last);
        } else {
            f(run);
            run = (first, last);
        }
    }
    f(run);
}

/// Serialized shared-memory cycles for one warp-wide access instruction.
///
/// The shared memory has one 4-byte-wide bank per counter in `counts`.
/// Distinct threads hitting distinct 4-byte words in the same bank
/// serialize; multiple threads reading the *same* word broadcast in a
/// single cycle (Fermi broadcast rule). The returned value is the number
/// of serialized bank cycles, i.e. `1` for a conflict-free access, `n` for
/// an `n`-way conflict, and `0` when no access touches a byte. The slice
/// is sorted by address in place.
pub fn shared_conflict_cycles(accesses: &mut [Access], counts: &mut BankCounts) -> u64 {
    if let [access] = *accesses {
        return counts.access_cycles(access);
    }
    accesses.sort_unstable_by_key(|a| a.addr);
    counts.degree(accesses.iter().filter_map(|a| a.span(4)))
}

/// Per-bank distinct-word counters: the one bank-conflict routine behind
/// [`shared_conflict_cycles`] and [`strided_conflict_ways`]. Holds one
/// fixed count per bank, so a meter keeps a single instance and reuses
/// it for every warp instruction. Between instructions every counter is
/// zero; an instruction resets only the banks it touched. A bank's count
/// never exceeds the instruction's access count, so `u32` holds it.
#[derive(Debug, Clone)]
pub struct BankCounts {
    words: Vec<u32>,
    /// Banks the current instruction counted into (each listed once).
    touched: Vec<u32>,
}

impl BankCounts {
    /// Counters for a shared memory of `banks` 4-byte banks.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "shared memory needs at least one bank");
        Self { words: vec![0; banks], touched: Vec::with_capacity(banks) }
    }

    /// Serialized cycles of an instruction with one active lane: a single
    /// span of `n` words covers every bank `n / banks` times, plus once
    /// more for a partial remainder, so no bank needs counting.
    fn access_cycles(&self, access: Access) -> u64 {
        let banks = self.words.len() as u64;
        match access.span(4) {
            None => 0,
            Some((first, last)) if last - first < banks => 1,
            Some((first, last)) => (last - first + 1).div_ceil(banks),
        }
    }

    /// The conflict degree of a set of words: the largest number of
    /// distinct words that map to one bank (0 for no words). `spans` are
    /// inclusive word ranges sorted by their first word.
    fn degree(&mut self, spans: impl Iterator<Item = (u64, u64)>) -> u64 {
        let Self { words, touched } = self;
        let banks = words.len();
        // A run of n words covers every bank n / banks times; only the
        // remainder needs per-bank counting, and its words sit in
        // consecutive banks from the first word's.
        let mut rounds = 0;
        let mut deepest = 0;
        for_each_run(spans, |(first, last)| {
            let mut n = last - first + 1;
            if n >= banks as u64 {
                rounds += n / banks as u64;
                n %= banks as u64;
            }
            let mut bank = if banks.is_power_of_two() {
                first as usize & (banks - 1)
            } else {
                (first % banks as u64) as usize
            };
            for _ in 0..n {
                if words[bank] == 0 {
                    touched.push(bank as u32);
                }
                words[bank] += 1;
                deepest = deepest.max(words[bank]);
                bank += 1;
                if bank == banks {
                    bank = 0;
                }
            }
        });
        for &bank in touched.iter() {
            words[bank as usize] = 0;
        }
        touched.clear();
        rounds + u64::from(deepest)
    }
}

/// Closed-form transaction count for `threads` threads each accessing
/// `bytes_per_thread` consecutive bytes at stride `stride_bytes` from
/// `base`: the pattern produced by cooperative loads (`stride == bytes` ⇒
/// fully coalesced) and by per-thread private buffers (`stride ≫ bytes` ⇒
/// one transaction per thread).
pub fn strided_transactions(
    base: u64,
    threads: u64,
    bytes_per_thread: u64,
    stride_bytes: u64,
    segment_bytes: u64,
) -> u64 {
    if threads == 0 || bytes_per_thread == 0 {
        return 0;
    }
    // Contiguous case: one span.
    if stride_bytes == bytes_per_thread {
        let total = threads * bytes_per_thread;
        let first = base / segment_bytes;
        let last = (base + total - 1) / segment_bytes;
        return last - first + 1;
    }
    // General case: count segments per thread and merge adjacent threads
    // that share a segment (only possible when stride < segment).
    let mut count = 0u64;
    let mut prev_last: Option<u64> = None;
    for t in 0..threads {
        let start = base + t * stride_bytes;
        let first = start / segment_bytes;
        let last = (start + bytes_per_thread - 1) / segment_bytes;
        let first = match prev_last {
            Some(p) if first <= p => p + 1,
            _ => first,
        };
        if first <= last {
            count += last - first + 1;
        }
        prev_last = Some(last.max(prev_last.unwrap_or(0)));
    }
    count
}

/// Closed-form conflict degree for `threads` threads accessing one byte
/// each at `base + tid * stride_bytes`: the maximum number of distinct
/// words mapping to a single bank. This models the paper's two patterns:
/// per-thread windows at 128-byte stride (fully serialized on Fermi) and
/// the V2 staggered layout ("an offset of 4 characters … distance" — no
/// conflicts).
pub fn strided_conflict_ways(threads: u64, stride_bytes: u64, banks: u64) -> u64 {
    // Byte addresses grow with `tid`, so the word spans arrive sorted.
    BankCounts::new(banks as usize).degree((0..threads).map(|t| {
        let word = (t * stride_bytes) / 4;
        (word, word)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn acc(addr: u64, bytes: u32) -> Access {
        Access { addr, bytes }
    }

    fn txns(accesses: &[Access], segment_bytes: u64) -> u64 {
        transactions_for_warp(&mut accesses.to_vec(), segment_bytes)
    }

    fn conflicts(accesses: &[Access], banks: usize) -> u64 {
        shared_conflict_cycles(&mut accesses.to_vec(), &mut BankCounts::new(banks))
    }

    /// The original segment-set analysis: every touched segment pushed,
    /// sorted and deduplicated. Kept as the oracle for the span walk.
    fn oracle_transactions(accesses: &[Access], segment_bytes: u64) -> u64 {
        let mut segments: Vec<u64> = Vec::new();
        for a in accesses.iter().filter(|a| a.bytes > 0) {
            let first = a.addr / segment_bytes;
            let last = (a.addr + u64::from(a.bytes) - 1) / segment_bytes;
            segments.extend(first..=last);
        }
        segments.sort_unstable();
        segments.dedup();
        segments.len() as u64
    }

    /// The original bank analysis: a map from bank to the distinct words
    /// it serves, every lane's words expanded one by one.
    fn oracle_conflicts(accesses: &[Access], banks: u64) -> u64 {
        let mut words_per_bank: std::collections::HashMap<u64, Vec<u64>> =
            std::collections::HashMap::new();
        for a in accesses.iter().filter(|a| a.bytes > 0) {
            let first_word = a.addr / 4;
            let last_word = (a.addr + u64::from(a.bytes) - 1) / 4;
            for w in first_word..=last_word {
                let words = words_per_bank.entry(w % banks).or_default();
                if !words.contains(&w) {
                    words.push(w);
                }
            }
        }
        words_per_bank.values().map(|w| w.len() as u64).max().unwrap_or(0)
    }

    /// One random warp instruction drawn from the shapes the kernels
    /// produce: broadcasts, strided lanes (coalesced through scattered),
    /// unaligned wide accesses straddling segments and bank words,
    /// zero-byte accesses, partial warps and over-full instructions.
    fn random_instruction(rng: &mut SmallRng) -> Vec<Access> {
        let lanes = match rng.gen_range(0u32..5) {
            0 => 32,
            1 => rng.gen_range(0usize..32),
            2 => rng.gen_range(33usize..80),
            // One active lane: the meter's single-lane tail.
            3 => 1,
            _ => rng.gen_range(1usize..33),
        };
        let base = rng.gen_range(0u64..1 << 16);
        let shape = rng.gen_range(0u32..5);
        let stride = [0u64, 1, 2, 4, 8, 12, 16, 64, 128, 132, 4096][rng.gen_range(0usize..11)];
        let width = [0u32, 1, 2, 3, 4, 8, 16, 18, 128, 131][rng.gen_range(0usize..10)];
        (0..lanes as u64)
            .map(|t| match shape {
                // Broadcast: every lane reads the same span.
                0 => acc(base, width),
                // Uniform stride and width.
                1 => acc(base + t * stride, width),
                // Strided with a few zero-byte lanes mixed in.
                2 => acc(base + t * stride, if rng.gen_range(0u32..4) == 0 { 0 } else { width }),
                // Overlapping lookahead spans of varying length.
                3 => acc(base + t, rng.gen_range(0u32..24)),
                // Fully random lanes.
                _ => acc(rng.gen_range(0u64..1 << 12), rng.gen_range(0u32..140)),
            })
            .collect()
    }

    #[test]
    fn analytics_match_the_hash_map_oracle_on_random_instructions() {
        let mut rng = SmallRng::seed_from_u64(0x1a7e_5eed);
        let mut gtx480 = BankCounts::new(32);
        let mut gtx280 = BankCounts::new(16);
        for case in 0..4_000 {
            let instruction = random_instruction(&mut rng);
            let mut scratch = instruction.clone();
            for segment in [32u64, 64, 128] {
                assert_eq!(
                    transactions_for_warp(&mut scratch, segment),
                    oracle_transactions(&instruction, segment),
                    "case {case}: segment {segment} on {instruction:?}"
                );
            }
            for (counts, banks) in [(&mut gtx480, 32u64), (&mut gtx280, 16)] {
                assert_eq!(
                    shared_conflict_cycles(&mut scratch, counts),
                    oracle_conflicts(&instruction, banks),
                    "case {case}: {banks} banks on {instruction:?}"
                );
            }
        }
    }

    #[test]
    fn reused_bank_counts_carry_nothing_between_instructions() {
        // One counter array per bank width prices a long mixed sequence:
        // wide conflicting instructions, then single words, then
        // broadcasts. A touched-only reset that missed a bank would leak
        // counts into the next instruction and overprice it.
        let mut rng = SmallRng::seed_from_u64(0xba4c_5eed);
        for banks in [16usize, 32] {
            let mut reused = BankCounts::new(banks);
            for case in 0..2_000 {
                let mut instruction = match case % 3 {
                    0 => (0..32).map(|t| acc(t * 128 + (case as u64 % 7), 4)).collect(),
                    1 => vec![acc(rng.gen_range(0u64..1 << 12), rng.gen_range(0u32..9))],
                    _ => random_instruction(&mut rng),
                };
                let oracle = oracle_conflicts(&instruction, banks as u64);
                assert_eq!(
                    shared_conflict_cycles(&mut instruction, &mut reused),
                    oracle,
                    "case {case}: {banks} banks on {instruction:?}"
                );
                assert!(reused.words.iter().all(|&w| w == 0), "case {case}: stale counters");
                assert!(reused.touched.is_empty());
            }
        }
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        // 32 threads × 4 bytes, consecutive, 128-byte aligned.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4, 4)).collect();
        assert_eq!(txns(&accesses, 128), 1);
    }

    #[test]
    fn misaligned_warp_needs_two_transactions() {
        let accesses: Vec<Access> = (0..32).map(|t| acc(64 + t * 4, 4)).collect();
        assert_eq!(txns(&accesses, 128), 2);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_thread() {
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4096, 4)).collect();
        assert_eq!(txns(&accesses, 128), 32);
    }

    #[test]
    fn byte_accesses_within_one_segment_coalesce() {
        // The paper's V2 load: 128 threads × 1 byte = "one memory
        // transaction" per 128-byte segment; here one warp covers 32 bytes.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t, 1)).collect();
        assert_eq!(txns(&accesses, 128), 1);
    }

    #[test]
    fn wide_access_spanning_segments_counts_both() {
        assert_eq!(txns(&[acc(120, 16)], 128), 2);
        assert_eq!(txns(&[acc(0, 0)], 128), 0);
        assert_eq!(txns(&[], 128), 0);
    }

    #[test]
    fn conflict_free_shared_access() {
        // 32 threads hitting 32 consecutive words: banks 0..31.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4, 4)).collect();
        assert_eq!(conflicts(&accesses, 32), 1);
    }

    #[test]
    fn same_word_broadcasts() {
        let accesses: Vec<Access> = (0..32).map(|_| acc(40, 4)).collect();
        assert_eq!(conflicts(&accesses, 32), 1);
    }

    #[test]
    fn window_broadcast_costs_one_pass_over_its_words() {
        // V2/V3's window scan: every lane reads the same 128-byte window,
        // 32 words over 32 banks (one cycle) or 16 banks (two).
        let accesses: Vec<Access> = (0..32).map(|_| acc(0, 128)).collect();
        assert_eq!(conflicts(&accesses, 32), 1);
        assert_eq!(conflicts(&accesses, 16), 2);
        assert_eq!(conflicts(&[acc(0, 0), acc(4, 0)], 32), 0);
    }

    #[test]
    fn stride_128_bytes_fully_serializes() {
        // Per-thread buffers at 128-byte stride: word = t*32, bank = 0 ∀t.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 128, 1)).collect();
        assert_eq!(conflicts(&accesses, 32), 32);
    }

    #[test]
    fn two_way_conflict() {
        // Threads 0..32 at stride 64 bytes: word = t*16, bank = (t*16)%32 —
        // banks 0 and 16, 16 distinct words each.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 64, 1)).collect();
        assert_eq!(conflicts(&accesses, 32), 16);
    }

    #[test]
    fn strided_transactions_contiguous() {
        assert_eq!(strided_transactions(0, 32, 4, 4, 128), 1);
        assert_eq!(strided_transactions(0, 128, 1, 1, 128), 1);
        assert_eq!(strided_transactions(64, 32, 4, 4, 128), 2);
    }

    #[test]
    fn strided_transactions_scattered() {
        // 128 threads each grabbing 1 byte at 4096-byte stride: 128 txns.
        assert_eq!(strided_transactions(0, 128, 1, 4096, 128), 128);
        // Stride 64 with 4-byte accesses: two threads share a segment.
        assert_eq!(strided_transactions(0, 32, 4, 64, 128), 16);
    }

    #[test]
    fn strided_transactions_matches_exact_analysis() {
        for &(threads, bytes, stride) in
            &[(32u64, 1u64, 1u64), (32, 4, 4), (32, 1, 128), (32, 4, 64), (17, 3, 40)]
        {
            let accesses: Vec<Access> =
                (0..threads).map(|t| acc(1000 + t * stride, bytes as u32)).collect();
            let exact = txns(&accesses, 128);
            let closed = strided_transactions(1000, threads, bytes, stride, 128);
            assert_eq!(exact, closed, "threads={threads} bytes={bytes} stride={stride}");
        }
    }

    #[test]
    fn strided_conflicts_match_exact_analysis() {
        for banks in [16u64, 32] {
            for threads in [0u64, 1, 7, 16, 32, 48] {
                for stride in [0u64, 1, 2, 4, 8, 12, 32, 64, 128, 132] {
                    let accesses: Vec<Access> = (0..threads).map(|t| acc(t * stride, 1)).collect();
                    let closed = strided_conflict_ways(threads, stride, banks);
                    assert_eq!(closed, conflicts(&accesses, banks as usize), "stride={stride}");
                    assert_eq!(closed, oracle_conflicts(&accesses, banks), "stride={stride}");
                }
            }
        }
    }

    #[test]
    fn staggered_v2_layout_is_conflict_free() {
        // Paper: "setting each thread with an offset of 4 characters"
        // (one 4-byte word apart) avoids conflicts.
        assert_eq!(strided_conflict_ways(32, 4, 32), 1);
    }
}
