//! CPU–GPU overlap modelling.
//!
//! V2 leaves match selection to the CPU, and the paper argues this "gives
//! the opportunity to overlap CUDA and CPU computation" (§III-B3, §V, and
//! the future-work item on "overlapping computation with GPU kernel in a
//! pipelining fashion"). This module models that pipeline: the input is
//! processed as a sequence of slices, each flowing through H2D → kernel →
//! D2H → CPU stages, with different slices occupying different stages
//! simultaneously. The schedule itself is
//! [`culzss_gpusim::streams::StageTimes::pipelined_seconds`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use culzss_gpusim::streams::{overlap_speedup, StageTimes};
use culzss_lzss::token::Token;

use crate::api::PipelineStats;

/// Upper bound on buffers retained per pool — enough for the largest
/// batch the pipeline launches (thousands of chunk bodies), while
/// bounding steady-state memory when batch sizes shrink.
const MAX_POOLED: usize = 8192;

/// Recycled scratch buffers for the compression pipeline.
///
/// The V1/V2 hot paths used to allocate and free a `Vec` per chunk —
/// token scratch and encoded body — thousands of times per launch. The
/// pool keeps those buffers alive across chunks *and* across calls:
/// [`crate::Culzss`] owns one behind an `Arc`, so clones of the library
/// object share it and repeated calls run allocation-free in the steady
/// state. Buffers come back cleared but with capacity intact. Decoded
/// chunks are not pooled: no path draws them back out.
#[derive(Debug, Default)]
pub struct BufferPool {
    bytes: Mutex<Vec<Vec<u8>>>,
    tokens: Mutex<Vec<Vec<Token>>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
}

/// Reuse counters of a [`BufferPool`] (monotonic since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (byte and token buffers combined).
    pub acquires: u64,
    /// Hand-outs served from the pool instead of a fresh allocation.
    pub reuses: u64,
}

/// Locks a pool free-list, recovering from poisoning. A worker that
/// panics while holding the lock poisons it; the free-list only caches
/// *empty* buffers, so the safe recovery is to discard the cache (a
/// half-updated list may have lost or duplicated entries), clear the
/// poison flag, and keep serving fresh allocations. Without this, one
/// panicking request turns every later request on every clone of the
/// same [`crate::Culzss`] into a panic too.
fn lock_recovering<T>(mutex: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.clear();
            mutex.clear_poison();
            guard
        }
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty byte buffer, recycling a released one when possible.
    pub fn acquire_bytes(&self) -> Vec<u8> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        match lock_recovering(&self.bytes).pop() {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a byte buffer to the pool (cleared, capacity kept).
    pub fn release_bytes(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut pool = lock_recovering(&self.bytes);
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }

    /// Returns a whole batch of byte buffers (e.g. the per-chunk bodies
    /// of a finished launch) to the pool.
    pub fn release_all_bytes<I: IntoIterator<Item = Vec<u8>>>(&self, bufs: I) {
        let mut pool = lock_recovering(&self.bytes);
        for mut buf in bufs {
            if buf.capacity() == 0 || pool.len() >= MAX_POOLED {
                continue;
            }
            buf.clear();
            pool.push(buf);
        }
    }

    /// Takes an empty token buffer, recycling a released one when possible.
    pub fn acquire_tokens(&self) -> Vec<Token> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        match lock_recovering(&self.tokens).pop() {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a token buffer to the pool (cleared, capacity kept).
    pub fn release_tokens(&self, mut buf: Vec<Token>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut pool = lock_recovering(&self.tokens);
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }

    /// Poisons both free-list mutexes by panicking while holding each
    /// lock, simulating a worker that died mid-acquire (recovery tests).
    #[cfg(test)]
    pub(crate) fn poison_for_tests(&self) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self.bytes.lock().unwrap();
            panic!("poison bytes free-list");
        }));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self.tokens.lock().unwrap();
            panic!("poison tokens free-list");
        }));
        assert!(self.bytes.is_poisoned() && self.tokens.is_poisoned());
    }

    /// Byte buffers waiting on the free list.
    #[cfg(test)]
    pub(crate) fn free_byte_buffers(&self) -> usize {
        lock_recovering(&self.bytes).len()
    }

    /// Current reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }
}

/// Overlap summary for one measured pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapReport {
    /// Sequential (non-overlapped) total.
    pub sequential_seconds: f64,
    /// Pipelined makespan.
    pub pipelined_seconds: f64,
    /// `sequential / pipelined` ([`overlap_speedup`]: 1.0 when nothing ran).
    pub speedup: f64,
    /// Slice count used.
    pub slices: usize,
}

/// Computes the overlap opportunity for a compression run's stats using
/// `slices` pipeline slices.
pub fn overlap(stats: &PipelineStats, slices: usize) -> OverlapReport {
    let stages = StageTimes::from(stats);
    let sequential = stages.sequential_seconds();
    let pipelined = stages.pipelined_seconds(slices);
    OverlapReport {
        sequential_seconds: sequential,
        pipelined_seconds: pipelined,
        speedup: overlap_speedup(sequential, pipelined),
        slices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_recycles_capacity() {
        let pool = BufferPool::new();
        let mut a = pool.acquire_bytes();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        pool.release_bytes(a);
        let b = pool.acquire_bytes();
        assert!(b.is_empty());
        assert!(b.capacity() >= cap);
        let stats = pool.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.reuses, 1);

        let mut t = pool.acquire_tokens();
        t.push(culzss_lzss::token::Token::Literal(7));
        pool.release_tokens(t);
        assert!(pool.acquire_tokens().is_empty());
        assert_eq!(pool.stats().reuses, 2);
    }

    #[test]
    fn buffer_pool_ignores_capacityless_buffers() {
        let pool = BufferPool::new();
        pool.release_bytes(Vec::new());
        pool.release_all_bytes([Vec::new(), vec![9u8; 16]]);
        // Only the buffer with capacity was retained.
        assert!(pool.acquire_bytes().capacity() >= 16);
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(pool.acquire_bytes().capacity(), 0);
    }

    #[test]
    fn buffer_pool_recovers_from_poisoning() {
        let pool = BufferPool::new();
        pool.release_bytes(vec![1u8; 64]);
        pool.release_tokens(vec![culzss_lzss::token::Token::Literal(1); 8]);

        pool.poison_for_tests();

        // Acquire keeps working; the poisoned free-lists were dropped,
        // so these are fresh allocations, not reuses.
        let stats_before = pool.stats();
        let b = pool.acquire_bytes();
        let t = pool.acquire_tokens();
        assert_eq!(b.capacity(), 0);
        assert_eq!(t.capacity(), 0);
        assert_eq!(pool.stats().reuses, stats_before.reuses);

        // Pooling resumes normally after recovery.
        pool.release_bytes(vec![2u8; 32]);
        assert!(pool.acquire_bytes().capacity() >= 32);
        assert_eq!(pool.stats().reuses, stats_before.reuses + 1);
    }

    #[test]
    fn overlap_report_from_stats() {
        let stats = PipelineStats {
            h2d_seconds: 0.5,
            kernel_seconds: 2.0,
            d2h_seconds: 0.5,
            cpu_seconds: 2.0,
            host_cycles: 0.0,
            launch: None,
            input_bytes: 100,
            output_bytes: 50,
        };
        let report = overlap(&stats, 32);
        assert!(report.speedup > 1.5);
        assert_eq!(report.slices, 32);
        assert!(report.pipelined_seconds < report.sequential_seconds);
    }
}
