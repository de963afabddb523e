//! Counting global allocator: bytes allocated, live bytes and the peak
//! of live bytes, over all threads.
//!
//! One shared counter updated on every allocation would cost far more
//! than the allocation itself once two simulator threads allocate at
//! full speed (the cache line bounces between cores on every call). So
//! each thread counts into one of `SLOTS` cache-line-sized slots, picked
//! round-robin on the thread's first allocation, and folds its net
//! live-byte change into the shared live counter once it reaches `FOLD`
//! bytes either way. Slots outlive their threads, so nothing is lost
//! when a thread exits. Totals are exact; the peak misses at most the
//! unfolded changes, a few times `FOLD`.
//!
//! The counters are statistics that publish no other data, so every
//! update is `Relaxed`. A delta taken around a span is attributable to
//! that span only while one thread calls into the library (the file
//! workloads), not while service threads run concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;
const FOLD: i64 = 16 << 10;

#[repr(align(128))]
struct Slot {
    allocated: AtomicU64,
    /// Net live-byte change not yet folded into `LIVE`.
    pending: AtomicI64,
}

#[repr(align(128))]
struct Shared(AtomicI64);

static SLOT: [Slot; SLOTS] =
    [const { Slot { allocated: AtomicU64::new(0), pending: AtomicI64::new(0) } }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static LIVE: Shared = Shared(AtomicI64::new(0));
static PEAK: Shared = Shared(AtomicI64::new(0));

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may use it.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static Slot {
    let index = MY_SLOT
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                mine.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            mine.get()
        })
        .unwrap_or(0);
    &SLOT[index]
}

fn note(allocated: u64, live_change: i64) {
    let slot = slot();
    if allocated > 0 {
        slot.allocated.fetch_add(allocated, Relaxed);
    }
    let pending = slot.pending.fetch_add(live_change, Relaxed) + live_change;
    if pending.abs() >= FOLD {
        let folded = slot.pending.swap(0, Relaxed);
        let live = LIVE.0.fetch_add(folded, Relaxed) + folded;
        if live > PEAK.0.load(Relaxed) {
            PEAK.0.fetch_max(live, Relaxed);
        }
    }
}

pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates touch only atomics and a destructor-free thread-local, and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as u64, layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as u64, layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // A realloc counts as a fresh allocation of `new_size` bytes
            // and the release of the old block.
            note(new_size as u64, new_size as i64 - layout.size() as i64);
        }
        new
    }
}

/// Bytes allocated since process start (monotonic).
pub fn allocated() -> u64 {
    SLOT.iter().map(|s| s.allocated.load(Relaxed)).sum()
}

fn live() -> i64 {
    LIVE.0.load(Relaxed) + SLOT.iter().map(|s| s.pending.load(Relaxed)).sum::<i64>()
}

/// Starts a new peak window at the current live size and returns it.
pub fn reset_peak() -> u64 {
    let live = live();
    PEAK.0.store(live, Relaxed);
    live.max(0) as u64
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.0.load(Relaxed).max(live()).max(0) as u64
}
