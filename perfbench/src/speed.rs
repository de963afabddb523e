//! Host-speed reference for the end-to-end timings.
//!
//! A small shared VM changes speed under the benchmark: by tens of
//! percent over tens of seconds, and by about 2× for minutes at a time
//! (set-up, compression and decode all ran 1.6–2.1× faster for four
//! runs in a row, with no CPU steal). So every timed call is paired
//! with a fixed reference loop timed just before it, and a timing is
//! reported as the median of the call's seconds over the loop's
//! seconds, times the loop's nominal seconds. A faster program reads
//! faster; a faster host does not.

use std::time::Instant;

use crate::report::median;

/// Steps of the reference loop: about 2 ms on the 2-vCPU VM the bounds
/// in `BENCHMARK.json` were set on.
const STEPS: u32 = 1 << 18;

/// Nominal seconds of the reference loop: its median on that VM in its
/// usual (slower) state, so normalized timings read close to raw ones
/// there.
const NOMINAL_SECONDS: f64 = 2.16e-3;

/// One timed call and the reference loop's seconds just before it.
pub struct Timing {
    pub seconds: f64,
    pub reference: f64,
}

/// Median seconds of the calls at the reference loop's nominal speed.
pub fn normalized(timings: &[Timing]) -> f64 {
    let ratios: Vec<f64> = timings.iter().map(|t| t.seconds / t.reference).collect();
    median(&ratios) * NOMINAL_SECONDS
}

/// Seconds one run of the reference loop takes now: xorshift steps with
/// dependent loads and stores into a 16 KiB table and a data-dependent
/// branch, the kind of work the simulator's meter does. It allocates
/// nothing, so the heap metrics do not see it.
pub fn reference_seconds() -> f64 {
    let started = Instant::now();
    let mut table = [0u32; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x >> 52) as usize;
        let value = table[slot].wrapping_add(step);
        table[slot] = value;
        if value & 1 == 0 {
            x = x.wrapping_add(u64::from(value));
        }
    }
    std::hint::black_box(&table);
    started.elapsed().as_secs_f64()
}
