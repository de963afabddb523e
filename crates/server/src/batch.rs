//! Coalesced launch batches and their makespan accounting.
//!
//! Small jobs are not launched one-by-one: a worker drains a window of
//! same-kind jobs from the queue and runs them back-to-back as one
//! coalesced batch, whose per-job stage times feed a
//! [`culzss_gpusim::streams::BatchTimeline`]. Each batch reports its
//! sequential (back-to-back) stage total next to the pipelined makespan
//! — the streaming overlap argument of the paper (§VII), applied to the
//! service's launch windows.

use std::fmt;

use culzss_gpusim::streams::overlap_speedup;

use crate::job::{EngineKind, JobKind};

/// Report for one coalesced batch window.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Monotonic batch number.
    pub batch_id: u64,
    /// Direction shared by every job in the batch.
    pub kind: JobKind,
    /// Engine of the worker that drained the batch.
    pub engine: EngineKind,
    /// Jobs drained into the window.
    pub jobs: usize,
    /// Payload bytes across the batch.
    pub bytes_in: u64,
    /// Σ of the per-job modelled stage totals, run back-to-back.
    pub sequential_seconds: f64,
    /// Modelled makespan with H2D/kernel/D2H/CPU stages overlapping
    /// across the jobs of the window.
    pub pipelined_seconds: f64,
}

impl BatchReport {
    /// Speedup of the overlapped schedule over back-to-back execution.
    pub fn overlap_speedup(&self) -> f64 {
        overlap_speedup(self.sequential_seconds, self.pipelined_seconds)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch {:>4} {:<10} on {:<5} jobs {:>3}  {:>9} B  seq {:>8.3} ms  pipe {:>8.3} ms  (x{:.2})",
            self.batch_id,
            self.kind.name(),
            self.engine.to_string(),
            self.jobs,
            self.bytes_in,
            self.sequential_seconds * 1e3,
            self.pipelined_seconds * 1e3,
            self.overlap_speedup(),
        )
    }
}
