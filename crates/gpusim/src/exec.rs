//! The kernel executor: CUDA grid/block/thread semantics on host threads.
//!
//! A kernel implements [`BlockKernel::run_block`], which is handed a
//! [`BlockCtx`]. Inside, [`BlockCtx::par_threads`] runs a closure once per
//! thread of the block — one *phase*, equivalent to the code between two
//! `__syncthreads()` barriers in CUDA. Threads execute in `tid` order
//! deterministically; for race-free kernels (the only well-defined kind in
//! CUDA too) this is observationally equivalent to SIMT execution, while
//! the performance meter separately accounts warp-level lockstep timing.
//!
//! Blocks are independent (CUDA guarantees nothing about inter-block
//! ordering) and are executed concurrently on a pool of host worker
//! threads. Each block returns a typed output; the launcher collects them
//! in block order, merges the per-block metrics, and prices the launch
//! with the [`crate::cost`] model.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cost::{cost_launch, KernelCost};
use crate::device::DeviceSpec;
use crate::fault::{DeviceFaultModel, FaultKind, LaunchDisposition};
use crate::meter::{BlockMeter, BlockMetrics};
use crate::sanitizer::{AccessKind, BlockSanitizerReport, SanitizerReport};

/// Launch geometry, the CUDA `<<<grid, block, shared>>>` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Static shared-memory allocation per block, in bytes.
    pub shared_bytes: usize,
}

impl LaunchConfig {
    /// A launch with no shared memory.
    pub fn new(grid_dim: usize, block_dim: usize) -> Self {
        Self { grid_dim, block_dim, shared_bytes: 0 }
    }

    /// Sets the per-block shared-memory allocation.
    pub fn with_shared(mut self, bytes: usize) -> Self {
        self.shared_bytes = bytes;
        self
    }
}

/// Errors detected at launch time (CUDA would return them from
/// `cudaLaunchKernel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// `block_dim` exceeds the device limit or is zero.
    BadBlockDim {
        /// Requested threads per block.
        requested: usize,
        /// Device maximum.
        max: usize,
    },
    /// The static shared allocation exceeds the device's per-block limit.
    SharedMemOverflow {
        /// Requested bytes.
        requested: usize,
        /// Device maximum.
        max: usize,
    },
    /// An injected device fault fired (see [`crate::fault`]): the launch
    /// failed the way a real `cudaLaunchKernel`/sync would under a
    /// transient error, a dead context, or a watchdog kill.
    DeviceFault {
        /// Which failure mode fired.
        kind: FaultKind,
        /// 0-based launch index on the device, for replay/debugging.
        launch_index: u64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::BadBlockDim { requested, max } => {
                write!(f, "block dimension {requested} outside 1..={max}")
            }
            LaunchError::SharedMemOverflow { requested, max } => {
                write!(f, "shared memory request {requested} B exceeds {max} B per block")
            }
            LaunchError::DeviceFault { kind, launch_index } => {
                write!(f, "injected {kind} device fault at launch {launch_index}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// A kernel: one type per `__global__` function.
pub trait BlockKernel: Sync {
    /// What each block hands back to the host (its "global memory
    /// writes"); collected in block order by the launcher.
    type Output: Send;

    /// Executes one block. Shared memory is modelled by ordinary local
    /// buffers; their *performance* footprint is declared through the
    /// [`LaunchConfig::shared_bytes`] and the [`ThreadCtx`] metering calls.
    fn run_block(&self, block: &mut BlockCtx) -> Self::Output;
}

/// Per-block execution context.
pub struct BlockCtx {
    /// This block's index in the grid.
    pub block_idx: usize,
    /// Total number of blocks in the launch.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    meter: BlockMeter,
    /// Threads that called [`ThreadCtx::exit_thread`]; they skip every
    /// later phase and stop arriving at barriers.
    exited: Vec<bool>,
}

impl BlockCtx {
    /// Runs `f` once per thread (tid `0..block_dim`) and ends the phase
    /// with a barrier — the analogue of a code region between
    /// `__syncthreads()` calls. Threads that exited earlier are skipped.
    pub fn par_threads<F: FnMut(&mut ThreadCtx)>(&mut self, mut f: F) {
        self.par_threads_with((0..self.block_dim).map(|tid| (tid, ())), |t, ()| f(t));
    }

    /// One phase in which only some threads have work: runs `f` once per
    /// `(tid, item)` of `work`, skipping threads that exited, and ends the
    /// phase with a barrier. `work` lists its threads in ascending `tid`
    /// order, each once. Metering, sanitizer and barrier accounting are
    /// exactly those of [`Self::par_threads`] with a closure that does
    /// nothing on the unlisted threads, but the host cost follows the
    /// listed threads rather than the block width.
    pub fn par_threads_with<T, F: FnMut(&mut ThreadCtx, T)>(
        &mut self,
        work: impl IntoIterator<Item = (usize, T)>,
        mut f: F,
    ) {
        let mut after = None;
        for (tid, item) in work {
            debug_assert!(after.is_none_or(|prev| prev < tid), "threads must ascend");
            after = Some(tid);
            if !self.exited[tid] {
                f(&mut self.thread(tid), item);
            }
        }
        self.meter.end_phase_masked(&self.exited);
    }

    /// Runs `f` on thread 0 only (the common "if (threadIdx.x == 0)"
    /// pattern), still ending with a barrier.
    pub fn single_thread<F: FnOnce(&mut ThreadCtx)>(&mut self, f: F) {
        if !self.exited[0] {
            f(&mut self.thread(0));
        }
        self.meter.end_phase_masked(&self.exited);
    }

    fn thread(&mut self, tid: usize) -> ThreadCtx<'_> {
        ThreadCtx {
            tid,
            block_idx: self.block_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
            meter: &mut self.meter,
            exited: &mut self.exited[tid],
        }
    }
}

/// Per-thread execution context: indices plus the metering interface.
pub struct ThreadCtx<'a> {
    /// Thread index within the block (`threadIdx.x`).
    pub tid: usize,
    /// Block index (`blockIdx.x`).
    pub block_idx: usize,
    /// Threads per block (`blockDim.x`).
    pub block_dim: usize,
    /// Blocks in the grid (`gridDim.x`).
    pub grid_dim: usize,
    meter: &'a mut BlockMeter,
    exited: &'a mut bool,
}

impl ThreadCtx<'_> {
    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn global_tid(&self) -> usize {
        self.block_idx * self.block_dim + self.tid
    }

    /// Charges `n` arithmetic/control operations.
    #[inline]
    pub fn charge_ops(&mut self, n: u64) {
        self.meter.charge_ops(self.tid, n);
    }

    /// Logs an exact global-memory read of `bytes` at `addr`.
    #[inline]
    pub fn global_read(&mut self, addr: u64, bytes: u32) {
        self.meter.log_global(self.tid, addr, bytes);
    }

    /// Logs an exact global-memory write of `bytes` at `addr`.
    #[inline]
    pub fn global_write(&mut self, addr: u64, bytes: u32) {
        self.meter.log_global(self.tid, addr, bytes);
    }

    /// Logs an exact shared-memory read of `bytes` at `addr` (addresses
    /// are relative to the block's shared arena).
    #[inline]
    pub fn shared_read(&mut self, addr: u64, bytes: u32) {
        self.meter.log_shared(self.tid, AccessKind::Read, addr, bytes);
    }

    /// Logs an exact shared-memory write.
    #[inline]
    pub fn shared_write(&mut self, addr: u64, bytes: u32) {
        self.meter.log_shared(self.tid, AccessKind::Write, addr, bytes);
    }

    /// Models a CUDA early `return`: this thread runs to the end of the
    /// current phase closure and then skips every later phase. Reaching a
    /// subsequent barrier with a mix of live and exited threads is barrier
    /// divergence, which [`GpuSim::launch_checked`] reports.
    pub fn exit_thread(&mut self) {
        *self.exited = true;
    }

    /// Bulk shared-memory accounting for hot loops: this thread performed
    /// `accesses` accesses in a pattern with warp-wide conflict degree
    /// `conflict_ways` (see [`crate::coalesce::strided_conflict_ways`]).
    #[inline]
    pub fn shared_bulk(&mut self, accesses: u64, conflict_ways: u64) {
        self.meter.shared_bulk(self.tid, accesses, conflict_ways);
    }

    /// Bulk global-memory accounting: this thread moved `bytes` bytes in
    /// accesses of `access_width` bytes, warp-`coalesced` or not.
    #[inline]
    pub fn global_bulk(&mut self, bytes: u64, access_width: u64, coalesced: bool) {
        self.meter.global_bulk(self.tid, bytes, access_width, coalesced);
    }

    /// Bulk accounting for L1-cached global accesses.
    #[inline]
    pub fn global_cached_bulk(&mut self, accesses: u64) {
        self.meter.global_cached_bulk(self.tid, accesses);
    }
}

/// Result of [`GpuSim::launch`].
#[derive(Debug)]
pub struct LaunchResult<R> {
    /// Per-block outputs in block order.
    pub outputs: Vec<R>,
    /// Aggregated launch statistics.
    pub stats: LaunchStats,
}

/// Result of [`GpuSim::launch_checked`]: a normal launch plus the
/// sanitizer's verdict.
#[derive(Debug)]
pub struct CheckedLaunchResult<R> {
    /// Per-block outputs in block order.
    pub outputs: Vec<R>,
    /// Aggregated launch statistics (identical to an unchecked launch).
    pub stats: LaunchStats,
    /// Shared-memory race and barrier-divergence findings.
    pub sanitizer: SanitizerReport,
}

/// What [`GpuSim::launch_inner`] hands back: the launch result plus one
/// sanitizer report per block (`None` on unchecked launches).
type InnerLaunch<R> = (LaunchResult<R>, Vec<Option<BlockSanitizerReport>>);

/// Aggregated statistics for one launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Merged metrics over all blocks.
    pub metrics: BlockMetrics,
    /// Per-block metrics in block order (feeds [`crate::trace`]).
    pub per_block: Vec<BlockMetrics>,
    /// Cost-model breakdown.
    pub cost: KernelCost,
    /// Simulated kernel time in seconds (== `cost.seconds`).
    pub kernel_seconds: f64,
    /// Host wall-clock time spent simulating (diagnostics only — this is
    /// *not* the modelled GPU time).
    pub wall_seconds: f64,
    /// Launch geometry, for reports.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Dynamic shared memory per block, in bytes (feeds
    /// [`crate::trace::Timeline::from_launch`]).
    pub shared_bytes: usize,
}

impl LaunchStats {
    /// Flattens the launch's meter and cost-model quantities into stable
    /// `(name, value)` pairs — the machine-readable export consumed by
    /// the benchmark report (`culzss-bench`'s `BENCH_*.json`). Names are
    /// part of the report schema; add, don't rename.
    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("kernel_seconds", self.kernel_seconds),
            ("cycles", self.cost.cycles),
            ("compute_cycles", self.cost.compute_cycles),
            ("memory_cycles", self.cost.memory_cycles),
            ("work_cycles", self.cost.work_cycles),
            ("occupancy", self.cost.occupancy.fraction),
            ("memory_bound", f64::from(u8::from(self.cost.memory_bound))),
            ("warp_issue_ops", self.metrics.warp_issue_ops),
            ("thread_ops", self.metrics.thread_ops as f64),
            ("global_transactions", self.metrics.global_transactions),
            ("global_bytes", self.metrics.global_bytes as f64),
            ("shared_cycles", self.metrics.shared_cycles),
            ("shared_accesses", self.metrics.shared_accesses as f64),
            ("cached_accesses", self.metrics.cached_accesses as f64),
            ("barriers", self.metrics.barriers as f64),
            ("blocks", self.metrics.blocks as f64),
            ("grid_dim", self.grid_dim as f64),
            ("block_dim", self.block_dim as f64),
        ]
    }
}

/// A simulated GPU: a device description plus a host worker pool size,
/// and optionally a [`DeviceFaultModel`] injecting failures at the
/// launch seam.
#[derive(Debug, Clone)]
pub struct GpuSim {
    device: DeviceSpec,
    workers: usize,
    fault: Option<Arc<DeviceFaultModel>>,
}

impl GpuSim {
    /// Creates a simulator for `device` using all available host cores.
    pub fn new(device: DeviceSpec) -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { device, workers, fault: None }
    }

    /// Overrides the host worker-pool size (useful in tests).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Installs a fault model consulted once per launch. Clones of this
    /// simulator share the model (and its launch counter), the way
    /// clones share one physical device.
    pub fn with_fault_model(mut self, model: DeviceFaultModel) -> Self {
        self.fault = Some(Arc::new(model));
        self
    }

    /// The installed fault model, if any.
    pub fn fault_model(&self) -> Option<&Arc<DeviceFaultModel>> {
        self.fault.as_ref()
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Launches `kernel` over `cfg.grid_dim` blocks and waits for
    /// completion, returning per-block outputs and launch statistics.
    pub fn launch<K: BlockKernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<LaunchResult<K::Output>, LaunchError> {
        let (result, _) = self.launch_inner(cfg, kernel, false)?;
        Ok(result)
    }

    /// [`Self::launch`] with the shared-memory sanitizer armed: every
    /// exact shared access is recorded with its read/write kind and swept
    /// at each barrier for intra-phase conflicts between threads; barriers
    /// only part of a block arrives at (after [`ThreadCtx::exit_thread`])
    /// are reported as divergence. Outputs and metrics are identical to an
    /// unchecked launch — the sanitizer only observes.
    pub fn launch_checked<K: BlockKernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<CheckedLaunchResult<K::Output>, LaunchError> {
        let (result, findings) = self.launch_inner(cfg, kernel, true)?;
        let mut sanitizer = SanitizerReport {
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            checked_accesses: 0,
            phases: 0,
            conflicts: 0,
            divergent_blocks: 0,
            findings: Vec::new(),
        };
        for block in findings.into_iter().flatten() {
            sanitizer.checked_accesses += block.checked_accesses;
            sanitizer.phases += block.phases;
            sanitizer.conflicts += block.conflict_count();
            sanitizer.divergent_blocks += u64::from(block.divergence.is_some());
            if !block.is_clean() {
                sanitizer.findings.push(block);
            }
        }
        Ok(CheckedLaunchResult { outputs: result.outputs, stats: result.stats, sanitizer })
    }

    fn launch_inner<K: BlockKernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
        checked: bool,
    ) -> Result<InnerLaunch<K::Output>, LaunchError> {
        if cfg.block_dim == 0 || cfg.block_dim > self.device.max_threads_per_block {
            return Err(LaunchError::BadBlockDim {
                requested: cfg.block_dim,
                max: self.device.max_threads_per_block,
            });
        }
        if cfg.shared_bytes > self.device.shared_mem_per_block {
            return Err(LaunchError::SharedMemOverflow {
                requested: cfg.shared_bytes,
                max: self.device.shared_mem_per_block,
            });
        }
        // Fault injection happens after configuration validation (a bad
        // config is the caller's bug, not the device's) and before any
        // block executes, like a launch failure on real hardware.
        let mut latency_multiplier = 1.0;
        if let Some(fault) = &self.fault {
            match fault.on_launch() {
                LaunchDisposition::Run { slow } => {
                    if let Some(m) = slow {
                        latency_multiplier = m;
                    }
                }
                LaunchDisposition::Fail { kind, index } => {
                    return Err(LaunchError::DeviceFault { kind, launch_index: index });
                }
                LaunchDisposition::Hang { seconds, index } => {
                    // Model "blocked until the driver watchdog resets
                    // the device": hold the caller for real time, then
                    // surface the kill as a typed fault.
                    if seconds > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
                    }
                    return Err(LaunchError::DeviceFault {
                        kind: FaultKind::Hang,
                        launch_index: index,
                    });
                }
            }
        }

        /// One finished block: its output, metrics, and sanitizer findings.
        type BlockSlot<R> = Option<(R, BlockMetrics, Option<BlockSanitizerReport>)>;
        let started = std::time::Instant::now();
        let slots: Mutex<Vec<BlockSlot<K::Output>>> =
            Mutex::new((0..cfg.grid_dim).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = self.workers.min(cfg.grid_dim.max(1));

        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| {
                    // One context per worker, rearmed between blocks, so
                    // the meter's logs and scratch keep their capacity.
                    let mut block = BlockCtx {
                        block_idx: 0,
                        grid_dim: cfg.grid_dim,
                        block_dim: cfg.block_dim,
                        meter: BlockMeter::new(
                            cfg.block_dim,
                            self.device.warp_size,
                            self.device.transaction_bytes,
                            self.device.shared_banks,
                        ),
                        exited: vec![false; cfg.block_dim],
                    };
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= cfg.grid_dim {
                            break;
                        }
                        block.block_idx = idx;
                        block.exited.fill(false);
                        block.meter.note_shared_alloc(cfg.shared_bytes);
                        if checked {
                            block.meter.enable_sanitizer(idx);
                        }
                        let output = kernel.run_block(&mut block);
                        let (metrics, findings) = block.meter.finish_block();
                        slots.lock()[idx] = Some((output, metrics, findings));
                    }
                });
            }
        })
        .expect("a simulated block panicked");

        let mut outputs = Vec::with_capacity(cfg.grid_dim);
        let mut per_block = Vec::with_capacity(cfg.grid_dim);
        let mut sanitizer = Vec::with_capacity(cfg.grid_dim);
        let mut merged = BlockMetrics::default();
        for slot in slots.into_inner() {
            let (output, metrics, findings) = slot.expect("every block ran");
            merged.merge(&metrics);
            outputs.push(output);
            per_block.push(metrics);
            sanitizer.push(findings);
        }
        let mut cost =
            cost_launch(&self.device, cfg.grid_dim, cfg.block_dim, cfg.shared_bytes, &per_block);
        if latency_multiplier != 1.0 {
            // A slow device stretches the modelled time; cycle counters
            // stay untouched (the work is the same, the clock is not).
            cost.seconds *= latency_multiplier;
        }
        // (per_block is moved into the stats below for trace reconstruction)
        Ok((
            LaunchResult {
                outputs,
                stats: LaunchStats {
                    metrics: merged,
                    per_block,
                    kernel_seconds: cost.seconds,
                    cost,
                    wall_seconds: started.elapsed().as_secs_f64(),
                    grid_dim: cfg.grid_dim,
                    block_dim: cfg.block_dim,
                    shared_bytes: cfg.shared_bytes,
                },
            },
            sanitizer,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles each element; checks indexing and output ordering.
    struct Doubler<'a> {
        data: &'a [u32],
    }

    impl BlockKernel for Doubler<'_> {
        type Output = Vec<u32>;
        fn run_block(&self, block: &mut BlockCtx) -> Vec<u32> {
            let base = block.block_idx * block.block_dim;
            let mut out = vec![0u32; block.block_dim];
            block.par_threads(|t| {
                let i = base + t.tid;
                if i < self.data.len() {
                    t.charge_ops(1);
                    out[t.tid] = self.data[i] * 2;
                }
            });
            out
        }
    }

    #[test]
    fn outputs_are_in_block_order() {
        let data: Vec<u32> = (0..1024).collect();
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(3);
        let result = sim.launch(LaunchConfig::new(8, 128), &Doubler { data: &data }).unwrap();
        assert_eq!(result.outputs.len(), 8);
        for (b, out) in result.outputs.iter().enumerate() {
            for (t, v) in out.iter().enumerate() {
                assert_eq!(*v, ((b * 128 + t) * 2) as u32);
            }
        }
        assert_eq!(result.stats.metrics.blocks, 8);
        assert!(result.stats.kernel_seconds > 0.0);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let data: Vec<u32> = (0..4096).map(|i| i * 7).collect();
        let run = |workers| {
            let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(workers);
            let r = sim.launch(LaunchConfig::new(32, 128), &Doubler { data: &data }).unwrap();
            (r.outputs, r.stats.metrics, r.stats.kernel_seconds)
        };
        let (o1, m1, t1) = run(1);
        let (o8, m8, t8) = run(8);
        assert_eq!(o1, o8);
        assert_eq!(m1, m8);
        assert_eq!(t1, t8);
    }

    /// A two-phase kernel exercising barrier semantics: phase 1 writes a
    /// shared buffer, phase 2 reads what *other* threads wrote.
    struct Reverser;

    impl BlockKernel for Reverser {
        type Output = Vec<u8>;
        fn run_block(&self, block: &mut BlockCtx) -> Vec<u8> {
            let n = block.block_dim;
            let mut shared = vec![0u8; n];
            block.par_threads(|t| {
                shared[t.tid] = t.tid as u8;
                t.shared_write(t.tid as u64, 1);
            });
            let mut out = vec![0u8; n];
            block.par_threads(|t| {
                t.shared_read((n - 1 - t.tid) as u64, 1);
                out[t.tid] = shared[n - 1 - t.tid];
            });
            out
        }
    }

    #[test]
    fn barrier_phases_see_prior_writes() {
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
        let result = sim.launch(LaunchConfig::new(2, 64), &Reverser).unwrap();
        for out in &result.outputs {
            assert_eq!(out[0], 63);
            assert_eq!(out[63], 0);
        }
        // Two phases per block → two barriers each.
        assert_eq!(result.stats.metrics.barriers, 4);
    }

    #[test]
    fn counters_export_is_stable_and_finite() {
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
        let result = sim.launch(LaunchConfig::new(2, 64), &Reverser).unwrap();
        let counters = result.stats.counters();
        let names: Vec<&str> = counters.iter().map(|(n, _)| *n).collect();
        // Schema names the bench report depends on.
        for required in ["kernel_seconds", "work_cycles", "global_transactions", "barriers"] {
            assert!(names.contains(&required), "missing counter {required}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate counter names");
        for (name, value) in &counters {
            assert!(value.is_finite(), "{name} not finite");
        }
        assert_eq!(counters.iter().find(|(n, _)| *n == "barriers").unwrap().1, 4.0);
    }

    #[test]
    fn launch_validation() {
        let sim = GpuSim::new(DeviceSpec::gtx480());
        let err = sim.launch(LaunchConfig::new(1, 0), &Reverser).unwrap_err();
        assert!(matches!(err, LaunchError::BadBlockDim { .. }));

        let err = sim.launch(LaunchConfig::new(1, 4096), &Reverser).unwrap_err();
        assert!(matches!(err, LaunchError::BadBlockDim { .. }));

        let err = sim.launch(LaunchConfig::new(1, 64).with_shared(1 << 20), &Reverser).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemOverflow { .. }));
        assert!(err.to_string().contains("shared memory"));
    }

    #[test]
    fn empty_grid_is_legal() {
        let sim = GpuSim::new(DeviceSpec::gtx480());
        let result = sim.launch(LaunchConfig::new(0, 64), &Reverser).unwrap();
        assert!(result.outputs.is_empty());
    }

    #[test]
    fn single_thread_helper_runs_once() {
        struct Once;
        impl BlockKernel for Once {
            type Output = usize;
            fn run_block(&self, block: &mut BlockCtx) -> usize {
                let mut count = 0;
                block.single_thread(|t| {
                    assert_eq!(t.tid, 0);
                    t.charge_ops(5);
                    count += 1;
                });
                count
            }
        }
        let sim = GpuSim::new(DeviceSpec::gtx480());
        let result = sim.launch(LaunchConfig::new(3, 256), &Once).unwrap();
        assert_eq!(result.outputs, vec![1, 1, 1]);
    }

    #[test]
    fn fault_model_fails_launches_then_heals_and_shares_counter_across_clones() {
        use crate::fault::DeviceFaultConfig;
        let data: Vec<u32> = (0..256).collect();
        let sim = GpuSim::new(DeviceSpec::gtx480())
            .with_workers(2)
            .with_fault_model(DeviceFaultModel::new(DeviceFaultConfig::new(5).dead_at(1, Some(2))));
        let clone = sim.clone();
        let cfg = LaunchConfig::new(2, 128);
        assert!(sim.launch(cfg, &Doubler { data: &data }).is_ok());
        // Launches 1 and 2 fall in the dead window — including one issued
        // through a clone, which shares the launch counter.
        let err = clone.launch(cfg, &Doubler { data: &data }).unwrap_err();
        assert!(matches!(err, LaunchError::DeviceFault { kind: FaultKind::Dead, launch_index: 1 }));
        assert!(!err.to_string().is_empty());
        assert!(sim.launch(cfg, &Doubler { data: &data }).is_err());
        // Healed: launch 3 runs again.
        assert!(sim.launch(cfg, &Doubler { data: &data }).is_ok());
        assert_eq!(sim.fault_model().unwrap().launches(), 4);
    }

    #[test]
    fn slow_device_stretches_modelled_time_only() {
        use crate::fault::DeviceFaultConfig;
        let data: Vec<u32> = (0..1024).collect();
        let cfg = LaunchConfig::new(8, 128);
        let healthy =
            GpuSim::new(DeviceSpec::gtx480()).launch(cfg, &Doubler { data: &data }).unwrap();
        let slow = GpuSim::new(DeviceSpec::gtx480())
            .with_fault_model(DeviceFaultModel::new(DeviceFaultConfig::new(0).slow(3.0)))
            .launch(cfg, &Doubler { data: &data })
            .unwrap();
        assert!((slow.stats.kernel_seconds / healthy.stats.kernel_seconds - 3.0).abs() < 1e-9);
        assert_eq!(slow.stats.cost.cycles, healthy.stats.cost.cycles);
        assert_eq!(slow.outputs, healthy.outputs);
    }

    #[test]
    fn global_tid_is_cuda_style() {
        struct Ids;
        impl BlockKernel for Ids {
            type Output = Vec<usize>;
            fn run_block(&self, block: &mut BlockCtx) -> Vec<usize> {
                let mut ids = Vec::new();
                block.par_threads(|t| ids.push(t.global_tid()));
                ids
            }
        }
        let sim = GpuSim::new(DeviceSpec::gtx480());
        let result = sim.launch(LaunchConfig::new(3, 4), &Ids).unwrap();
        assert_eq!(result.outputs[2], vec![8, 9, 10, 11]);
    }
}
