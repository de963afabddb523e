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
use crate::meter::{BlockMeter, BlockMetrics, MemoryMode};
use crate::replay::{PhaseDelta, PhaseShape, ReplayMemo, ReplayStats};
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
    /// The simulator's replay memo; `None` on an armed launch, which
    /// meters every access.
    replay: Option<Arc<ReplayMemo>>,
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

    /// True on an armed launch ([`GpuSim::with_sanitizer`]), where a
    /// kernel must log exactly every access the sanitizer should see
    /// rather than take a closed form.
    pub fn sanitized(&self) -> bool {
        self.meter.sanitized()
    }

    /// Runs `phases`, one or more complete barrier-delimited phases that
    /// only meter, or adds the metrics they produced the last time they
    /// ran with the same [`PhaseShape`] in a block of this width
    /// ([`crate::replay`]). On a replay `phases` does not run, so it must
    /// compute nothing the kernel uses later, and every access it logs
    /// must follow from `shape` and the block width.
    ///
    /// Armed launches, and blocks in which a thread has exited, always
    /// run `phases` on the exact meter.
    pub fn replay_phases(&mut self, shape: PhaseShape, phases: impl FnOnce(&mut BlockCtx)) {
        self.replay_memory(shape, |_| {}, phases);
    }

    /// Runs `live`, one or more complete phases whose logged accesses
    /// follow from `shape` and the block width but whose ops and bulk
    /// charges may follow the data, then [`Self::replay_phases`]'s
    /// `phases` under the same shape ([`crate::replay`]). `live` always
    /// runs. When the shape is stored, each access `live` logs charges
    /// only its issue op, so every warp's busiest lane stays exact, and
    /// the stored delta of those accesses and of `phases` is added after
    /// `live` in place of running `phases`. Otherwise both are metered
    /// exactly, with `live`'s logged accesses priced apart from its bulk
    /// charges, and what the accesses and `phases` added is stored.
    ///
    /// Armed launches, and blocks in which a thread has exited, always
    /// run both on the exact meter.
    pub fn replay_memory(
        &mut self,
        shape: PhaseShape,
        live: impl FnOnce(&mut BlockCtx),
        phases: impl FnOnce(&mut BlockCtx),
    ) {
        let Some(memo) = self.replay.take() else {
            live(self);
            return phases(self);
        };
        if self.exited.contains(&true) {
            live(self);
            phases(self);
        } else {
            let key = memo.key(&shape, self.block_dim);
            if let Some(delta) = memo.lookup(&key, shape.shape) {
                self.meter.set_memory(MemoryMode::Replayed);
                live(self);
                self.meter.set_memory(MemoryMode::Exact);
                delta.apply(self.meter.metrics_mut());
            } else {
                self.meter.set_memory(MemoryMode::Recorded(BlockMetrics::default()));
                live(self);
                let MemoryMode::Recorded(memory) = self.meter.set_memory(MemoryMode::Exact) else {
                    unreachable!("only this method changes the memory mode");
                };
                let before = self.meter.metrics().clone();
                self.meter.metrics_mut().merge(&memory);
                phases(self);
                // A run that left work before a barrier or exited a thread
                // is not a whole phase run, so it is not stored.
                if self.meter.at_barrier() && !self.exited.contains(&true) {
                    if let Some(delta) = PhaseDelta::between(&before, self.meter.metrics()) {
                        memo.insert(&key, shape.shape, delta);
                    }
                }
            }
        }
        self.replay = Some(memo);
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
    /// divergence, which an armed simulator ([`GpuSim::with_sanitizer`])
    /// reports.
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

    /// Bulk accounting for `accesses` shared accesses when this thread is
    /// the only lane of its warp touching shared memory in the phase and
    /// each access stays inside one 4-byte word: each is then a warp
    /// instruction of its own and costs one bank cycle, as the exact path
    /// prices it.
    #[inline]
    pub fn shared_lone_lane_bulk(&mut self, accesses: u64) {
        self.meter.shared_lone_lane_bulk(self.tid, accesses);
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
    /// Shared-memory race and barrier-divergence findings: `Some` exactly
    /// when the simulator was armed with [`GpuSim::with_sanitizer`].
    pub sanitizer: Option<SanitizerReport>,
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
/// optionally a [`DeviceFaultModel`] injecting failures at the launch
/// seam, and optionally the shared-memory sanitizer. Clones share the
/// fault model and the phase replay memo ([`crate::replay`]).
#[derive(Debug, Clone)]
pub struct GpuSim {
    device: DeviceSpec,
    workers: usize,
    fault: Option<Arc<DeviceFaultModel>>,
    sanitize: bool,
    replay: Option<Arc<ReplayMemo>>,
}

impl GpuSim {
    /// Creates a simulator for `device` using all available host cores.
    pub fn new(device: DeviceSpec) -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        let replay = ReplayMemo::new(device.warp_size, device.transaction_bytes).map(Arc::new);
        Self { device, workers, fault: None, sanitize: false, replay }
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

    /// Arms the shared-memory sanitizer on every launch: each exact shared
    /// access is recorded with its read/write kind and swept at each
    /// barrier for intra-phase conflicts between threads, and barriers
    /// only part of a block arrives at (after [`ThreadCtx::exit_thread`])
    /// are reported as divergence. The verdict lands in
    /// [`LaunchStats::sanitizer`]; outputs and every other statistic are
    /// those of an unarmed launch — the sanitizer only observes.
    pub fn with_sanitizer(mut self) -> Self {
        self.sanitize = true;
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

    /// Size and hit counts of the phase replay memo this simulator shares
    /// with its clones (empty when the device keeps none).
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay.as_ref().map(|memo| memo.stats()).unwrap_or_default()
    }

    /// Launches `kernel` over `cfg.grid_dim` blocks and waits for
    /// completion, returning per-block outputs and launch statistics.
    pub fn launch<K: BlockKernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<LaunchResult<K::Output>, LaunchError> {
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
                        replay: if self.sanitize { None } else { self.replay.clone() },
                    };
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= cfg.grid_dim {
                            break;
                        }
                        block.block_idx = idx;
                        block.exited.fill(false);
                        block.meter.note_shared_alloc(cfg.shared_bytes);
                        if self.sanitize {
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
        let mut sanitizer = self.sanitize.then(|| SanitizerReport {
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            checked_accesses: 0,
            phases: 0,
            conflicts: 0,
            divergent_blocks: 0,
            findings: Vec::new(),
        });
        let mut merged = BlockMetrics::default();
        for slot in slots.into_inner() {
            let (output, metrics, findings) = slot.expect("every block ran");
            merged.merge(&metrics);
            outputs.push(output);
            per_block.push(metrics);
            if let (Some(report), Some(block)) = (&mut sanitizer, findings) {
                report.checked_accesses += block.checked_accesses;
                report.phases += block.phases;
                report.conflicts += block.conflict_count();
                report.divergent_blocks += u64::from(block.divergence.is_some());
                if !block.is_clean() {
                    report.findings.push(block);
                }
            }
        }
        let mut cost =
            cost_launch(&self.device, cfg.grid_dim, cfg.block_dim, cfg.shared_bytes, &per_block);
        if latency_multiplier != 1.0 {
            // A slow device stretches the modelled time; cycle counters
            // stay untouched (the work is the same, the clock is not).
            cost.seconds *= latency_multiplier;
        }
        // (per_block is moved into the stats below for trace reconstruction)
        Ok(LaunchResult {
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
                sanitizer,
            },
        })
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

    /// Each block stages `live` words (a shape-only phase whose lanes
    /// also race on one shared word, so an armed launch has findings),
    /// then logs data-dependent accesses outside the replay.
    struct Staged {
        live: Vec<usize>,
        data: Vec<u64>,
    }

    impl BlockKernel for Staged {
        type Output = ();
        fn run_block(&self, block: &mut BlockCtx) {
            let live = self.live[block.block_idx];
            let shape = PhaseShape {
                phase: "test.stage",
                shape: live as u32,
                params: 0,
                global_bases: [4096 * block.block_idx as u64, 0],
                shared_base: 64,
            };
            block.replay_phases(shape, |block| {
                block.par_threads(|t| {
                    if t.tid < live {
                        t.global_read(shape.global_bases[0] + 4 * t.tid as u64, 4);
                        t.shared_write(64 + 4 * t.tid as u64, 4);
                        t.shared_write(0, 4);
                    }
                });
                block.single_thread(|t| t.charge_ops(live as u64));
            });
            let word = self.data[block.block_idx];
            block.par_threads(|t| t.shared_read((word * t.tid as u64) % 4096, 2));
        }
    }

    fn staged(live: &[usize], data: u64) -> Staged {
        Staged {
            live: live.to_vec(),
            data: (0..live.len() as u64).map(|b| data.wrapping_mul(b + 3) % 61).collect(),
        }
    }

    #[test]
    fn a_replayed_phase_adds_the_exact_delta() {
        let live = [128, 5, 128, 77, 5, 128, 0, 77];
        let cfg = LaunchConfig::new(live.len(), 128);
        let exact = GpuSim::new(DeviceSpec::gtx480())
            .with_sanitizer()
            .launch(cfg, &staged(&live, 7))
            .unwrap()
            .stats;
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
        // Warm the memo on other data with the same shapes.
        sim.launch(cfg, &staged(&live, 11)).unwrap();
        let warm = sim.launch(cfg, &staged(&live, 7)).unwrap().stats;
        assert_eq!(warm.per_block, exact.per_block);
        assert_eq!(warm.cost.cycles, exact.cost.cycles);
        let stats = sim.replay_stats();
        assert_eq!(stats.entries, 4, "one entry per live count");
        assert_eq!(stats.phases[0].hits + stats.phases[0].misses, 2 * live.len() as u64);
        assert!(stats.phases[0].hits >= live.len() as u64);
    }

    #[test]
    fn armed_launches_bypass_the_memo() {
        let live = [128, 5, 77, 128];
        let cfg = LaunchConfig::new(live.len(), 128);
        let cold = GpuSim::new(DeviceSpec::gtx480()).with_sanitizer();
        let cold = cold.launch(cfg, &staged(&live, 3)).unwrap().stats;
        let sim = GpuSim::new(DeviceSpec::gtx480());
        sim.launch(cfg, &staged(&live, 5)).unwrap();
        let before = sim.replay_stats();
        let warm = sim.clone().with_sanitizer().launch(cfg, &staged(&live, 3)).unwrap().stats;
        assert_eq!(sim.replay_stats(), before, "an armed launch touched the memo");
        let report = warm.sanitizer.as_ref().unwrap();
        assert!(report.conflicts > 0, "the fixture races");
        assert_eq!(warm.sanitizer, cold.sanitizer);
        assert_eq!(warm.per_block, cold.per_block);
    }

    #[test]
    fn block_widths_never_share_an_entry() {
        let live = [40, 40];
        let sim = GpuSim::new(DeviceSpec::gtx480());
        for width in [128, 64] {
            let cfg = LaunchConfig::new(live.len(), width);
            let warm = sim.launch(cfg, &staged(&live, 9)).unwrap().stats;
            let fresh =
                GpuSim::new(DeviceSpec::gtx480()).launch(cfg, &staged(&live, 9)).unwrap().stats;
            assert_eq!(warm.per_block, fresh.per_block, "block width {width}");
        }
        assert_eq!(sim.replay_stats().entries, 2);
    }

    /// Each block's live lanes log accesses that follow from `live` alone
    /// (one racing on a shared word) while their ops and bulk charges
    /// follow `data`; a shape-only phase follows. Blocks listed in `exit`
    /// retire thread 3 first. Each block returns the accesses its last
    /// live lane saw logged before the barrier.
    struct Searched {
        live: Vec<usize>,
        data: Vec<u64>,
        exit: Vec<usize>,
    }

    impl BlockKernel for Searched {
        type Output = usize;
        fn run_block(&self, block: &mut BlockCtx) -> usize {
            let (live, data) = (self.live[block.block_idx], self.data[block.block_idx]);
            if self.exit.contains(&block.block_idx) {
                block.par_threads(|t| {
                    if t.tid == 3 {
                        t.exit_thread();
                    }
                });
            }
            let shape = PhaseShape {
                phase: "test.search",
                shape: live as u32,
                params: 0,
                global_bases: [4096 * block.block_idx as u64, 1 << 20],
                shared_base: 64,
            };
            let mut logged = 0;
            block.replay_memory(
                shape,
                |block| {
                    block.par_threads(|t| {
                        if t.tid >= live {
                            return;
                        }
                        let work = (data * (t.tid as u64 + 1)) % 23;
                        t.charge_ops(work);
                        t.shared_bulk(work % 5, 1 + work % 3);
                        t.global_cached_bulk(work % 2);
                        t.shared_read(0, 64);
                        t.shared_write(64 + 4 * t.tid as u64, 4);
                        t.shared_write(0, 4);
                        t.global_write(shape.global_bases[0] + 4 * t.tid as u64, 4);
                        t.global_write(shape.global_bases[1] + 2 * t.tid as u64, 2);
                        if t.tid + 1 == live {
                            logged = t.meter.logged_accesses();
                        }
                    });
                },
                |block| block.single_thread(|t| t.charge_ops(live as u64)),
            );
            logged
        }
    }

    fn searched(live: &[usize], data: u64, exit: &[usize]) -> Searched {
        Searched {
            live: live.to_vec(),
            data: (0..live.len() as u64).map(|b| data.wrapping_mul(b + 5) % 97).collect(),
            exit: exit.to_vec(),
        }
    }

    #[test]
    fn a_memory_replay_keeps_the_ops_of_the_data_it_runs_on() {
        let live = [128, 5, 128, 77, 5, 128, 77, 1];
        let cfg = LaunchConfig::new(live.len(), 128);
        let exact = GpuSim::new(DeviceSpec::gtx480())
            .with_sanitizer()
            .launch(cfg, &searched(&live, 7, &[]))
            .unwrap();
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(1);
        let cold = sim.launch(cfg, &searched(&live, 7, &[])).unwrap();
        // Other data with the same shapes: every block's busiest lanes and
        // bulk charges differ from the run the deltas were taken from.
        sim.launch(cfg, &searched(&live, 11, &[])).unwrap();
        let warm = sim.launch(cfg, &searched(&live, 7, &[])).unwrap();
        for run in [&cold, &warm] {
            assert_eq!(run.stats.per_block, exact.stats.per_block);
            assert_eq!(run.stats.cost.cycles, exact.stats.cost.cycles);
        }
        let stats = sim.replay_stats();
        assert_eq!(stats.entries, 4, "one entry per live count");
        assert_eq!(stats.phases[0].misses, 4, "one worker prices each shape once");
        // A hit logs nothing: the lanes' logs stay empty up to the
        // barrier. The cold launch misses on each live count's first block.
        for (block, &logged) in cold.outputs.iter().enumerate() {
            let first = !live[..block].contains(&live[block]);
            assert_eq!(logged > 0, first, "block {block}: {:?}", cold.outputs);
        }
        assert_eq!(warm.outputs, vec![0; live.len()]);
    }

    #[test]
    fn armed_launches_and_exited_threads_bypass_the_memory_replay() {
        let live = [128, 5, 77, 128];
        let cfg = LaunchConfig::new(live.len(), 128);
        let exact = |kernel: &Searched| {
            GpuSim::new(DeviceSpec::gtx480()).with_sanitizer().launch(cfg, kernel).unwrap().stats
        };
        let sim = GpuSim::new(DeviceSpec::gtx480());
        sim.launch(cfg, &searched(&live, 5, &[])).unwrap();
        let before = sim.replay_stats();
        let armed = sim.clone().with_sanitizer();
        for exit in [&[][..], &[0, 2]] {
            let kernel = searched(&live, 3, exit);
            let cold = exact(&kernel);
            let warm = armed.launch(cfg, &kernel).unwrap();
            assert_eq!(sim.replay_stats(), before, "an armed launch touched the memo");
            assert!(warm.stats.sanitizer.as_ref().unwrap().conflicts > 0, "the fixture races");
            assert_eq!(warm.stats.sanitizer, cold.sanitizer);
            assert_eq!(warm.stats.per_block, cold.per_block);
            assert!(warm.outputs.iter().all(|&logged| logged > 0));
        }
        // Unarmed, a block with an exited thread meters exactly and
        // neither looks the memo up nor stores into it.
        let all_exit = searched(&live, 3, &[0, 1, 2, 3]);
        let unarmed = sim.launch(cfg, &all_exit).unwrap();
        assert_eq!(sim.replay_stats(), before, "an exited block used the memo");
        assert_eq!(unarmed.stats.per_block, exact(&all_exit).per_block);
    }

    #[test]
    fn a_lone_lane_bulk_prices_like_its_exact_accesses() {
        struct Lone(bool);
        impl BlockKernel for Lone {
            type Output = ();
            fn run_block(&self, block: &mut BlockCtx) {
                let bulk = self.0;
                block.single_thread(|t| {
                    if bulk {
                        t.shared_lone_lane_bulk(37);
                    } else {
                        for g in 0..37 {
                            t.shared_write(6 + 2 * g, 2);
                        }
                    }
                });
            }
        }
        let sim = GpuSim::new(DeviceSpec::gtx480());
        let cfg = LaunchConfig::new(2, 64);
        let exact = sim.launch(cfg, &Lone(false)).unwrap().stats;
        let bulk = sim.launch(cfg, &Lone(true)).unwrap().stats;
        assert_eq!(bulk.per_block, exact.per_block);
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
