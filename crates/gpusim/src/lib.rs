//! # culzss-gpusim — a CUDA-like GPU execution-model simulator
//!
//! The CULZSS paper runs on a GeForce GTX 480 (Fermi). This environment has
//! no GPU, so this crate provides the substrate the paper's kernels run on:
//! a *functional* executor with CUDA semantics plus an *analytic* Fermi
//! performance model. The two halves are deliberately separated:
//!
//! * **Execution** ([`exec`]) — kernels are plain Rust run per thread block.
//!   A block's threads execute deterministically in `tid` order between
//!   barriers ([`exec::BlockCtx::par_threads`] is one barrier-delimited
//!   phase, exactly like code between `__syncthreads()` calls). Blocks run
//!   concurrently on host worker threads, so simulated kernels really are
//!   parallel. Kernel outputs are returned per block, in block order.
//! * **Metering** ([`meter`], [`coalesce`]) — kernels declare their memory
//!   traffic and arithmetic through the [`exec::ThreadCtx`] they receive.
//!   Fine-grained accesses are logged and analyzed per warp (coalescing
//!   into 128-byte transactions, shared-memory bank-conflict
//!   serialization); hot inner loops use the `*_bulk` variants that apply
//!   the same analytics in closed form so simulation stays fast.
//! * **Costing** ([`cost`], [`occupancy`], [`device`]) — the per-block
//!   metrics are folded into cycles using published Fermi parameters
//!   (SM/core counts, clocks, transaction size, bandwidth, latency) and an
//!   occupancy-based latency-hiding factor, then into seconds. PCIe
//!   transfers are billed by [`transfer`].
//! * **Fault injection** ([`fault`]) — an optional seeded
//!   [`fault::DeviceFaultModel`] installed via
//!   [`exec::GpuSim::with_fault_model`] makes launches fail the way real
//!   devices do (transient errors, sticky dead windows, watchdog-killed
//!   hangs, thermal slowdowns), deterministically per seed, so failure
//!   handling above the simulator can be chaos-tested and replayed.
//!
//! The model is *not* cycle-accurate; it is a transparent first-order model
//! whose terms are the exact quantities the paper's optimization section
//! reasons about (coalesced transactions, bank conflicts, threads per
//! block, shared-versus-global buffer placement). See `DESIGN.md` §6.
//!
//! ## Example: a metered SAXPY
//!
//! ```
//! use culzss_gpusim::device::DeviceSpec;
//! use culzss_gpusim::exec::{BlockKernel, BlockCtx, GpuSim, LaunchConfig};
//!
//! struct Saxpy<'a> { a: f32, x: &'a [f32], y: &'a [f32] }
//!
//! impl BlockKernel for Saxpy<'_> {
//!     type Output = Vec<f32>;
//!     fn run_block(&self, block: &mut BlockCtx) -> Vec<f32> {
//!         let base = block.block_idx * block.block_dim;
//!         let mut out = vec![0.0; block.block_dim.min(self.x.len() - base)];
//!         block.par_threads(|t| {
//!             let i = base + t.tid;
//!             if i < self.x.len() {
//!                 t.global_read((i * 4) as u64, 4); // x[i]
//!                 t.global_read((self.x.len() * 4 + i * 4) as u64, 4); // y[i]
//!                 t.charge_ops(2); // multiply + add
//!                 out[t.tid] = self.a * self.x[i] + self.y[i];
//!                 t.global_write((2 * self.x.len() * 4 + i * 4) as u64, 4);
//!             }
//!         });
//!         out
//!     }
//! }
//!
//! let x = vec![1.0f32; 4096];
//! let y = vec![2.0f32; 4096];
//! let sim = GpuSim::new(DeviceSpec::gtx480());
//! let cfg = LaunchConfig::new(x.len() / 128, 128);
//! let result = sim.launch(cfg, &Saxpy { a: 3.0, x: &x, y: &y }).unwrap();
//! assert_eq!(result.outputs[0][0], 5.0);
//! assert!(result.stats.kernel_seconds > 0.0);
//! // 32 consecutive 4-byte reads coalesce into one 128-byte transaction.
//! assert_eq!(result.stats.metrics.global_transactions, (3 * 4096 / 32) as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod cost;
pub mod device;
pub mod exec;
pub mod fault;
pub mod meter;
pub mod multi;
pub mod occupancy;
pub mod replay;
pub mod report;
pub mod sanitizer;
pub mod streams;
pub mod trace;
pub mod transfer;

pub use device::DeviceSpec;
pub use exec::{BlockCtx, BlockKernel, GpuSim, LaunchConfig, LaunchResult, ThreadCtx};
pub use fault::{DeviceFaultConfig, DeviceFaultModel, FaultKind};
pub use meter::{BlockMetrics, SharedRun};
pub use replay::{PhaseShape, ReplayStats};
pub use sanitizer::SanitizerReport;
