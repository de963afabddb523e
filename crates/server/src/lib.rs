//! # culzss-server — a multi-tenant compression service over CULZSS
//!
//! The paper positions CULZSS as infrastructure that lets systems
//! "compress the data before sending over the network" without
//! monopolizing the host CPUs (§I, §VII). This crate builds that
//! deployment shape: a long-running service accepting compression and
//! decompression jobs from many tenants, multiplexed over a pool of
//! simulated GPU devices plus CPU fallback workers.
//!
//! The moving parts:
//!
//! - **Admission control & backpressure** — a bounded priority queue
//!   with per-tenant token-bucket rate limits (borrowable burst
//!   permits); a full queue refuses immediately with a typed
//!   [`SubmitError`] (never blocks, never silently drops).
//! - **Scheduling** — per-device shards with deficit-round-robin
//!   weighted-fair dequeue across tenants inside each priority band;
//!   idle devices steal from the deepest healthy peer's shard; batches
//!   coalesce same-kind jobs and report sequential vs. pipelined
//!   makespan ([`BatchReport`], built on
//!   `culzss_gpusim::streams::BatchTimeline`).
//! - **Graceful degradation** — simulated device failures (injected via
//!   [`FaultPlan`] or real launch errors) consume a bounded retry budget
//!   and reroute onto another healthy GPU first, degrading to the
//!   wire-compatible CPU path (`culzss::hetero`) only when no healthy
//!   device remains.
//! - **Failure domains** — per-device circuit breakers
//!   (closed → open → half-open, [`health`]), deterministic jittered
//!   retry backoff, a watchdog that converts hangs into typed
//!   [`JobError::DeviceTimeout`] failures, and brownout load-shedding
//!   ([`SubmitError::Degraded`]) when every breaker is open and the
//!   queue saturates. Seeded per-device chaos schedules
//!   ([`FaultPlan::chaos`]) drive the simulator's own fault seam for
//!   replayable chaos tests.
//! - **End-to-end integrity** — every compressed output is proven by a
//!   host decompress-and-compare before its ticket resolves
//!   ([`ServerConfig::verify_outputs`]); [`FaultPlan`] can inject
//!   payload corruption (bit flips, tail truncation, chunk-table
//!   tampering) between compression and verification. Detected
//!   corruption consumes the retry budget and then quarantines the job
//!   ([`JobError::Quarantined`]) — corrupted bytes are never returned —
//!   with global and per-tenant `integrity_failures` counters.
//! - **Lifecycle** — per-job deadlines, and a [`Service::shutdown`]
//!   that drains every admitted job before the workers exit, leaving a
//!   [`ServiceStats`] snapshot whose counters reconcile.
//! - **Load** — a closed-loop multi-tenant generator ([`loadgen`])
//!   driving mixed traffic from the `culzss-datasets` corpora.
//! - **Tracing** — always-on span recording from admission to delivery,
//!   merged with the modelled per-SM GPU timelines into one Chrome-trace
//!   export ([`tracing`], [`Service::trace_chrome_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fault;
pub mod health;
pub mod job;
pub mod json;
pub mod loadgen;
mod queue;
pub mod service;
pub mod stats;
pub mod tracing;
mod worker;

pub use batch::BatchReport;
pub use fault::FaultPlan;
pub use health::{BreakerState, BreakerTransition, DeviceHealthSnapshot, HealthConfig};
pub use job::{
    EngineKind, JobError, JobId, JobKind, JobOutcome, JobResult, JobSpec, JobTicket, Priority,
    SubmitError,
};
pub use loadgen::{LoadGenConfig, LoadProfile, LoadReport};
pub use service::{ServerConfig, Service};
pub use stats::{HistogramSnapshot, ServiceStats};
pub use tracing::{chrome_trace, validate_chrome_trace, SpanRecord};
