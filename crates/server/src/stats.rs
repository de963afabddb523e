//! Service counters, histograms, and the reconcilable stats snapshot.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use culzss_gpusim::streams::overlap_speedup;
use parking_lot::Mutex;

use crate::batch::BatchReport;
use crate::health::{BreakerTransition, DeviceHealthSnapshot};
use crate::job::{EngineKind, JobError, SubmitError};

/// How many recent batch reports the service keeps for inspection.
const BATCH_RING: usize = 256;

/// A fixed-bound histogram with atomic buckets. `counts[i]` collects
/// samples `≤ bounds[i]`; the final bucket is overflow.
#[derive(Debug)]
pub(crate) struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Largest sample seen, as f64 bits (samples are non-negative, so
    /// the IEEE-754 bit pattern orders the same as the value). Used to
    /// clamp overflow-bucket quantiles to an observed value instead of
    /// reporting infinity.
    max_sample: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self { bounds, counts, max_sample: AtomicU64::new(0) }
    }

    /// Decades from 10 µs to 100 s — job latency.
    fn latency() -> Self {
        Self::new(vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0])
    }

    /// Powers of two up to 1024 — queue depth observed at admission.
    fn depth() -> Self {
        Self::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0])
    }

    pub fn record(&self, sample: f64) {
        let i = self.bounds.iter().position(|b| sample <= *b).unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Relaxed);
        let bits = sample.max(0.0).to_bits();
        let mut seen = self.max_sample.load(Relaxed);
        while bits > seen {
            match self.max_sample.compare_exchange_weak(seen, bits, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Relaxed)).collect(),
            max_sample: f64::from_bits(self.max_sample.load(Relaxed)),
        }
    }
}

/// Immutable histogram snapshot: `counts[i]` is the number of samples
/// `≤ bounds[i]`, with one extra overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Largest sample observed (0.0 when empty). Caps the overflow
    /// bucket so quantiles stay finite.
    pub max_sample: f64,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate of quantile `q` (`0.0..=1.0`), linearly interpolated
    /// within the containing bucket. The overflow bucket is clamped to
    /// the largest observed sample, so the result is always finite;
    /// `0.0` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut before = 0u64;
        let mut last = None;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank <= (before + count) as f64 {
                return self.interpolate(i, before, count, rank);
            }
            last = Some((i, before, count));
            before += count;
        }
        // Floating-point slack pushed `rank` past the cumulative total;
        // clamp into the last non-empty bucket.
        let (i, before, count) = last.expect("total > 0 implies a non-empty bucket");
        self.interpolate(i, before, count, rank)
    }

    /// Linear interpolation of continuous rank `rank` within bucket
    /// `bucket`, whose cumulative predecessors hold `before` samples.
    fn interpolate(&self, bucket: usize, before: u64, count: u64, rank: f64) -> f64 {
        let lo = if bucket == 0 { 0.0 } else { self.bounds[bucket - 1] };
        let hi = match self.bounds.get(bucket) {
            Some(&bound) => bound,
            // Overflow bucket: the largest observed sample bounds it.
            None => self.max_sample.max(lo),
        };
        let frac = ((rank - before as f64) / count as f64).clamp(0.0, 1.0);
        lo + (hi - lo) * frac
    }
}

#[derive(Debug, Default)]
struct BatchAgg {
    sequential_seconds: f64,
    pipelined_seconds: f64,
    reports: VecDeque<BatchReport>,
}

/// Live counters shared by the service front door and the workers.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    received: AtomicU64,
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_tenant_cap: AtomicU64,
    rejected_degraded: AtomicU64,
    rejected_shutdown: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    deadline_missed: AtomicU64,
    device_failures: AtomicU64,
    device_timeouts: AtomicU64,
    breaker_denials: AtomicU64,
    backoff_requeues: AtomicU64,
    integrity_failures: AtomicU64,
    quarantined: AtomicU64,
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
    stolen_bytes: AtomicU64,
    borrows: AtomicU64,
    borrowed_bytes: AtomicU64,
    tenant_integrity: Mutex<BTreeMap<String, u64>>,
    tenant_completed: Mutex<BTreeMap<String, u64>>,
    gpu_jobs: AtomicU64,
    cpu_jobs: AtomicU64,
    cpu_fallback_completions: AtomicU64,
    batches: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    sancheck_launches: AtomicU64,
    sancheck_conflicts: AtomicU64,
    sancheck_divergent_blocks: AtomicU64,
    latency: Histogram,
    queue_depth: Histogram,
    batch_agg: Mutex<BatchAgg>,
    queue_wait_nanos: AtomicU64,
    service_nanos: AtomicU64,
    verify_nanos: AtomicU64,
    modeled_h2d_nanos: AtomicU64,
    modeled_kernel_nanos: AtomicU64,
    modeled_d2h_nanos: AtomicU64,
    modeled_cpu_nanos: AtomicU64,
}

/// Accumulates a duration into an integer nanosecond counter (atomics
/// hold no f64; nanoseconds keep summation exact enough for reports).
fn add_nanos(counter: &AtomicU64, seconds: f64) {
    if seconds > 0.0 {
        counter.fetch_add((seconds * 1e9) as u64, Relaxed);
    }
}

/// Reads an [`add_nanos`] accumulator back as seconds.
fn load_seconds(counter: &AtomicU64) -> f64 {
    counter.load(Relaxed) as f64 / 1e9
}

impl StatsCollector {
    pub fn new() -> Self {
        Self {
            received: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_tenant_cap: AtomicU64::new(0),
            rejected_degraded: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            device_failures: AtomicU64::new(0),
            device_timeouts: AtomicU64::new(0),
            breaker_denials: AtomicU64::new(0),
            backoff_requeues: AtomicU64::new(0),
            integrity_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            stolen_jobs: AtomicU64::new(0),
            stolen_bytes: AtomicU64::new(0),
            borrows: AtomicU64::new(0),
            borrowed_bytes: AtomicU64::new(0),
            tenant_integrity: Mutex::new(BTreeMap::new()),
            tenant_completed: Mutex::new(BTreeMap::new()),
            gpu_jobs: AtomicU64::new(0),
            cpu_jobs: AtomicU64::new(0),
            cpu_fallback_completions: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            sancheck_launches: AtomicU64::new(0),
            sancheck_conflicts: AtomicU64::new(0),
            sancheck_divergent_blocks: AtomicU64::new(0),
            latency: Histogram::latency(),
            queue_depth: Histogram::depth(),
            batch_agg: Mutex::new(BatchAgg::default()),
            queue_wait_nanos: AtomicU64::new(0),
            service_nanos: AtomicU64::new(0),
            verify_nanos: AtomicU64::new(0),
            modeled_h2d_nanos: AtomicU64::new(0),
            modeled_kernel_nanos: AtomicU64::new(0),
            modeled_d2h_nanos: AtomicU64::new(0),
            modeled_cpu_nanos: AtomicU64::new(0),
        }
    }

    /// Accumulates one job's wall-clock stage durations (derived from
    /// its trace spans): admission→dequeue wait, worker execution, and
    /// the verify-on-deliver pass.
    pub fn on_stage_seconds(&self, queue_wait: f64, service: f64, verify: f64) {
        add_nanos(&self.queue_wait_nanos, queue_wait);
        add_nanos(&self.service_nanos, service);
        add_nanos(&self.verify_nanos, verify);
    }

    /// Accumulates the cost model's stage breakdown for one GPU job
    /// (modelled seconds, not wall clock).
    pub fn on_modeled_stages(&self, h2d: f64, kernel: f64, d2h: f64, cpu: f64) {
        add_nanos(&self.modeled_h2d_nanos, h2d);
        add_nanos(&self.modeled_kernel_nanos, kernel);
        add_nanos(&self.modeled_d2h_nanos, d2h);
        add_nanos(&self.modeled_cpu_nanos, cpu);
    }

    pub fn on_received(&self) {
        self.received.fetch_add(1, Relaxed);
    }

    pub fn on_accepted(&self, depth_after: usize) {
        self.accepted.fetch_add(1, Relaxed);
        self.queue_depth.record(depth_after as f64);
    }

    pub fn on_rejected(&self, error: &SubmitError) {
        match error {
            SubmitError::Overloaded { .. } => &self.rejected_overloaded,
            SubmitError::TenantOverLimit { .. } => &self.rejected_tenant_cap,
            SubmitError::Degraded { .. } => &self.rejected_degraded,
            SubmitError::ShuttingDown => &self.rejected_shutdown,
        }
        .fetch_add(1, Relaxed);
    }

    pub fn on_completed(
        &self,
        tenant: &str,
        engine: EngineKind,
        retries: u32,
        bytes_in: u64,
        bytes_out: u64,
        latency_seconds: f64,
    ) {
        self.completed.fetch_add(1, Relaxed);
        *self.tenant_completed.lock().entry(tenant.to_string()).or_insert(0) += 1;
        self.bytes_in.fetch_add(bytes_in, Relaxed);
        self.bytes_out.fetch_add(bytes_out, Relaxed);
        self.latency.record(latency_seconds);
        match engine {
            EngineKind::Gpu { .. } => {
                self.gpu_jobs.fetch_add(1, Relaxed);
            }
            EngineKind::Cpu => {
                self.cpu_jobs.fetch_add(1, Relaxed);
                if retries > 0 {
                    self.cpu_fallback_completions.fetch_add(1, Relaxed);
                }
            }
        }
    }

    pub fn on_failed(&self, error: &JobError) {
        self.failed.fetch_add(1, Relaxed);
        match error {
            JobError::DeadlineMissed { .. } => {
                self.deadline_missed.fetch_add(1, Relaxed);
            }
            JobError::Quarantined { .. } => {
                self.quarantined.fetch_add(1, Relaxed);
            }
            _ => {}
        }
    }

    /// One compress attempt produced output that failed verification
    /// (injected or real corruption), accounted to `tenant`.
    pub fn on_integrity_failure(&self, tenant: &str) {
        self.integrity_failures.fetch_add(1, Relaxed);
        *self.tenant_integrity.lock().entry(tenant.to_string()).or_insert(0) += 1;
    }

    pub fn on_retried(&self) {
        self.retried.fetch_add(1, Relaxed);
    }

    pub fn on_device_failure(&self) {
        self.device_failures.fetch_add(1, Relaxed);
    }

    /// A device failure the watchdog classified as a hang (⊆ failures).
    pub fn on_device_timeout(&self) {
        self.device_timeouts.fetch_add(1, Relaxed);
    }

    /// A job was denied by an open breaker and rerouted.
    pub fn on_breaker_denied(&self) {
        self.breaker_denials.fetch_add(1, Relaxed);
    }

    /// A retried job was requeued with a backoff delay.
    pub fn on_backoff(&self) {
        self.backoff_requeues.fetch_add(1, Relaxed);
    }

    /// An idle worker stole a window of `jobs` jobs (`bytes` payload
    /// bytes) from a peer device's shard.
    pub fn on_steal(&self, jobs: u64, bytes: u64) {
        self.steals.fetch_add(1, Relaxed);
        self.stolen_jobs.fetch_add(jobs, Relaxed);
        self.stolen_bytes.fetch_add(bytes, Relaxed);
    }

    /// An admission borrowed `bytes` data permits against the tenant's
    /// future token-bucket refill.
    pub fn on_borrowed(&self, bytes: u64) {
        self.borrows.fetch_add(1, Relaxed);
        self.borrowed_bytes.fetch_add(bytes, Relaxed);
    }

    /// Folds a startup-probe racecheck verdict into the counters.
    pub fn on_sancheck(&self, report: &culzss_gpusim::SanitizerReport) {
        self.sancheck_launches.fetch_add(1, Relaxed);
        self.sancheck_conflicts.fetch_add(report.conflicts, Relaxed);
        self.sancheck_divergent_blocks.fetch_add(report.divergent_blocks, Relaxed);
    }

    pub fn on_batch(&self, report: BatchReport) {
        self.batches.fetch_add(1, Relaxed);
        let mut agg = self.batch_agg.lock();
        agg.sequential_seconds += report.sequential_seconds;
        agg.pipelined_seconds += report.pipelined_seconds;
        if agg.reports.len() == BATCH_RING {
            agg.reports.pop_front();
        }
        agg.reports.push_back(report);
    }

    pub fn recent_batches(&self) -> Vec<BatchReport> {
        self.batch_agg.lock().reports.iter().cloned().collect()
    }

    pub fn snapshot(&self) -> ServiceStats {
        let agg = self.batch_agg.lock();
        ServiceStats {
            received: self.received.load(Relaxed),
            accepted: self.accepted.load(Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Relaxed),
            rejected_tenant_cap: self.rejected_tenant_cap.load(Relaxed),
            rejected_degraded: self.rejected_degraded.load(Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Relaxed),
            completed: self.completed.load(Relaxed),
            failed: self.failed.load(Relaxed),
            retried: self.retried.load(Relaxed),
            deadline_missed: self.deadline_missed.load(Relaxed),
            device_failures: self.device_failures.load(Relaxed),
            device_timeouts: self.device_timeouts.load(Relaxed),
            breaker_denials: self.breaker_denials.load(Relaxed),
            backoff_requeues: self.backoff_requeues.load(Relaxed),
            integrity_failures: self.integrity_failures.load(Relaxed),
            quarantined: self.quarantined.load(Relaxed),
            steals: self.steals.load(Relaxed),
            stolen_jobs: self.stolen_jobs.load(Relaxed),
            stolen_bytes: self.stolen_bytes.load(Relaxed),
            borrows: self.borrows.load(Relaxed),
            borrowed_bytes: self.borrowed_bytes.load(Relaxed),
            tenant_integrity_failures: self.tenant_integrity.lock().clone(),
            tenant_completed: self.tenant_completed.lock().clone(),
            gpu_jobs: self.gpu_jobs.load(Relaxed),
            cpu_jobs: self.cpu_jobs.load(Relaxed),
            cpu_fallback_completions: self.cpu_fallback_completions.load(Relaxed),
            batches: self.batches.load(Relaxed),
            bytes_in: self.bytes_in.load(Relaxed),
            bytes_out: self.bytes_out.load(Relaxed),
            sancheck_launches: self.sancheck_launches.load(Relaxed),
            sancheck_conflicts: self.sancheck_conflicts.load(Relaxed),
            sancheck_divergent_blocks: self.sancheck_divergent_blocks.load(Relaxed),
            batch_sequential_seconds: agg.sequential_seconds,
            batch_pipelined_seconds: agg.pipelined_seconds,
            queue_wait_seconds: load_seconds(&self.queue_wait_nanos),
            service_seconds: load_seconds(&self.service_nanos),
            verify_seconds: load_seconds(&self.verify_nanos),
            modeled_h2d_seconds: load_seconds(&self.modeled_h2d_nanos),
            modeled_kernel_seconds: load_seconds(&self.modeled_kernel_nanos),
            modeled_d2h_seconds: load_seconds(&self.modeled_d2h_nanos),
            modeled_cpu_seconds: load_seconds(&self.modeled_cpu_nanos),
            // The chunk cache, health registry and trace recorder own
            // their counters; the service folds them in
            // ([`crate::service::Shared::stats_snapshot`]).
            cache_hits: 0,
            cache_misses: 0,
            cache_bytes_saved: 0,
            cache_evictions: 0,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
            quota_admitted: 0,
            quota_released: 0,
            quota_outstanding: 0,
            device_health: Vec::new(),
            breaker_transitions: Vec::new(),
            trace_dropped: 0,
            latency: self.latency.snapshot(),
            queue_depth: self.queue_depth.snapshot(),
        }
    }
}

/// A point-in-time snapshot of the service counters.
///
/// At quiescence (after [`crate::Service::shutdown`] drains) the
/// counters [reconcile](Self::reconciles): every received job was either
/// rejected at the door or accepted, and every accepted job either
/// completed or failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Submissions seen (accepted + rejected).
    pub received: u64,
    /// Submissions admitted past admission control.
    pub accepted: u64,
    /// Refused: global queue at capacity.
    pub rejected_overloaded: u64,
    /// Refused: tenant's token bucket exhausted (over its sustained
    /// data-permit rate, past burst and borrowable headroom).
    pub rejected_tenant_cap: u64,
    /// Refused: brownout shed (every breaker open, queue saturated).
    pub rejected_degraded: u64,
    /// Refused: service shutting down.
    pub rejected_shutdown: u64,
    /// Accepted jobs that resolved successfully.
    pub completed: u64,
    /// Accepted jobs that resolved with an error.
    pub failed: u64,
    /// Retry attempts consumed (device failure → CPU fallback lane).
    pub retried: u64,
    /// Failures caused by an expired deadline (⊆ `failed`).
    pub deadline_missed: u64,
    /// Device failures observed (injected or real launch errors).
    pub device_failures: u64,
    /// Device failures the watchdog classified as hangs (⊆
    /// `device_failures`).
    pub device_timeouts: u64,
    /// Jobs denied by an open circuit breaker and rerouted.
    pub breaker_denials: u64,
    /// Retried jobs requeued with a backoff delay.
    pub backoff_requeues: u64,
    /// Compress attempts whose output failed the verify-on-decompress
    /// gate (injected or real corruption). Each failed attempt counts
    /// once, so at quiescence under an injection plan this equals the
    /// plan's `injected_corruptions()`.
    pub integrity_failures: u64,
    /// Jobs that exhausted their retry budget with every attempt
    /// failing verification (⊆ `failed`); their bytes were discarded.
    pub quarantined: u64,
    /// Batch windows an idle worker stole from a peer device's shard.
    pub steals: u64,
    /// Jobs that moved in those stolen windows (⊆ `completed + failed`).
    pub stolen_jobs: u64,
    /// Payload bytes that moved in stolen windows.
    pub stolen_bytes: u64,
    /// Admissions that borrowed data permits against future refill.
    pub borrows: u64,
    /// Total permit bytes borrowed across those admissions.
    pub borrowed_bytes: u64,
    /// Per-tenant breakdown of `integrity_failures`.
    pub tenant_integrity_failures: BTreeMap<String, u64>,
    /// Per-tenant completion counts — the fairness suite asserts
    /// weighted shares on this map.
    pub tenant_completed: BTreeMap<String, u64>,
    /// Completions served by a simulated GPU device.
    pub gpu_jobs: u64,
    /// Completions served by the host CPU path.
    pub cpu_jobs: u64,
    /// CPU completions that were device-failure fallbacks (⊆ `cpu_jobs`).
    pub cpu_fallback_completions: u64,
    /// Coalesced batch windows executed.
    pub batches: u64,
    /// Payload bytes of completed jobs.
    pub bytes_in: u64,
    /// Output bytes of completed jobs.
    pub bytes_out: u64,
    /// Sanitized (racecheck) kernel launches — the startup probe runs the
    /// configured kernel on an armed simulator
    /// ([`culzss_gpusim::GpuSim::with_sanitizer`]).
    pub sancheck_launches: u64,
    /// Shared-memory conflicts those launches reported (0 = race-free).
    pub sancheck_conflicts: u64,
    /// Blocks with barrier divergence in those launches.
    pub sancheck_divergent_blocks: u64,
    /// Σ over batches of the back-to-back stage totals.
    pub batch_sequential_seconds: f64,
    /// Σ over batches of the overlapped makespans.
    pub batch_pipelined_seconds: f64,
    /// Σ wall-clock seconds resolved jobs spent queued (admission →
    /// batch dequeue).
    pub queue_wait_seconds: f64,
    /// Σ wall-clock seconds jobs spent executing inside a worker.
    pub service_seconds: f64,
    /// Σ wall-clock seconds spent verifying outputs before delivery.
    pub verify_seconds: f64,
    /// Σ modelled host→device transfer seconds (GPU jobs only).
    pub modeled_h2d_seconds: f64,
    /// Σ modelled kernel seconds (GPU jobs only).
    pub modeled_kernel_seconds: f64,
    /// Σ modelled device→host transfer seconds (GPU jobs only).
    pub modeled_d2h_seconds: f64,
    /// Σ host-side selection/encode seconds within GPU jobs.
    pub modeled_cpu_seconds: f64,
    /// Dedup cache: segment lookups that hit (0 with the cache off).
    pub cache_hits: u64,
    /// Dedup cache: segment lookups that missed (0 with the cache off).
    pub cache_misses: u64,
    /// Dedup cache: uncompressed payload bytes whose compression was
    /// skipped because the segment was served from cache.
    pub cache_bytes_saved: u64,
    /// Dedup cache: entries evicted under byte-budget pressure.
    pub cache_evictions: u64,
    /// Σ over devices of breaker open transitions.
    pub breaker_opens: u64,
    /// Σ over devices of breaker half-open transitions.
    pub breaker_half_opens: u64,
    /// Σ over devices of breaker close transitions.
    pub breaker_closes: u64,
    /// Lifetime tenant-quota admissions (folded from the queue ledger).
    pub quota_admitted: u64,
    /// Lifetime tenant-quota releases; equals `quota_admitted` at a
    /// drained quiescent point (the conservation invariant).
    pub quota_released: u64,
    /// Quota units currently admitted but unresolved (0 at quiescence).
    pub quota_outstanding: u64,
    /// Per-device breaker state and failure-domain counters.
    pub device_health: Vec<DeviceHealthSnapshot>,
    /// Globally ordered breaker transition log — readable after
    /// shutdown (which consumes the service), so chaos runs can assert
    /// deterministic replay from the final snapshot alone.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Spans the bounded trace buffer discarded
    /// (`SPAN_CAP`, 65 536 spans); nonzero means the exported trace
    /// is truncated.
    pub trace_dropped: u64,
    /// Job latency (admission → resolution), seconds.
    pub latency: HistogramSnapshot,
    /// Queue depth observed after each admission.
    pub queue_depth: HistogramSnapshot,
}

impl ServiceStats {
    /// Total submissions refused by admission control.
    pub fn rejected(&self) -> u64 {
        self.rejected_overloaded
            + self.rejected_tenant_cap
            + self.rejected_degraded
            + self.rejected_shutdown
    }

    /// Whether the counters account for every job. Guaranteed to hold at
    /// quiescence (after a drained shutdown); transiently false while
    /// jobs are in flight.
    pub fn reconciles(&self) -> bool {
        self.received == self.accepted + self.rejected()
            && self.accepted == self.completed + self.failed
            && self.quota_admitted == self.quota_released
            && self.quota_outstanding == 0
    }

    /// Whether the startup racecheck probe ran and found the configured
    /// kernel race- and divergence-free. False when the probe was skipped
    /// (it never is in a started service) or reported findings.
    pub fn race_free(&self) -> bool {
        self.sancheck_launches > 0
            && self.sancheck_conflicts == 0
            && self.sancheck_divergent_blocks == 0
    }

    /// Fraction of dedup-cache segment lookups that hit (0 when the
    /// cache is disabled or saw no traffic).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Speedup of the overlapped batch schedules over back-to-back
    /// execution of the same windows: the summed sequential makespans
    /// over the summed pipelined ones (1.0 before any batch ran).
    pub fn batching_speedup(&self) -> f64 {
        overlap_speedup(self.batch_sequential_seconds, self.batch_pipelined_seconds)
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "received {:>6}   accepted {:>6}   rejected {:>6} (overloaded {}, tenant-cap {}, degraded {}, shutdown {})",
            self.received,
            self.accepted,
            self.rejected(),
            self.rejected_overloaded,
            self.rejected_tenant_cap,
            self.rejected_degraded,
            self.rejected_shutdown,
        )?;
        writeln!(
            f,
            "completed {:>5}   failed {:>8}   deadline-missed {}   retried {}   device-failures {}",
            self.completed, self.failed, self.deadline_missed, self.retried, self.device_failures,
        )?;
        writeln!(
            f,
            "health: timeouts {}   breaker denials {}   backoff requeues {}   transitions open {} / half-open {} / close {}",
            self.device_timeouts,
            self.breaker_denials,
            self.backoff_requeues,
            self.breaker_opens,
            self.breaker_half_opens,
            self.breaker_closes,
        )?;
        for d in &self.device_health {
            writeln!(
                f,
                "  gpu{}: {}   ok {} / fail {} (timeouts {})   denied {}   opened {}x",
                d.device, d.state, d.successes, d.failures, d.timeouts, d.denials, d.opens,
            )?;
        }
        writeln!(
            f,
            "engines: gpu {} / cpu {} (fallback {})   batches {}   coalescing speedup x{:.2}",
            self.gpu_jobs,
            self.cpu_jobs,
            self.cpu_fallback_completions,
            self.batches,
            self.batching_speedup(),
        )?;
        writeln!(f, "bytes: in {}  out {}", self.bytes_in, self.bytes_out)?;
        writeln!(
            f,
            "qos: {} steal(s) ({} job(s), {} byte(s))   {} borrow(s) ({} byte(s))   quota {}/{} released ({} outstanding)",
            self.steals,
            self.stolen_jobs,
            self.stolen_bytes,
            self.borrows,
            self.borrowed_bytes,
            self.quota_released,
            self.quota_admitted,
            self.quota_outstanding,
        )?;
        writeln!(
            f,
            "integrity: {} failed verification, {} job(s) quarantined",
            self.integrity_failures, self.quarantined,
        )?;
        writeln!(
            f,
            "cache: {} hit(s) / {} miss(es)   {} byte(s) saved   {} eviction(s)",
            self.cache_hits, self.cache_misses, self.cache_bytes_saved, self.cache_evictions,
        )?;
        writeln!(
            f,
            "sanitizer: {} probe launch(es), {} conflict(s), {} divergent block(s) — {}",
            self.sancheck_launches,
            self.sancheck_conflicts,
            self.sancheck_divergent_blocks,
            if self.race_free() { "race-free" } else { "NOT verified race-free" },
        )?;
        writeln!(
            f,
            "stages: queue {:.3}s  service {:.3}s  verify {:.3}s   modelled h2d {:.2e}s kernel {:.2e}s d2h {:.2e}s cpu {:.2e}s",
            self.queue_wait_seconds,
            self.service_seconds,
            self.verify_seconds,
            self.modeled_h2d_seconds,
            self.modeled_kernel_seconds,
            self.modeled_d2h_seconds,
            self.modeled_cpu_seconds,
        )?;
        if self.trace_dropped > 0 {
            writeln!(
                f,
                "trace: {} span(s) dropped past the {}-span buffer; the export is truncated",
                self.trace_dropped,
                crate::tracing::SPAN_CAP,
            )?;
        }
        write!(
            f,
            "latency p50 <= {:.2e} s, p99 <= {:.2e} s   queue depth p50 <= {:.0}, p99 <= {:.0}",
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.queue_depth.quantile(0.50),
            self.queue_depth.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::latency();
        for v in [5e-6, 5e-4, 5e-4, 0.5, 2000.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.counts[0], 1); // ≤ 10 µs
        assert_eq!(snap.counts[2], 2); // ≤ 1 ms
        assert_eq!(*snap.counts.last().unwrap(), 1); // overflow
                                                     // rank 2.5 lands 0.75 into the (1e-4, 1e-3] bucket.
        assert!((snap.quantile(0.5) - 7.75e-4).abs() < 1e-12);
        // The overflow bucket is capped by the max observed sample.
        assert_eq!(snap.max_sample, 2000.0);
        assert_eq!(snap.quantile(1.0), 2000.0);
        let empty = HistogramSnapshot { bounds: vec![1.0], counts: vec![0, 0], max_sample: 0.0 };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_zero_is_the_lower_edge() {
        let h = Histogram::latency();
        h.record(5e-4); // (1e-4, 1e-3] bucket
        h.record(0.5); // (1e-1, 1.0] bucket
        let snap = h.snapshot();
        // q=0 interpolates to the lower edge of the first non-empty bucket.
        assert_eq!(snap.quantile(0.0), 1e-4);
        // q=1 interpolates to the upper edge of the last non-empty bucket.
        assert_eq!(snap.quantile(1.0), 1.0);
    }

    #[test]
    fn quantile_all_overflow_is_finite() {
        let h = Histogram::latency();
        for v in [150.0, 300.0, 450.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        // Lower edge = last bound (100), upper edge = max sample (450).
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!(v.is_finite(), "q={q} gave {v}");
            assert!((100.0..=450.0).contains(&v), "q={q} gave {v}");
        }
        assert_eq!(snap.quantile(1.0), 450.0);
    }

    #[test]
    fn quantiles_are_monotonic_in_q() {
        let h = Histogram::depth();
        for v in [1.0, 3.0, 3.0, 20.0, 700.0, 5000.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = snap.quantile(i as f64 / 20.0);
            assert!(v >= prev, "quantile regressed at q={}", i as f64 / 20.0);
            assert!(v.is_finite());
            prev = v;
        }
    }

    #[test]
    fn snapshot_reconciles_at_quiescence() {
        let c = StatsCollector::new();
        for _ in 0..5 {
            c.on_received();
        }
        for depth in [1, 2, 1] {
            c.on_accepted(depth);
        }
        c.on_rejected(&SubmitError::Overloaded { depth: 4, limit: 4 });
        c.on_rejected(&SubmitError::ShuttingDown);
        c.on_completed("a", EngineKind::Gpu { device: 0 }, 0, 100, 50, 1e-3);
        c.on_completed("a", EngineKind::Cpu, 1, 100, 60, 2e-3);
        c.on_failed(&JobError::DeadlineMissed { missed_by: std::time::Duration::ZERO });
        let snap = c.snapshot();
        assert!(snap.reconciles(), "{snap:?}");
        assert_eq!(snap.rejected(), 2);
        assert_eq!(snap.cpu_fallback_completions, 1);
        assert_eq!(snap.deadline_missed, 1);
        assert_eq!(snap.tenant_completed.get("a"), Some(&2));
    }
}
