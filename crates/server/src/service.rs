//! The service object: configuration, lifecycle, and the submission
//! front door.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use culzss::{Culzss, CulzssParams};
use culzss_dedup::{ChunkCache, DedupCompressor};
use culzss_gpusim::DeviceSpec;

use crate::batch::BatchReport;
use crate::fault::FaultPlan;
use crate::health::{BreakerTransition, DeviceHealthSnapshot, HealthConfig, HealthRegistry};
use crate::job::{Job, JobId, JobSpec, JobTicket, SubmitError};
use crate::queue::{AdmissionQueue, QosConfig};
use crate::stats::{ServiceStats, StatsCollector};
use crate::tracing::{SpanRecord, TraceRecorder};
use crate::worker::{self, WorkerEngine};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated GPU devices; one worker thread drives each.
    pub devices: Vec<DeviceSpec>,
    /// Host threads each device simulation uses to execute blocks.
    pub gpu_sim_threads: usize,
    /// Dedicated CPU workers (the hetero path). With zero, GPU workers
    /// degrade to running fallback-lane jobs on the host themselves.
    pub cpu_workers: usize,
    /// Host threads each CPU worker (or inline fallback) uses.
    pub cpu_threads: usize,
    /// Compression parameters. V1 keeps the CPU fallback byte-identical
    /// to the device path; V2 falls back to a valid (wire-compatible)
    /// stream with V2 window/match settings.
    pub params: CulzssParams,
    /// Global queue bound; submissions beyond it are refused with
    /// [`SubmitError::Overloaded`].
    pub queue_depth: usize,
    /// Per-tenant token-bucket refill rate in payload bytes per second
    /// ([`SubmitError::TenantOverLimit`] once exhausted). `None` (the
    /// default) disables tenant rate limiting.
    pub tenant_rate_bytes: Option<u64>,
    /// Token-bucket burst capacity in payload bytes: how much a tenant
    /// can submit instantaneously from a full bucket. A tenant may
    /// additionally *borrow* up to one more burst against future refill,
    /// so short spikes ride through while sustained overrun is refused.
    pub tenant_burst_bytes: usize,
    /// Deficit round-robin quantum in payload bytes: service granted per
    /// tenant per rotation turn within a priority band. Smaller values
    /// interleave tenants more finely; larger values favor batch
    /// locality.
    pub fair_quantum_bytes: usize,
    /// Max jobs coalesced into one batch window.
    pub batch_jobs: usize,
    /// Max payload bytes coalesced into one batch window.
    pub batch_bytes: usize,
    /// Device-failure retries per job before it fails.
    pub max_retries: u32,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault injection — device failures and payload
    /// corruption (degradation testing).
    pub fault: FaultPlan,
    /// Verify every compressed output by decompressing it on the host
    /// and comparing with the input before resolving the ticket. A
    /// failed check consumes the retry budget; exhausting it resolves
    /// the job as [`crate::JobError::Quarantined`] rather than ever
    /// returning corrupted bytes. On by default.
    pub verify_outputs: bool,
    /// Byte budget for the content-addressed chunk cache fronting the
    /// compression path ([`culzss_dedup`]). `Some(bytes)` makes every
    /// worker chunk compress payloads content-defined, serve repeated
    /// segments from cache, and recompress only what changed — the
    /// output stays byte-identical to a cache-off run. `None` (the
    /// default) disables the dedup front end.
    pub cache: Option<usize>,
    /// Failure-domain tunables: per-device circuit breakers, retry
    /// backoff, the execution watchdog, and the brownout threshold.
    pub health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            devices: vec![DeviceSpec::gtx480()],
            gpu_sim_threads: 2,
            cpu_workers: 1,
            cpu_threads: 2,
            params: CulzssParams::v1(),
            queue_depth: 128,
            tenant_rate_bytes: None,
            tenant_burst_bytes: 8 << 20,
            fair_quantum_bytes: 64 << 10,
            batch_jobs: 8,
            batch_bytes: 8 << 20,
            max_retries: 1,
            default_deadline: None,
            fault: FaultPlan::none(),
            verify_outputs: true,
            cache: None,
            health: HealthConfig::default(),
        }
    }
}

/// State shared between the front door and the worker threads.
pub(crate) struct Shared {
    pub queue: AdmissionQueue,
    pub stats: StatsCollector,
    pub trace: TraceRecorder,
    pub fault: FaultPlan,
    pub health: Arc<HealthRegistry>,
    pub params: CulzssParams,
    pub cpu_threads: usize,
    pub max_retries: u32,
    pub verify_outputs: bool,
    pub batch_jobs: usize,
    pub batch_bytes: usize,
    /// The dedup front end all compress workers share, when enabled.
    pub dedup: Option<DedupCompressor>,
    batch_seq: AtomicU64,
    job_seq: AtomicU64,
    default_deadline: Option<Duration>,
    /// Queue depth at or above which an all-breakers-open service sheds
    /// new submissions ([`SubmitError::Degraded`]).
    brownout_depth: usize,
}

impl Shared {
    pub fn next_batch_id(&self) -> u64 {
        self.batch_seq.fetch_add(1, Relaxed)
    }

    /// Records a breaker transition in the trace's health lane (the
    /// registry already logged it for replay assertions).
    pub fn note_breaker(&self, transition: Option<BreakerTransition>) {
        if let Some(t) = transition {
            self.trace.breaker_transition(&t);
        }
    }

    /// The counter snapshot, with the chunk cache's own counters, the
    /// per-device health registry and the trace recorder's drop count
    /// folded in (each tracks its state internally; the collector's
    /// atomics cover everything else).
    pub fn stats_snapshot(&self) -> ServiceStats {
        let mut snap = self.stats.snapshot();
        if let Some(dedup) = &self.dedup {
            let cache = dedup.cache().stats();
            snap.cache_hits = cache.hits;
            snap.cache_misses = cache.misses;
            snap.cache_bytes_saved = cache.bytes_saved;
            snap.cache_evictions = cache.evictions;
        }
        snap.device_health = self.health.snapshots();
        snap.breaker_transitions = self.health.transitions();
        for h in &snap.device_health {
            snap.breaker_opens += h.opens;
            snap.breaker_half_opens += h.half_opens;
            snap.breaker_closes += h.closes;
        }
        let (admitted, released, outstanding) = self.queue.quota_ledger();
        snap.quota_admitted = admitted;
        snap.quota_released = released;
        snap.quota_outstanding = outstanding as u64;
        snap.trace_dropped = self.trace.dropped();
        snap
    }
}

/// A running multi-tenant compression service: a worker pool over
/// simulated GPU devices plus CPU fallback workers, fed by a bounded
/// priority queue.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool described by `config`.
    pub fn start(config: ServerConfig) -> Self {
        let has_cpu_workers = config.cpu_workers > 0;
        let brownout_depth = ((config.queue_depth.max(1) as f64
            * config.health.brownout_fraction.clamp(0.0, 1.0))
        .ceil() as usize)
            .max(1);
        let health = Arc::new(HealthRegistry::new(config.health.clone(), config.devices.len()));
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(
                config.queue_depth,
                QosConfig {
                    rate_bytes_per_sec: config.tenant_rate_bytes.map(|r| r as f64),
                    burst_bytes: config.tenant_burst_bytes.max(1) as f64,
                    borrow_bytes: config.tenant_burst_bytes.max(1) as f64,
                    quantum_bytes: (config.fair_quantum_bytes.max(1)) as u64,
                },
                config.devices.len(),
                has_cpu_workers,
                Arc::clone(&health),
            ),
            stats: StatsCollector::new(),
            trace: TraceRecorder::new(),
            health,
            fault: config.fault,
            params: config.params.clone(),
            cpu_threads: config.cpu_threads.max(1),
            max_retries: config.max_retries,
            verify_outputs: config.verify_outputs,
            batch_jobs: config.batch_jobs.max(1),
            batch_bytes: config.batch_bytes.max(1),
            dedup: config.cache.map(|bytes| {
                DedupCompressor::new(Arc::new(ChunkCache::new(bytes)), config.params.clone())
            }),
            batch_seq: AtomicU64::new(0),
            job_seq: AtomicU64::new(0),
            default_deadline: config.default_deadline,
            brownout_depth,
        });

        // Startup racecheck probe: run the configured kernel over a small
        // deterministic corpus sample on each device under the sanitizer
        // ([`culzss_gpusim::GpuSim::with_sanitizer`]), so [`ServiceStats`]
        // can assert the service executes race- and divergence-free
        // before any tenant traffic is admitted.
        let probe =
            culzss_datasets::Dataset::CFiles.generate(4 * config.params.chunk_size.max(1), 11);
        for spec in &config.devices {
            let sim = culzss_gpusim::GpuSim::new(spec.clone())
                .with_workers(config.gpu_sim_threads.max(1));
            if let Ok(check) = culzss::sancheck::check(&sim, &probe, &config.params) {
                shared.stats.on_sancheck(&check.report);
            }
        }

        let mut workers = Vec::new();
        for (device, spec) in config.devices.iter().enumerate() {
            let mut culzss = Culzss::with_device(spec.clone(), config.params.clone())
                .with_workers(config.gpu_sim_threads.max(1));
            // Chaos schedule: install this device's fault model so its
            // kernel launches fail/slow/hang per the seeded plan.
            if let Some(model) = shared.fault.device_model(device) {
                culzss = culzss.with_fault_model(model);
            }
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("culzss-gpu{device}"))
                .spawn(move || {
                    worker::run(&shared, WorkerEngine::Gpu { culzss: Box::new(culzss), device })
                })
                .expect("spawn GPU worker");
            workers.push(handle);
        }
        for index in 0..config.cpu_workers {
            let threads = config.cpu_threads.max(1);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("culzss-cpu{index}"))
                .spawn(move || worker::run(&shared, WorkerEngine::Cpu { threads }))
                .expect("spawn CPU worker");
            workers.push(handle);
        }

        Service { shared, workers }
    }

    /// Submits a job through admission control; returns a ticket to
    /// await the result, or a typed refusal — never blocks.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        self.shared.stats.on_received();
        // Brownout load-shedding: with every device breaker open, the
        // CPU lane is the only engine left. Once the queue backs up past
        // the brownout threshold, admitting more work only grows a
        // backlog it cannot drain in time — shed with a typed refusal
        // instead.
        if self.shared.health.all_open() && self.shared.queue.depth() >= self.shared.brownout_depth
        {
            let e = SubmitError::Degraded {
                open_devices: self.shared.health.device_count(),
                depth: self.shared.queue.depth(),
            };
            self.shared.stats.on_rejected(&e);
            return Err(e);
        }
        let id = JobId(self.shared.job_seq.fetch_add(1, Relaxed));
        let accepted_at = Instant::now();
        let deadline = spec.deadline.or(self.shared.default_deadline).map(|d| accepted_at + d);
        let (tx, rx) = mpsc::channel();
        let tenant = spec.tenant.clone();
        let job = Job {
            id,
            tenant: spec.tenant,
            kind: spec.kind,
            payload: spec.payload,
            priority: spec.priority,
            accepted_at,
            deadline,
            attempts: 0,
            force_cpu: false,
            not_before: None,
            avoid_devices: 0,
            responder: tx,
        };
        match self.shared.queue.submit(job) {
            Ok(admitted) => {
                self.shared.stats.on_accepted(admitted.depth);
                if admitted.borrowed > 0 {
                    self.shared.stats.on_borrowed(admitted.borrowed);
                    self.shared.trace.qos_event(
                        &format!("borrow:{tenant}"),
                        admitted.shard,
                        &[
                            ("tenant", tenant.clone()),
                            ("borrowed_bytes", admitted.borrowed.to_string()),
                        ],
                    );
                }
                Ok(JobTicket { id, rx })
            }
            Err(e) => {
                self.shared.stats.on_rejected(&e);
                Err(e)
            }
        }
    }

    /// The compression parameters the service runs with.
    pub fn params(&self) -> &CulzssParams {
        &self.shared.params
    }

    /// Jobs currently queued (not yet handed to a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// `tenant`'s admitted-but-unresolved job count.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.shared.queue.tenant_in_flight(tenant)
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats_snapshot()
    }

    /// Current per-device health (breaker state and counters).
    pub fn device_health(&self) -> Vec<DeviceHealthSnapshot> {
        self.shared.health.snapshots()
    }

    /// Every breaker state change so far, globally ordered. Two runs of
    /// the same seeded chaos schedule produce the same sequence — the
    /// deterministic-replay contract the chaos suite asserts.
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        self.shared.health.transitions()
    }

    /// The most recent coalesced batch windows (bounded ring).
    pub fn recent_batches(&self) -> Vec<BatchReport> {
        self.shared.stats.recent_batches()
    }

    /// Every span recorded since the service started (µs timestamps
    /// relative to the service epoch).
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.shared.trace.spans()
    }

    /// The recorded spans — request lifecycle plus modelled GPU block
    /// spans — as one Chrome tracing JSON document (load in Perfetto or
    /// `chrome://tracing`).
    pub fn trace_chrome_json(&self) -> String {
        self.shared.trace.chrome_json()
    }

    /// Graceful shutdown: stops admitting, drains every queued and
    /// in-flight job (their tickets resolve normally), joins the
    /// workers, and returns the final — reconciling — stats snapshot.
    pub fn shutdown(self) -> ServiceStats {
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop drains and joins.
        shared.stats_snapshot()
    }

    /// [`Self::shutdown`], additionally returning the complete Chrome
    /// trace. Exporting after the drain guarantees every span — including
    /// the batch windows closing out during shutdown — is present.
    pub fn shutdown_with_trace(self) -> (ServiceStats, String) {
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop drains and joins.
        (shared.stats_snapshot(), shared.trace.chrome_json())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.queue.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{validate_chrome_trace, SpanRecord, SERVICE_PID, SPAN_CAP};

    #[test]
    fn trace_drops_reach_the_final_snapshot() {
        let service = Service::start(ServerConfig { cpu_workers: 0, ..ServerConfig::default() });
        let idle = service.stats();
        assert_eq!(idle.trace_dropped, 0);
        assert!(!idle.to_string().contains("dropped"));

        let own = service.trace_spans().len();
        for i in 0..=SPAN_CAP - own {
            service.shared.trace.record(SpanRecord {
                name: "fill".into(),
                cat: "host".into(),
                pid: SERVICE_PID,
                tid: i as u64 % 64,
                start_us: i as f64,
                dur_us: 1.0,
                args: Vec::new(),
            });
        }
        let (stats, json) = service.shutdown_with_trace();
        assert_eq!(stats.trace_dropped, 1);
        assert!(stats.to_string().contains("trace: 1 span(s) dropped"), "{stats}");
        validate_chrome_trace(&json).unwrap();
    }
}
