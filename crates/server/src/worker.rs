//! Worker loops: pull batch windows from the admission queue, execute
//! them on a simulated device or the host CPU, route device failures
//! through per-device circuit breakers, health-aware retries with
//! exponential backoff, and the CPU-fallback lane, and resolve tickets.
//!
//! The failure-domain rules (see `DESIGN.md` §16):
//!
//! * Every GPU execution first asks the device's circuit breaker for
//!   admission. An open breaker denies the job, which is rerouted —
//!   *without* consuming retry budget — to another healthy device, or
//!   to the CPU lane when none remains.
//! * A device failure consumes one retry, marks the device as avoided
//!   for that job, applies jittered exponential backoff, and prefers a
//!   different healthy GPU over the CPU lane (failover before
//!   degradation).
//! * A failure whose attempt ran at least the watchdog deadline is
//!   classified as a hang; exhausted budgets then resolve as
//!   [`JobError::DeviceTimeout`] instead of [`JobError::DeviceFailed`].
//! * Verify-on-deliver failures stay pinned to the trusted CPU lane
//!   (`force_cpu`), as before — bad bytes are a reason to leave the
//!   device class entirely, not to shop for another GPU.

use std::time::{Duration, Instant};

use culzss::hetero;
use culzss::{Culzss, CulzssError};
use culzss_dedup::DedupReport;
use culzss_gpusim::exec::LaunchError;
use culzss_gpusim::fault::FaultKind;
use culzss_gpusim::streams::{BatchTimeline, StageTimes};
use culzss_gpusim::trace::Timeline;

use crate::batch::BatchReport;
use crate::health::{retry_backoff, Admission};
use crate::job::{EngineKind, Job, JobError, JobOutcome};
use crate::queue::{Batch, WorkerClass};
use crate::service::Shared;
use crate::tracing::{BATCH_PID, SERVICE_PID};

/// The engine a worker thread drives.
pub(crate) enum WorkerEngine {
    Gpu { culzss: Box<Culzss>, device: usize },
    Cpu { threads: usize },
}

impl WorkerEngine {
    fn class(&self) -> WorkerClass {
        match self {
            WorkerEngine::Gpu { device, .. } => WorkerClass::Gpu { device: *device },
            WorkerEngine::Cpu { .. } => WorkerClass::Cpu,
        }
    }

    fn kind(&self) -> EngineKind {
        match self {
            WorkerEngine::Gpu { device, .. } => EngineKind::Gpu { device: *device },
            WorkerEngine::Cpu { .. } => EngineKind::Cpu,
        }
    }
}

/// Worker thread body: serve batch windows until shutdown drains.
pub(crate) fn run(shared: &Shared, engine: WorkerEngine) {
    let class = engine.class();
    while let Some(batch) = shared.queue.next_batch(class, shared.batch_jobs, shared.batch_bytes) {
        execute_batch(shared, &engine, batch);
        shared.queue.finish_batch();
    }
}

fn execute_batch(shared: &Shared, engine: &WorkerEngine, batch: Batch) {
    let Batch { jobs, expired, stolen_from, dequeued_at } = batch;
    // Deadline misses detected at batch-build time resolve typed,
    // without execution — a job that expired while its window was being
    // coalesced must not run late.
    for job in expired {
        let now = Instant::now();
        let missed_by = job.deadline.map_or(Duration::ZERO, |d| now.saturating_duration_since(d));
        shared.trace.host_span(
            "queue_wait",
            SERVICE_PID,
            job.id.0,
            job.accepted_at,
            dequeued_at,
            vec![("tenant".into(), job.tenant.clone())],
        );
        resolve_err(shared, job, JobError::DeadlineMissed { missed_by });
    }
    if jobs.is_empty() {
        return;
    }
    let batch_id = shared.next_batch_id();
    let kind = jobs[0].kind;
    let job_count = jobs.len();
    let bytes_in: u64 = jobs.iter().map(|j| j.payload.len() as u64).sum();
    if let Some(victim) = stolen_from {
        shared.stats.on_steal(job_count as u64, bytes_in);
        let thief = match engine {
            WorkerEngine::Gpu { device, .. } => format!("gpu{device}"),
            WorkerEngine::Cpu { .. } => "cpu".into(),
        };
        shared.trace.qos_event(
            &format!("steal:gpu{victim}->{thief}"),
            victim,
            &[("jobs", job_count.to_string()), ("bytes", bytes_in.to_string())],
        );
    }
    let mut timeline = BatchTimeline::new();

    for job in jobs {
        if let Some(requeued) = run_job(shared, engine, job, batch_id, dequeued_at, &mut timeline) {
            shared.queue.requeue(requeued);
        }
    }

    shared.trace.host_span(
        "batch",
        BATCH_PID,
        batch_id,
        dequeued_at,
        Instant::now(),
        vec![
            ("kind".into(), format!("{kind:?}")),
            ("engine".into(), format!("{:?}", engine.kind())),
            ("jobs".into(), job_count.to_string()),
            ("bytes_in".into(), bytes_in.to_string()),
        ],
    );
    shared.stats.on_batch(BatchReport {
        batch_id,
        kind,
        engine: engine.kind(),
        jobs: job_count,
        bytes_in,
        sequential_seconds: timeline.sequential_seconds(),
        pipelined_seconds: timeline.pipelined_seconds(),
    });
}

/// Executes (or fails) one job; `Some(job)` means "requeue onto the
/// retry lane" (the job's routing fields say where it may run next).
fn run_job(
    shared: &Shared,
    engine: &WorkerEngine,
    mut job: Job,
    batch_id: u64,
    dequeued_at: Instant,
    timeline: &mut BatchTimeline,
) -> Option<Job> {
    // Queue wait ends when the batch left the queue — NOT at each job's
    // own service start, which would fold earlier batch-mates' service
    // time into later jobs' reported wait.
    let queued_seconds = dequeued_at.duration_since(job.accepted_at).as_secs_f64();
    shared.trace.host_span(
        "queue_wait",
        SERVICE_PID,
        job.id.0,
        job.accepted_at,
        dequeued_at,
        vec![("tenant".into(), job.tenant.clone())],
    );
    let now = Instant::now();
    if let Some(deadline) = job.deadline {
        if now >= deadline {
            let missed_by = now.duration_since(deadline);
            resolve_err(shared, job, JobError::DeadlineMissed { missed_by });
            return None;
        }
    }

    let cpu_threads = match engine {
        WorkerEngine::Cpu { threads } => Some(*threads),
        // A GPU worker degrades to the host path for fallback-lane jobs
        // it picked up (pool without dedicated CPU workers).
        WorkerEngine::Gpu { .. } if job.force_cpu => Some(shared.cpu_threads),
        WorkerEngine::Gpu { .. } => None,
    };

    match cpu_threads {
        Some(threads) => {
            let started = Instant::now();
            let result = match job.kind {
                crate::job::JobKind::Compress => match &shared.dedup {
                    Some(dedup) => {
                        dedup.compress_cpu(&job.payload, threads).map(|(out, report)| {
                            cache_span(shared, job.id.0, started, &report);
                            out
                        })
                    }
                    None => hetero::cpu_compress(&job.payload, &shared.params, threads),
                },
                crate::job::JobKind::Decompress => hetero::cpu_decompress(&job.payload, threads),
            };
            let service_seconds = started.elapsed().as_secs_f64();
            shared.trace.host_span(
                "execute",
                SERVICE_PID,
                job.id.0,
                started,
                Instant::now(),
                vec![("engine".into(), "cpu".into())],
            );
            match result {
                Ok(output) => {
                    timeline.push(StageTimes { cpu: service_seconds, ..Default::default() });
                    deliver(
                        shared,
                        job,
                        output,
                        EngineKind::Cpu,
                        batch_id,
                        queued_seconds,
                        service_seconds,
                    )
                }
                Err(e) => {
                    resolve_err(shared, job, JobError::Codec { error: e.to_string() });
                    None
                }
            }
        }
        None => {
            let WorkerEngine::Gpu { culzss, device } = engine else {
                unreachable!("cpu_threads is None only for GPU engines");
            };
            // Circuit-breaker gate. A denial reroutes the job without
            // consuming its retry budget: the breaker is protecting the
            // job *from* a sick device, not blaming it.
            let (admission, transition) = shared.health.try_acquire(*device, Instant::now());
            shared.note_breaker(transition);
            let probe = match admission {
                Admission::Execute { probe } => probe,
                Admission::Deny => {
                    shared.stats.on_breaker_denied();
                    job.mark_avoid(*device);
                    if !shared.health.healthy_device_besides(job.avoid_devices) {
                        job.force_cpu = true;
                    }
                    return Some(job);
                }
            };
            let started = Instant::now();
            let result = if shared.fault.should_fail() {
                // The injector fails the attempt before any launch, so
                // the attempt number stands in for the launch index.
                Err(CulzssError::Launch(LaunchError::DeviceFault {
                    kind: FaultKind::Transient,
                    launch_index: u64::from(job.attempts),
                }))
            } else {
                match job.kind {
                    crate::job::JobKind::Compress => match &shared.dedup {
                        // The dedup front end launches the kernel once
                        // per miss segment (not at all on a full hit),
                        // so there is no single launch breakdown to
                        // trace; the cache span carries the story.
                        Some(dedup) => {
                            dedup.compress_gpu(culzss, &job.payload).map(|(out, report)| {
                                cache_span(shared, job.id.0, started, &report);
                                (out, None)
                            })
                        }
                        None => {
                            culzss.compress(&job.payload).map(|(out, stats)| (out, Some(stats)))
                        }
                    },
                    crate::job::JobKind::Decompress => {
                        culzss.decompress_auto(&job.payload).map(|(out, stats)| (out, Some(stats)))
                    }
                }
            };
            let elapsed = started.elapsed();
            let service_seconds = elapsed.as_secs_f64();
            shared.trace.host_span(
                "execute",
                SERVICE_PID,
                job.id.0,
                started,
                Instant::now(),
                vec![("engine".into(), format!("gpu{device}"))],
            );
            match result {
                Ok((output, stats)) => {
                    shared.note_breaker(shared.health.on_success(*device, probe));
                    // Nest the cost model's stage breakdown under the
                    // execute span, and anchor the launch's per-SM block
                    // spans at the kernel stage's start, linking this
                    // job's host timeline to its device timeline.
                    if let Some(stats) = &stats {
                        let kernel_name = match job.kind {
                            crate::job::JobKind::Compress => "compress",
                            crate::job::JobKind::Decompress => "decompress",
                        };
                        let mut at_us = shared.trace.instant_us(started);
                        for (stage, seconds) in [
                            ("h2d", stats.h2d_seconds),
                            ("kernel", stats.kernel_seconds),
                            ("d2h", stats.d2h_seconds),
                            ("cpu", stats.cpu_seconds),
                        ] {
                            shared.trace.modelled_span(stage, job.id.0, at_us, seconds);
                            if stage == "kernel" {
                                if let Some(launch) = &stats.launch {
                                    let block_timeline = Timeline::from_launch(
                                        culzss.device(),
                                        launch.block_dim,
                                        launch.shared_bytes,
                                        &launch.per_block,
                                    );
                                    shared.trace.block_spans(
                                        *device,
                                        &block_timeline,
                                        kernel_name,
                                        at_us,
                                    );
                                }
                            }
                            at_us += seconds * 1e6;
                        }
                        shared.stats.on_modeled_stages(
                            stats.h2d_seconds,
                            stats.kernel_seconds,
                            stats.d2h_seconds,
                            stats.cpu_seconds,
                        );
                        timeline.push(stats);
                    } else {
                        // Dedup-path job: the work was host-side cache
                        // serving plus per-segment launches, already in
                        // the wall clock; account it as one CPU stage.
                        timeline.push(StageTimes { cpu: service_seconds, ..Default::default() });
                    }
                    deliver(
                        shared,
                        job,
                        output,
                        EngineKind::Gpu { device: *device },
                        batch_id,
                        queued_seconds,
                        service_seconds,
                    )
                }
                // Codec errors (corrupt container, …) are the payload's
                // fault and parameter errors the configuration's;
                // retrying on another engine cannot help either. The
                // device itself is fine, so the breaker hears a success
                // (and a probe slot, if held, is released).
                Err(e @ (CulzssError::Codec(_) | CulzssError::InvalidParams(_))) => {
                    shared.note_breaker(shared.health.on_success(*device, probe));
                    let error = match e {
                        // `JobError::Codec` already prints "codec error".
                        CulzssError::Codec(inner) => inner.to_string(),
                        other => other.to_string(),
                    };
                    resolve_err(shared, job, JobError::Codec { error });
                    None
                }
                Err(e) => {
                    // Watchdog: an attempt that ran at least the
                    // deadline before failing was a hang the driver had
                    // to kill, not a fast launch error.
                    let watchdog = shared.health.config().watchdog;
                    let timed_out = watchdog.is_some_and(|w| elapsed >= w);
                    shared.stats.on_device_failure();
                    if timed_out {
                        shared.stats.on_device_timeout();
                    }
                    shared.note_breaker(shared.health.on_failure(
                        *device,
                        probe,
                        timed_out,
                        Instant::now(),
                    ));
                    if job.attempts < shared.max_retries {
                        job.attempts += 1;
                        job.mark_avoid(*device);
                        // Failover routing: prefer a different healthy
                        // GPU; degrade to the CPU lane only when none
                        // remains.
                        if !shared.health.healthy_device_besides(job.avoid_devices) {
                            job.force_cpu = true;
                        }
                        apply_backoff(shared, &mut job);
                        shared.stats.on_retried();
                        Some(job)
                    } else {
                        let attempts = job.attempts + 1;
                        let error = match (timed_out, watchdog) {
                            (true, Some(watchdog)) => {
                                JobError::DeviceTimeout { attempts, elapsed, watchdog }
                            }
                            _ => JobError::DeviceFailed { attempts, error: e.to_string() },
                        };
                        resolve_err(shared, job, error);
                        None
                    }
                }
            }
        }
    }
}

/// Sets the retry's jittered exponential backoff. The wake-up is capped
/// at the job's deadline: a retry that cannot run before its deadline
/// ripens exactly then and resolves as [`JobError::DeadlineMissed`] at
/// dequeue instead of executing arbitrarily late.
fn apply_backoff(shared: &Shared, job: &mut Job) {
    let delay = retry_backoff(shared.health.config(), job.id.0, job.attempts);
    let mut at = Instant::now() + delay;
    if let Some(deadline) = job.deadline {
        at = at.min(deadline);
    }
    job.not_before = Some(at);
    shared.stats.on_backoff();
}

/// Post-compress integrity gate, then resolution. Compressed outputs
/// pass through the fault plan's corruption hook and (when enabled) a
/// decompress-and-compare proof before the ticket resolves, so
/// corrupted bytes are discarded — never returned. A failed proof
/// consumes the retry budget like a device failure and pins the retry
/// to the trusted CPU lane (`Some(job)` means "requeue"); exhausting
/// the budget quarantines the job.
/// Decompressed outputs are already proven by the container's checksums
/// during decode and skip the gate.
fn deliver(
    shared: &Shared,
    mut job: Job,
    mut output: Vec<u8>,
    engine: EngineKind,
    batch_id: u64,
    queued_seconds: f64,
    service_seconds: f64,
) -> Option<Job> {
    let mut verify_seconds = 0.0;
    if job.kind == crate::job::JobKind::Compress {
        shared.fault.corrupt_payload(&mut output);
        if shared.verify_outputs {
            let started = Instant::now();
            let checked = roundtrip_check(shared, &job.payload, &output);
            verify_seconds = started.elapsed().as_secs_f64();
            shared.trace.host_span(
                "verify",
                SERVICE_PID,
                job.id.0,
                started,
                Instant::now(),
                vec![("ok".into(), checked.is_ok().to_string())],
            );
            if let Err(detail) = checked {
                shared.stats.on_integrity_failure(&job.tenant);
                if job.attempts < shared.max_retries {
                    job.attempts += 1;
                    job.force_cpu = true;
                    apply_backoff(shared, &mut job);
                    shared.stats.on_retried();
                    return Some(job);
                }
                let attempts = job.attempts + 1;
                resolve_err(shared, job, JobError::Quarantined { attempts, detail });
                return None;
            }
        }
    }
    resolve_ok(
        shared,
        job,
        output,
        engine,
        batch_id,
        queued_seconds,
        service_seconds,
        verify_seconds,
    );
    None
}

/// Records the dedup front end's per-job outcome as a `cache` span in
/// the job's service lane, next to its queue_wait/execute/verify spans.
fn cache_span(shared: &Shared, job_id: u64, started: Instant, report: &DedupReport) {
    shared.trace.host_span(
        "cache",
        SERVICE_PID,
        job_id,
        started,
        Instant::now(),
        vec![
            ("segments".into(), report.segments.to_string()),
            ("hits".into(), report.hit_segments.to_string()),
            ("misses".into(), report.miss_segments.to_string()),
            ("bytes_from_cache".into(), report.bytes_from_cache.to_string()),
        ],
    );
}

/// Proves `output` decodes back to `input` on the host.
fn roundtrip_check(shared: &Shared, input: &[u8], output: &[u8]) -> Result<(), String> {
    match hetero::cpu_decompress(output, shared.cpu_threads) {
        Ok(back) if back == input => Ok(()),
        Ok(back) => Err(format!(
            "round-trip mismatch: decoded {} byte(s), expected {}",
            back.len(),
            input.len()
        )),
        Err(e) => Err(e.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_ok(
    shared: &Shared,
    job: Job,
    output: Vec<u8>,
    engine: EngineKind,
    batch_id: u64,
    queued_seconds: f64,
    service_seconds: f64,
    verify_seconds: f64,
) {
    let latency = job.accepted_at.elapsed().as_secs_f64();
    shared.trace.host_span(
        "request",
        SERVICE_PID,
        job.id.0,
        job.accepted_at,
        Instant::now(),
        vec![
            ("tenant".into(), job.tenant.clone()),
            ("kind".into(), format!("{:?}", job.kind)),
            ("engine".into(), format!("{engine:?}")),
            ("batch".into(), batch_id.to_string()),
            ("retries".into(), job.attempts.to_string()),
        ],
    );
    shared.stats.on_stage_seconds(queued_seconds, service_seconds, verify_seconds);
    shared.stats.on_completed(
        &job.tenant,
        engine,
        job.attempts,
        job.payload.len() as u64,
        output.len() as u64,
        latency,
    );
    shared.queue.release_tenant(&job.tenant);
    let outcome = JobOutcome {
        id: job.id,
        tenant: job.tenant,
        kind: job.kind,
        output,
        engine,
        retries: job.attempts,
        batch_id,
        queued_seconds,
        service_seconds,
    };
    let _ = job.responder.send(Ok(outcome));
}

fn resolve_err(shared: &Shared, job: Job, error: JobError) {
    shared.trace.host_span(
        "request",
        SERVICE_PID,
        job.id.0,
        job.accepted_at,
        Instant::now(),
        vec![("tenant".into(), job.tenant.clone()), ("error".into(), error.to_string())],
    );
    shared.stats.on_failed(&error);
    shared.queue.release_tenant(&job.tenant);
    let _ = job.responder.send(Err(error));
}
