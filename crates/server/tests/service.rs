//! Integration tests for the multi-tenant service — the acceptance
//! criteria of the server subsystem:
//!
//! 1. ≥64 concurrent mixed jobs from ≥4 tenants round-trip correctly,
//! 2. overload yields typed `Overloaded` refusals, never a stall,
//! 3. injected device failures retry onto the CPU fallback and still
//!    round-trip,
//! 4. `shutdown()` drains in-flight jobs and the final stats reconcile.

use std::time::Duration;

use culzss::hetero;
use culzss_datasets::Dataset;
use culzss_server::{
    EngineKind, FaultPlan, JobError, JobSpec, Priority, ServerConfig, Service, SubmitError,
};
use parking_lot::Mutex;

fn quick_config() -> ServerConfig {
    ServerConfig {
        gpu_sim_threads: 2,
        cpu_workers: 1,
        cpu_threads: 2,
        queue_depth: 256,
        ..ServerConfig::default()
    }
}

#[test]
fn concurrent_mixed_tenants_round_trip() {
    const TENANTS: usize = 4;
    const JOBS_PER_TENANT: usize = 16;
    let service = Service::start(quick_config());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());

    crossbeam::thread::scope(|scope| {
        for tenant_index in 0..TENANTS {
            let service = &service;
            let failures = &failures;
            scope.spawn(move |_| {
                let tenant = format!("tenant-{tenant_index}");
                let mut pending = Vec::new();
                for job_index in 0..JOBS_PER_TENANT {
                    let seed = (tenant_index * 100 + job_index) as u64;
                    let dataset = Dataset::ALL[(tenant_index + job_index) % Dataset::ALL.len()];
                    let plain = dataset.generate(24 * 1024, seed);
                    // Every third job decompresses a pre-compressed stream.
                    let (spec, expected) = if job_index % 3 == 2 {
                        let stream = hetero::cpu_compress(&plain, service.params(), 1).unwrap();
                        (JobSpec::decompress(tenant.clone(), stream), plain)
                    } else {
                        (JobSpec::compress(tenant.clone(), plain.clone()), plain)
                    };
                    let spec = spec.with_priority(match job_index % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Low,
                    });
                    let ticket = service.submit(spec).expect("no overload at this depth");
                    pending.push((ticket, expected));
                }
                for (ticket, expected) in pending {
                    match ticket.wait() {
                        Ok(outcome) => {
                            let plain = match outcome.kind {
                                culzss_server::JobKind::Compress => {
                                    hetero::cpu_decompress(&outcome.output, 1).unwrap()
                                }
                                culzss_server::JobKind::Decompress => outcome.output.clone(),
                            };
                            if plain != expected {
                                failures.lock().push(format!("{} mismatch", outcome.id));
                            }
                        }
                        Err(e) => failures.lock().push(format!("job failed: {e}")),
                    }
                }
            });
        }
    })
    .unwrap();

    let failures = failures.into_inner();
    assert!(failures.is_empty(), "{failures:?}");
    let stats = service.shutdown();
    assert_eq!(stats.received, (TENANTS * JOBS_PER_TENANT) as u64);
    assert_eq!(stats.completed, (TENANTS * JOBS_PER_TENANT) as u64);
    assert_eq!(stats.failed, 0);
    assert!(stats.reconciles(), "{stats:?}");
    // Both engine classes served traffic and batches were coalesced.
    assert!(stats.batches > 0);
    assert!(stats.batches <= stats.completed);
}

#[test]
fn overload_yields_typed_rejections_without_admitting_past_the_bound() {
    // A service with no workers holds every admitted job in the queue,
    // making the admission bound exactly observable.
    let config = ServerConfig {
        devices: Vec::new(),
        cpu_workers: 0,
        queue_depth: 8,
        ..ServerConfig::default()
    };
    let service = Service::start(config);

    let mut tickets = Vec::new();
    for i in 0..8 {
        let spec = JobSpec::compress(format!("t{}", i % 4), vec![i as u8; 1024]);
        tickets.push(service.submit(spec).expect("under the bound"));
    }
    assert_eq!(service.queue_depth(), 8);

    // The ninth submission is refused with the typed overload error.
    match service.submit(JobSpec::compress("t9", vec![0u8; 1024])) {
        Err(SubmitError::Overloaded { depth: 8, limit: 8 }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.rejected_overloaded, 1);
    assert_eq!(stats.accepted, 8);
}

#[test]
fn tenant_rate_limit_yields_typed_rejection_and_borrows() {
    // A near-zero refill rate with a 1 KiB burst: the burst covers two
    // 512 B jobs, borrowing against future refill covers two more, and
    // the fifth submission is refused with the typed rate-limit error.
    let config = ServerConfig {
        devices: Vec::new(),
        cpu_workers: 0,
        queue_depth: 64,
        tenant_rate_bytes: Some(1),
        tenant_burst_bytes: 1024,
        ..ServerConfig::default()
    };
    let service = Service::start(config);
    for i in 0..4u8 {
        service.submit(JobSpec::compress("greedy", vec![i; 512])).unwrap();
    }
    match service.submit(JobSpec::compress("greedy", vec![9u8; 512])) {
        Err(SubmitError::TenantOverLimit { requested: 512, available, ref tenant }) => {
            assert_eq!(tenant, "greedy");
            assert!(available < 512, "no permits should remain, got {available}");
        }
        other => panic!("expected TenantOverLimit, got {other:?}"),
    }
    // Other tenants draw from their own bucket.
    assert!(service.submit(JobSpec::compress("modest", vec![4u8; 512])).is_ok());
    // The third and fourth greedy jobs ran on borrowed permits.
    assert!(service.stats().borrows >= 2, "{:?}", service.stats());
}

#[test]
fn overloaded_service_keeps_serving_and_reconciles() {
    // A single slow worker behind a shallow queue: a burst of rapid
    // submissions must produce typed refusals (not a stall), and every
    // admitted job must still resolve.
    let config = ServerConfig {
        devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
        gpu_sim_threads: 1,
        cpu_workers: 0,
        queue_depth: 4,
        batch_jobs: 2,
        ..ServerConfig::default()
    };
    let service = Service::start(config);
    let payload = Dataset::CFiles.generate(128 * 1024, 7);

    let mut tickets = Vec::new();
    let mut overloaded = 0u64;
    for i in 0..64 {
        match service.submit(JobSpec::compress(format!("t{}", i % 4), payload.clone())) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded { .. }) => overloaded += 1,
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(overloaded > 0, "64 rapid submissions never overloaded a depth-4 queue");

    for ticket in tickets {
        ticket.wait().expect("admitted job must resolve");
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected_overloaded, overloaded);
    assert_eq!(stats.failed, 0);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn injected_device_failure_retries_onto_cpu_and_round_trips() {
    // No dedicated CPU workers: the GPU worker itself degrades to the
    // host path for fallback-lane jobs, so the first three GPU attempts
    // deterministically become CPU fallbacks.
    let config = ServerConfig {
        devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
        cpu_workers: 0,
        fault: FaultPlan::fail_first(3),
        max_retries: 1,
        ..ServerConfig::default()
    };
    let service = Service::start(config);

    let inputs: Vec<Vec<u8>> =
        (0..6).map(|i| Dataset::ALL[i % 5].generate(16 * 1024, i as u64)).collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| service.submit(JobSpec::compress("t", input.clone())).unwrap())
        .collect();

    let mut fallbacks = 0;
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let outcome = ticket.wait().expect("fallback must succeed");
        assert_eq!(&hetero::cpu_decompress(&outcome.output, 1).unwrap(), input);
        if outcome.engine == EngineKind::Cpu {
            assert_eq!(outcome.retries, 1);
            fallbacks += 1;
        }
    }
    assert_eq!(fallbacks, 3);

    let stats = service.shutdown();
    assert_eq!(stats.device_failures, 3);
    assert_eq!(stats.retried, 3);
    assert_eq!(stats.cpu_fallback_completions, 3);
    assert_eq!(stats.completed, 6);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn exhausted_retry_budget_fails_with_device_error() {
    let config = ServerConfig {
        devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
        cpu_workers: 0,
        fault: FaultPlan::fail_first(1),
        max_retries: 0,
        ..ServerConfig::default()
    };
    let service = Service::start(config);
    let ticket = service.submit(JobSpec::compress("t", vec![5u8; 8192])).unwrap();
    match ticket.wait() {
        Err(JobError::DeviceFailed { attempts: 1, .. }) => {}
        other => panic!("expected DeviceFailed, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retried, 0);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn corrupted_outputs_are_quarantined_never_returned() {
    // Every compressed output is damaged, in all three corruption
    // shapes. Verification must detect 100% of the injections, the
    // retry budget must be consumed, and every ticket must resolve as
    // Quarantined — no caller ever sees bytes that fail to round-trip.
    let plans = [
        FaultPlan::none().corrupt_bit_flip(1, 1_000),
        FaultPlan::none().corrupt_truncate_tail(1, 5),
        FaultPlan::none().corrupt_tamper_table(1),
    ];
    for fault in plans {
        let config = ServerConfig {
            devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
            cpu_workers: 0,
            fault,
            max_retries: 1,
            ..quick_config()
        };
        let service = Service::start(config);
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                let input = Dataset::ALL[i % Dataset::ALL.len()].generate(16 * 1024, i as u64);
                service.submit(JobSpec::compress(format!("t{}", i % 2), input)).unwrap()
            })
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                Err(JobError::Quarantined { attempts: 2, .. }) => {}
                other => panic!("expected Quarantined after 2 attempts, got {other:?}"),
            }
        }
        let stats = service.shutdown();
        // 4 jobs × 2 attempts, every output corrupted and every
        // corruption detected.
        assert_eq!(stats.integrity_failures, 8, "{stats:?}");
        assert_eq!(stats.quarantined, 4);
        assert_eq!(stats.failed, 4);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.retried, 4);
        assert_eq!(stats.tenant_integrity_failures.get("t0"), Some(&4));
        assert_eq!(stats.tenant_integrity_failures.get("t1"), Some(&4));
        assert!(stats.reconciles(), "{stats:?}");
        assert!(stats.to_string().contains("quarantined"), "{stats}");
    }
}

#[test]
fn intermittent_corruption_retries_and_still_serves_good_bytes() {
    // Every second output is corrupted: the retry of each detected
    // corruption lands on a clean cadence slot, so the service keeps
    // serving correct bytes and nothing is quarantined.
    let config = ServerConfig {
        devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
        cpu_workers: 0,
        fault: FaultPlan::none().corrupt_truncate_tail(2, 7),
        max_retries: 1,
        ..quick_config()
    };
    let service = Service::start(config);
    // Submit one at a time so the attempt order (and thus the cadence)
    // is deterministic.
    let mut corrupted_first_attempts = 0;
    for i in 0..6u64 {
        let input = Dataset::ALL[(i as usize) % Dataset::ALL.len()].generate(12 * 1024, i);
        let outcome = service
            .submit(JobSpec::compress("t", input.clone()))
            .unwrap()
            .wait()
            .expect("retry must recover from intermittent corruption");
        assert_eq!(hetero::cpu_decompress(&outcome.output, 1).unwrap(), input);
        if outcome.retries == 1 {
            corrupted_first_attempts += 1;
        }
    }
    // Attempt sequence: job 0 is clean (slot 1); every later job is
    // corrupted once (even slot) and retried onto a clean odd slot.
    assert_eq!(corrupted_first_attempts, 5);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.integrity_failures, 5);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.retried, 5);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn corrupt_decompress_input_fails_typed_without_verification() {
    // A tenant submitting a damaged container gets a typed Codec error
    // straight from the decoder's checksum verification — the gate is
    // for outputs; inputs are covered by the container itself.
    let service = Service::start(quick_config());
    let plain = Dataset::CFiles.generate(24 * 1024, 3);
    let mut stream = hetero::cpu_compress(&plain, service.params(), 1).unwrap();
    let at = stream.len() - 9;
    stream[at] ^= 0x08;
    match service.submit(JobSpec::decompress("t", stream)).unwrap().wait() {
        Err(JobError::Codec { .. }) => {}
        other => panic!("expected Codec error, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn expired_deadline_is_a_typed_failure() {
    let service = Service::start(quick_config());
    let spec = JobSpec::compress("t", vec![1u8; 8192]).with_deadline(Duration::ZERO);
    let ticket = service.submit(spec).unwrap();
    match ticket.wait() {
        Err(JobError::DeadlineMissed { .. }) => {}
        other => panic!("expected DeadlineMissed, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let service = Service::start(quick_config());
    let input = Dataset::Dictionary.generate(32 * 1024, 9);
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            service
                .submit(JobSpec::compress(format!("t{}", i % 4), input.clone()))
                .expect("under the bound")
        })
        .collect();

    // Shut down immediately: queued jobs must drain, not drop.
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 16);
    assert_eq!(stats.completed + stats.failed, 16);
    assert!(stats.reconciles(), "{stats:?}");
    for ticket in tickets {
        let outcome = ticket.wait().expect("drained job resolves normally");
        assert_eq!(hetero::cpu_decompress(&outcome.output, 1).unwrap(), input);
    }
}

#[test]
fn load_generator_drives_mixed_traffic_cleanly() {
    let service = Service::start(quick_config());
    let cfg = culzss_server::LoadGenConfig {
        tenants: 4,
        jobs_per_tenant: 8,
        payload_bytes: 16 * 1024,
        decompress_every: 3,
        window: 4,
        seed: 42,
        deadline: None,
        profile: culzss_server::LoadProfile::Uniform,
    };
    let report = culzss_server::loadgen::run(&service, &cfg);
    assert_eq!(report.submitted, 32);
    assert_eq!(report.completed, 32);
    assert_eq!(report.failed, 0);
    assert_eq!(report.mismatched, 0);
    assert_eq!(report.abandoned, 0);

    let stats = service.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.completed, 32);
    assert!(stats.gpu_jobs + stats.cpu_jobs == 32);
}

#[test]
fn startup_probe_asserts_race_free_execution() {
    // V1 (the default) and V2 both run their startup racecheck probe;
    // the stats must report race- and divergence-free execution with at
    // least one sanitized launch per configured device.
    for params in [culzss::CulzssParams::v1(), culzss::CulzssParams::v2()] {
        let service = Service::start(ServerConfig { params, ..quick_config() });
        let ticket = service
            .submit(JobSpec::compress("probe-tenant", Dataset::DeMap.generate(8 * 1024, 3)))
            .expect("admitted");
        ticket.wait().expect("job completes");
        let stats = service.shutdown();
        assert!(stats.sancheck_launches >= 1, "{stats:?}");
        assert_eq!(stats.sancheck_conflicts, 0, "{stats:?}");
        assert_eq!(stats.sancheck_divergent_blocks, 0, "{stats:?}");
        assert!(stats.race_free(), "{stats:?}");
        assert!(stats.to_string().contains("race-free"), "{stats}");
    }
}

#[test]
fn chunk_cache_serves_repeats_byte_identically_and_counts_them() {
    let input = Dataset::CFiles.generate(192 * 1024, 77);

    // Cache-off reference stream (GPU V1 and the CPU path are
    // byte-identical, so worker placement does not matter).
    let reference = {
        let service = Service::start(quick_config());
        let ticket = service.submit(JobSpec::compress("ref", input.clone())).unwrap();
        let output = ticket.wait().unwrap().output;
        service.shutdown();
        output
    };

    let service = Service::start(ServerConfig { cache: Some(64 << 20), ..quick_config() });
    let first_ticket = service.submit(JobSpec::compress("t", input.clone())).unwrap();
    let first = first_ticket.wait().unwrap().output;
    let second_ticket = service.submit(JobSpec::compress("t", input.clone())).unwrap();
    let second = second_ticket.wait().unwrap().output;
    assert_eq!(first, reference, "cache-on cold stream differs from cache-off");
    assert_eq!(second, reference, "cache-on warm stream differs from cache-off");

    let spans = service.trace_spans();
    assert!(spans.iter().any(|s| s.name == "cache"), "dedup'd jobs must record a cache span");

    let stats = service.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert!(stats.cache_misses > 0, "cold pass must miss: {stats:?}");
    assert!(stats.cache_hits > 0, "warm pass must hit: {stats:?}");
    assert!(
        stats.cache_bytes_saved >= input.len() as u64,
        "the warm payload should be served from cache: {stats:?}"
    );
    assert!(stats.cache_hit_rate() > 0.0);
    assert!(stats.to_string().contains("cache:"), "{stats}");
}

#[test]
fn v3_engine_knob_flows_through_the_job_path() {
    // The engine knob: a service configured with V3 params runs the
    // fused kernel on its device workers and the streams stay
    // byte-identical to the V2 service's (and to a direct V3 compress).
    let input = Dataset::CFiles.generate(64 * 1024, 31);
    let v3_config = ServerConfig {
        params: culzss::CulzssParams::v3(),
        cpu_workers: 0, // force the device path
        ..quick_config()
    };
    let service = Service::start(v3_config);
    let ticket = service.submit(JobSpec::compress("t", input.clone())).unwrap();
    let outcome = ticket.wait().unwrap();
    assert!(
        matches!(outcome.engine, EngineKind::Gpu { .. }),
        "V3 job must run on the device, not {:?}",
        outcome.engine
    );
    let stats = service.shutdown();
    assert!(stats.reconciles(), "{stats:?}");

    let direct = culzss::Culzss::with_device(
        culzss_gpusim::DeviceSpec::gtx480(),
        culzss::CulzssParams::v3(),
    );
    assert_eq!(outcome.output, direct.compress(&input).unwrap().0);
    assert_eq!(direct.decompress_auto(&outcome.output).unwrap().0, input);

    // The decode half of the job path accepts the V3 stream too.
    let decode_service =
        Service::start(ServerConfig { params: culzss::CulzssParams::v3(), ..quick_config() });
    let ticket = decode_service.submit(JobSpec::decompress("t", outcome.output)).unwrap();
    assert_eq!(ticket.wait().unwrap().output, input);
    assert!(decode_service.shutdown().reconciles());
}

#[test]
fn cpu_lane_refuses_a_zero_chunk_size_with_one_typed_error() {
    // Whichever lane picks the job up refuses the parameters — typed,
    // not by panicking the worker — so the ticket resolves exactly once.
    // A configuration error is not a device failure: it neither feeds
    // the breaker nor burns a retry.
    let mut config = quick_config();
    config.params.chunk_size = 0;
    let service = Service::start(config);
    let ticket = service.submit(JobSpec::compress("t", vec![7u8; 8192])).unwrap();
    match ticket.wait() {
        Err(JobError::Codec { error }) => assert!(error.contains("chunk_size"), "{error}"),
        other => panic!("expected a typed chunk_size refusal, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.failed), (1, 0, 1), "{stats:?}");
    assert_eq!((stats.device_failures, stats.retried), (0, 0), "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
}
