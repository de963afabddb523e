//! The server layers of the traced file runs: the run's files sent
//! through a `culzss_server::Service` with the `serve` defaults, driven
//! by one thread in a closed loop.
//!
//! Every stream a decompression job carries, and every stream a
//! compression job must return, is made before the loop starts; the
//! loop only clones a payload into its job and compares what comes back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use culzss::{Culzss, Version};
use culzss_server::{
    EngineKind, JobKind, JobOutcome, JobSpec, JobTicket, Priority, ServerConfig, Service,
    ServiceStats, SpanRecord,
};

use crate::report::{median, quantile, Metrics, Outcome};

/// Jobs the client keeps in flight: callers of `Service` wait on a
/// ticket, so the loop is closed.
const IN_FLIGHT: usize = 2;
/// Poll interval of the client while every ticket is still in flight:
/// the resolution of the client latency, far below a job's time.
const POLL: Duration = Duration::from_micros(50);
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

fn config() -> ServerConfig {
    // `serve` defaults, except one simulator thread and one CPU-path
    // thread, so the GPU worker, the CPU worker and the client stay
    // within two runnable threads.
    ServerConfig { gpu_sim_threads: 1, cpu_threads: 1, ..ServerConfig::default() }
}

/// One payload with the stream the service's engine makes of it.
struct Item {
    plain: Vec<u8>,
    stream: Vec<u8>,
}

/// Compresses each payload with the service's engine (V1) and decodes
/// it back.
fn prepare(plains: Vec<Vec<u8>>, out: &mut Outcome) -> Vec<Item> {
    let lib = Culzss::new(Version::V1);
    let mut items = Vec::with_capacity(plains.len());
    for plain in plains {
        let (stream, _) = lib.compress(&plain).expect("V1 compresses every generated payload");
        let (back, _) = lib.decompress_auto(&stream).expect("V1 decodes its own stream");
        out.check(back == plain, || "V1 round trip of a prepared payload differs".into());
        items.push(Item { plain, stream });
    }
    items
}

/// One resolved, verified job as the client saw it (its output is
/// dropped once checked).
struct Done {
    id: u64,
    kind: JobKind,
    engine: EngineKind,
    queued_seconds: f64,
    service_seconds: f64,
    latency: f64,
}

/// Everything one run of the closed loop observed.
struct Run {
    done: Vec<Done>,
    submit_seconds: Vec<f64>,
    before: ServiceStats,
    after: ServiceStats,
    spans: Vec<SpanRecord>,
}

fn job(items: &[Item], n: usize) -> (JobSpec, usize) {
    let item = &items[n % items.len()];
    let tenant = TENANTS[n % TENANTS.len()];
    let spec = if n % 3 == 2 {
        JobSpec::decompress(tenant, item.stream.clone())
    } else {
        JobSpec::compress(tenant, item.plain.clone())
    };
    (spec.with_priority(Priority::Normal), n % items.len())
}

/// Checks a resolved job's output against its prepared item. V1 output
/// is deterministic and the same on the GPU and the CPU lane, and the
/// prepared stream was decoded back to the payload before the loop, so
/// a compression job must return exactly that stream.
fn verify(items: &[Item], index: usize, outcome: &JobOutcome) -> bool {
    let item = &items[index];
    match outcome.kind {
        JobKind::Decompress => outcome.output == item.plain,
        JobKind::Compress => outcome.output == item.stream,
    }
}

/// Runs the closed loop for `jobs` jobs.
fn drive(items: &[Item], jobs: usize, out: &mut Outcome) -> Run {
    let service = Service::start(config());
    // Warm-up, untimed: both job kinds for both tenants.
    for n in 0..12 {
        let (spec, index) = job(items, n);
        out.attempted += 1;
        match service.submit(spec).map(JobTicket::wait) {
            Ok(Ok(outcome)) if verify(items, index, &outcome) => {}
            Ok(Ok(_)) => out.fail("warm-up job: output does not match".into()),
            Ok(Err(e)) => out.fail(format!("warm-up job failed: {e}")),
            Err(e) => out.fail(format!("warm-up job refused: {e}")),
        }
    }

    let before = service.stats();
    let mut done = Vec::with_capacity(jobs);
    let mut submit_seconds = Vec::with_capacity(jobs);
    let mut in_flight: Vec<(JobTicket, Instant, usize)> = Vec::with_capacity(IN_FLIGHT);
    let mut n = 0usize;
    loop {
        while n < jobs && in_flight.len() < IN_FLIGHT {
            let (spec, index) = job(items, n);
            n += 1;
            out.attempted += 1;
            let submitted = Instant::now();
            let ticket = service.submit(spec);
            submit_seconds.push(submitted.elapsed().as_secs_f64());
            match ticket {
                Ok(ticket) => in_flight.push((ticket, submitted, index)),
                Err(e) => {
                    out.fail(format!("job refused: {e}"));
                    break;
                }
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let Some((slot, result)) =
            in_flight.iter().enumerate().find_map(|(slot, (t, ..))| Some((slot, t.try_wait()?)))
        else {
            std::thread::sleep(POLL);
            continue;
        };
        let (_, submitted, index) = in_flight.swap_remove(slot);
        let latency = submitted.elapsed().as_secs_f64();
        match result {
            Ok(outcome) if verify(items, index, &outcome) => {
                done.push(Done {
                    id: outcome.id.0,
                    kind: outcome.kind,
                    engine: outcome.engine,
                    queued_seconds: outcome.queued_seconds,
                    service_seconds: outcome.service_seconds,
                    latency,
                });
            }
            Ok(outcome) => out.fail(format!("job {:?}: output does not match", outcome.id)),
            Err(e) => out.fail(format!("job failed: {e}")),
        }
    }
    let after = service.stats();
    let spans = service.trace_spans();
    service.shutdown();
    Run { done, submit_seconds, before, after, spans }
}

/// Server layers of `plains` sent through a fresh service, each as a
/// compression and as a decompression job (three passes of the loop).
pub fn server_layers(plains: Vec<Vec<u8>>, out: &mut Outcome) -> (Metrics, Vec<SpanRecord>) {
    let items = prepare(plains, out);
    let r = drive(&items, 3 * items.len(), out);
    (server_metrics(&r), r.spans)
}

/// Per-layer metrics from submit timing, the job outcomes, the
/// service's own verify spans and its stats.
fn server_metrics(r: &Run) -> Metrics {
    let verify: BTreeMap<u64, f64> =
        r.spans.iter().filter(|s| s.name == "verify").map(|s| (s.tid, s.dur_us / 1e6)).collect();
    let ms = |xs: &[f64], q: f64| if xs.is_empty() { 0.0 } else { quantile(xs, q) * 1e3 };
    let queue: Vec<f64> = r.done.iter().map(|d| d.queued_seconds).collect();
    let execute = |gpu: bool| -> Vec<f64> {
        r.done
            .iter()
            .filter(|d| matches!(d.engine, EngineKind::Gpu { .. }) == gpu)
            .map(|d| d.service_seconds)
            .collect()
    };
    let verify_s: Vec<f64> = r.done.iter().filter_map(|d| verify.get(&d.id).copied()).collect();
    // Client latency minus queue, execute and verify; a compression job
    // whose verify span the service's span buffer dropped is left out.
    let delivery: Vec<f64> = r
        .done
        .iter()
        .filter_map(|d| {
            let verify = match d.kind {
                JobKind::Compress => *verify.get(&d.id)?,
                JobKind::Decompress => 0.0,
            };
            Some(d.latency - d.queued_seconds - d.service_seconds - verify)
        })
        .collect();
    let completed = (r.after.completed - r.before.completed) as f64;
    let batches = (r.after.batches - r.before.batches) as f64;
    let cpu_jobs = (r.after.cpu_jobs - r.before.cpu_jobs) as f64;
    let gpu_jobs = (r.after.gpu_jobs - r.before.gpu_jobs) as f64;
    let retried = (r.after.retried - r.before.retried) as f64;

    let mut m = Metrics::default();
    m.put("server.admission.submit_us_p50", median(&r.submit_seconds) * 1e6, "us");
    m.put("server.queue.wait_ms_p50", ms(&queue, 0.5), "ms");
    m.put("server.queue.wait_ms_p99", ms(&queue, 0.99), "ms");
    m.put("server.execute.gpu_ms_p50", ms(&execute(true), 0.5), "ms");
    m.put("server.execute.cpu_ms_p50", ms(&execute(false), 0.5), "ms");
    m.put("server.verify.ms_p50", ms(&verify_s, 0.5), "ms");
    m.put("server.delivery.ms_p50", ms(&delivery, 0.5), "ms");
    m.put("server.delivery.ms_p99", ms(&delivery, 0.99), "ms");
    m.put("server.batch.jobs_per_batch", completed / batches.max(1.0), "count");
    m.put("server.cpu_lane_frac", cpu_jobs / (cpu_jobs + gpu_jobs).max(1.0), "fraction");
    m.put("server.retry_frac", retried / completed.max(1.0), "fraction");
    m
}
