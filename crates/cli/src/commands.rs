//! Command implementations.

use std::time::Instant;

use culzss::{Culzss, DecodeEngine, Version};
use culzss_gpusim::report::format_launch;
use culzss_lzss::LzssConfig;

use crate::args::{Codec, Command};

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Compress { input, output, codec, report } => {
            compress(&input, &output, codec, report)
        }
        Command::Decompress { input, output, codec, engine, salvage } => {
            decompress(&input, &output, codec, engine, salvage)
        }
        Command::Verify { path } => verify(&path),
        Command::Info { path } => info(&path),
        Command::Gen { dataset, bytes, output, seed } => gen(&dataset, bytes, &output, seed),
        Command::Serve {
            devices,
            cpu_workers,
            tenants,
            jobs,
            payload,
            queue_depth,
            batch_jobs,
            tenant_rate,
            tenant_burst,
            fail_first,
            corrupt_every,
            seed,
            trace_out,
            cache_mb,
            chaos_seed,
            device_fail,
        } => serve(
            devices,
            cpu_workers,
            tenants,
            jobs,
            payload,
            queue_depth,
            batch_jobs,
            tenant_rate,
            tenant_burst,
            fail_first,
            corrupt_every,
            seed,
            trace_out,
            cache_mb,
            chaos_seed,
            device_fail,
        ),
        Command::Profile { input, codec, decompress, engine, out } => {
            profile(&input, codec, decompress, engine, out)
        }
        Command::Dedup { input, cache_mb } => dedup(&input, cache_mb),
        Command::BenchServe { jobs, payload, seed } => bench_serve(jobs, payload, seed),
        Command::Sancheck { dataset, bytes, seed } => sancheck(&dataset, bytes, seed),
        Command::Selftest => selftest(),
    }
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

fn compress(input: &str, output: &str, codec: Codec, report: bool) -> Result<(), String> {
    let data = read(input)?;
    let started = Instant::now();
    let bytes = match codec {
        Codec::V1 | Codec::V2 | Codec::V3 => {
            let version = match codec {
                Codec::V1 => Version::V1,
                Codec::V3 => Version::V3,
                _ => Version::V2,
            };
            let culzss = Culzss::new(version);
            let (bytes, stats) = culzss.compress(&data).map_err(|e| e.to_string())?;
            println!(
                "{}: modelled GPU pipeline {:.3} ms (kernel {:.3} ms)",
                version.name(),
                stats.modeled_total_seconds() * 1e3,
                stats.kernel_seconds * 1e3
            );
            if report {
                if let Some(launch) = &stats.launch {
                    println!("{}", format_launch("culzss", culzss.device(), launch));
                }
            }
            bytes
        }
        Codec::Lzss => culzss_lzss::serial::compress(&data, &LzssConfig::dipperstein())
            .map_err(|e| e.to_string())?,
        Codec::Pthread => culzss_pthread::compress(
            &data,
            &LzssConfig::dipperstein(),
            culzss_pthread::default_threads(),
        )
        .map_err(|e| e.to_string())?,
        Codec::Bzip2 => culzss_bzip2::compress(&data).map_err(|e| e.to_string())?,
        Codec::Auto => unreachable!("rejected at parse time"),
    };
    write(output, &bytes)?;
    println!(
        "{} -> {} bytes ({:.1}%) in {:.1} ms host wall",
        data.len(),
        bytes.len(),
        100.0 * bytes.len() as f64 / data.len().max(1) as f64,
        started.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn decompress(
    input: &str,
    output: &str,
    codec: Codec,
    engine: DecodeEngine,
    salvage: bool,
) -> Result<(), String> {
    let data = read(input)?;
    if salvage {
        return salvage_decompress(&data, input, output);
    }
    let codec = if codec == Codec::Auto { detect(&data)? } else { codec };
    let bytes = match codec {
        Codec::V1 | Codec::V2 | Codec::V3 => {
            let culzss = Culzss::new(Version::V1).with_decode_engine(engine);
            culzss.decompress_auto(&data).map_err(|e| e.to_string())?.0
        }
        Codec::Lzss => culzss_lzss::serial::decompress(&data, &LzssConfig::dipperstein())
            .map_err(|e| e.to_string())?,
        Codec::Pthread => culzss_pthread::decompress(
            &data,
            &LzssConfig::dipperstein(),
            culzss_pthread::default_threads(),
        )
        .map_err(|e| e.to_string())?,
        Codec::Bzip2 => culzss_bzip2::decompress(&data).map_err(|e| e.to_string())?,
        Codec::Auto => unreachable!("resolved above"),
    };
    write(output, &bytes)?;
    println!("{} -> {} bytes", data.len(), bytes.len());
    Ok(())
}

/// Best-effort decode of a damaged CULZSS container: intact chunks are
/// recovered, damaged ones become zero-filled holes, and the damage
/// report is printed. Fails only when the container metadata itself is
/// unusable.
fn salvage_decompress(data: &[u8], input: &str, output: &str) -> Result<(), String> {
    let (bytes, report) = culzss::salvage::salvage(data).map_err(|e| format!("{input}: {e}"))?;
    println!(
        "salvage: {}/{} chunk(s) intact — {} B recovered, {} B zero-filled",
        report.total_chunks - report.damaged.len(),
        report.total_chunks,
        report.recovered_bytes,
        report.hole_bytes,
    );
    for d in &report.damaged {
        let why = match &d.kind {
            culzss::DamageKind::Truncated => "body truncated".to_string(),
            culzss::DamageKind::CrcMismatch { expected_crc, got_crc } => {
                format!("crc mismatch (stored {expected_crc:08x}, computed {got_crc:08x})")
            }
            culzss::DamageKind::DecodeFailed { error } => format!("decode failed: {error}"),
        };
        println!(
            "  chunk {:>4}: bytes {}..{} zero-filled — {why}",
            d.index, d.byte_range.start, d.byte_range.end
        );
    }
    match report.stream_crc_ok {
        Some(true) => println!("stream crc: ok"),
        Some(false) => println!("stream crc: MISMATCH (recovered bytes may still be damaged)"),
        None => {}
    }
    write(output, &bytes)?;
    println!("{} -> {} bytes", data.len(), bytes.len());
    Ok(())
}

/// Checks every checksum in a compressed file; per-chunk verdicts for
/// containers. Errors (nonzero exit) on any damage.
fn verify(path: &str) -> Result<(), String> {
    let data = read(path)?;
    if data.len() < 4 {
        return Err("file too short to identify".into());
    }
    match &data[..4] {
        b"CLZC" => {
            let (c, payload_at) = culzss_lzss::container::Container::parse_lenient(&data)
                .map_err(|e| format!("{path}: metadata unusable: {e}"))?;
            println!(
                "container: v{} ({}), {} chunk(s), {} B uncompressed",
                c.version,
                if c.is_checksummed() { "checksummed" } else { "no checksums" },
                c.chunk_comp_sizes.len(),
                c.total_len,
            );
            let payload = &data[payload_at.min(data.len())..];
            let mut bad = 0usize;
            for check in c.check_payload(payload) {
                let verdict = match (check.stored_crc, check.computed_crc) {
                    (_, None) => {
                        bad += 1;
                        "TRUNCATED".to_string()
                    }
                    (Some(want), Some(got)) if want != got => {
                        bad += 1;
                        format!("CRC MISMATCH (stored {want:08x}, computed {got:08x})")
                    }
                    (Some(want), Some(_)) => format!("ok (crc {want:08x})"),
                    (None, Some(_)) => "present (v1: no chunk crc)".to_string(),
                };
                println!(
                    "  chunk {:>4}: {:>8} B compressed -> {:>8} B — {verdict}",
                    check.index,
                    check.comp_range.len(),
                    check.uncompressed_len,
                );
            }
            if bad > 0 {
                return Err(format!("{path}: {bad} damaged chunk(s)"));
            }
            // Chunk bodies check out; prove the whole stream with a
            // strict decode (covers the stream CRC and v1 blind spots).
            let decoded = if c.format_id == culzss_lzss::format::TokenFormat::Fixed16.id() {
                Culzss::new(Version::V1)
                    .decompress_auto(&data)
                    .map(|r| r.0)
                    .map_err(|e| e.to_string())
            } else {
                // Pthread streams from this CLI always carry the
                // Dipperstein configuration; check_config inside the
                // decoder rejects anything else.
                let config = LzssConfig::dipperstein();
                culzss_pthread::decompress(&data, &config, culzss_pthread::default_threads())
                    .map_err(|e| e.to_string())
            };
            match decoded {
                Ok(plain) => println!("stream decode: ok ({} bytes)", plain.len()),
                Err(e) => return Err(format!("{path}: stream decode failed: {e}")),
            }
        }
        b"LZSS" => {
            let plain = culzss_lzss::serial::decompress(&data, &LzssConfig::dipperstein())
                .map_err(|e| format!("{path}: {e}"))?;
            println!("serial LZSS stream: decode ok ({} bytes)", plain.len());
        }
        b"BZR1" => {
            let plain = culzss_bzip2::decompress(&data).map_err(|e| format!("{path}: {e}"))?;
            println!("BZR1 stream: decode ok ({} bytes, all block CRCs verified)", plain.len());
        }
        other => return Err(format!("{path}: unknown magic {other:02x?}")),
    }
    println!("verify passed");
    Ok(())
}

/// Magic-based stream detection.
fn detect(data: &[u8]) -> Result<Codec, String> {
    if data.len() < 4 {
        return Err("file too short to identify".into());
    }
    match &data[..4] {
        b"CLZC" => {
            // Distinguish the CULZSS (Fixed16) container from the Pthread
            // (FlagBit) one via the format id byte.
            let (container, _) =
                culzss_lzss::container::Container::parse(data).map_err(|e| e.to_string())?;
            if container.format_id == culzss_lzss::format::TokenFormat::Fixed16.id() {
                Ok(Codec::V2)
            } else {
                Ok(Codec::Pthread)
            }
        }
        b"LZSS" => Ok(Codec::Lzss),
        b"BZR1" => Ok(Codec::Bzip2),
        other => Err(format!("unknown magic {other:02x?}")),
    }
}

fn info(path: &str) -> Result<(), String> {
    let data = read(path)?;
    if data.len() < 4 {
        return Err("file too short".into());
    }
    match &data[..4] {
        b"CLZC" => {
            let (c, payload) =
                culzss_lzss::container::Container::parse(&data).map_err(|e| e.to_string())?;
            println!("chunked LZSS container (CLZC)");
            println!(
                "  format        : {}",
                if c.format_id == 2 { "Fixed16 (CULZSS)" } else { "FlagBit (CPU)" }
            );
            println!("  window        : {} B", c.window_size);
            println!("  match lengths : {}..={}", c.min_match, c.max_match);
            println!("  chunk size    : {} B", c.chunk_size);
            println!("  chunks        : {}", c.chunk_comp_sizes.len());
            println!("  uncompressed  : {} B", c.total_len);
            println!("  compressed    : {} B ({} payload)", data.len(), data.len() - payload);
            if c.total_len > 0 {
                println!(
                    "  ratio         : {:.1}%",
                    100.0 * data.len() as f64 / c.total_len as f64
                );
            }
        }
        b"LZSS" => {
            let len = u32::from_le_bytes(data[4..8].try_into().map_err(|_| "short header")?);
            println!("standalone serial LZSS stream");
            println!("  uncompressed  : {len} B");
            println!("  compressed    : {} B", data.len());
        }
        b"BZR1" => {
            let len = u64::from_le_bytes(data[4..12].try_into().map_err(|_| "short header")?);
            let block = u32::from_le_bytes(data[12..16].try_into().map_err(|_| "short header")?);
            println!("block-sorting stream (BZR1)");
            println!("  uncompressed  : {len} B");
            println!("  block size    : {block} B");
            println!("  compressed    : {} B", data.len());
        }
        other => {
            println!("unrecognized magic {other:02x?} ({} bytes)", data.len());
        }
    }
    Ok(())
}

fn gen(dataset: &str, bytes: usize, output: &str, seed: u64) -> Result<(), String> {
    let data = if dataset == "mixed" {
        culzss_datasets::mixer::Mixer::datacenter().generate(bytes, seed)
    } else {
        culzss_datasets::Dataset::from_slug(dataset)
            .ok_or(format!("unknown dataset `{dataset}`"))?
            .generate(bytes, seed)
    };
    write(output, &data)?;
    println!(
        "{dataset}: {bytes} bytes (entropy {:.2} bits/byte) -> {output}",
        culzss_datasets::stats::entropy_bits_per_byte(&data)
    );
    Ok(())
}

/// Folds one `--device-fail` spec (`D:dead@N[+M]`, `D:flaky@P`,
/// `D:slow@X`, `D:hang@N`) into the fault plan.
fn apply_device_fail_spec(
    plan: culzss_server::FaultPlan,
    spec: &str,
) -> Result<culzss_server::FaultPlan, String> {
    let bad = |why: &str| format!("bad --device-fail spec `{spec}`: {why}");
    let (device, rest) = spec.split_once(':').ok_or_else(|| bad("expected DEVICE:KIND@ARG"))?;
    let device: usize = device.trim().parse().map_err(|_| bad("device is not a number"))?;
    let (kind, arg) = rest.split_once('@').ok_or_else(|| bad("expected KIND@ARG"))?;
    match kind.trim() {
        "dead" => {
            let (at, heal) = match arg.split_once('+') {
                Some((at, heal)) => {
                    let heal =
                        heal.parse::<u64>().map_err(|_| bad("heal count is not a number"))?;
                    (at, Some(heal))
                }
                None => (arg, None),
            };
            let at = at.parse::<u64>().map_err(|_| bad("launch index is not a number"))?;
            Ok(plan.device_dead(device, at, heal))
        }
        "flaky" => {
            let rate = arg.parse::<f64>().map_err(|_| bad("rate is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(bad("rate must be in 0..=1"));
            }
            Ok(plan.device_flaky(device, rate))
        }
        "slow" => {
            let mult = arg.parse::<f64>().map_err(|_| bad("multiplier is not a number"))?;
            if !mult.is_finite() || mult < 1.0 {
                return Err(bad("multiplier must be >= 1"));
            }
            Ok(plan.device_slow(device, mult))
        }
        "hang" => {
            let at = arg.parse::<u64>().map_err(|_| bad("launch index is not a number"))?;
            Ok(plan.device_hang(device, at, 0.05))
        }
        other => Err(bad(&format!("unknown kind `{other}` (dead/flaky/slow/hang)"))),
    }
}

#[allow(clippy::too_many_arguments)]
fn serve(
    devices: usize,
    cpu_workers: usize,
    tenants: usize,
    jobs: usize,
    payload: usize,
    queue_depth: usize,
    batch_jobs: usize,
    tenant_rate: u64,
    tenant_burst: usize,
    fail_first: u64,
    corrupt_every: u64,
    seed: u64,
    trace_out: Option<String>,
    cache_mb: usize,
    chaos_seed: u64,
    device_fail: Option<String>,
) -> Result<(), String> {
    use culzss_server::{FaultPlan, LoadGenConfig, ServerConfig, Service};

    let mut fault =
        if fail_first > 0 { FaultPlan::fail_first(fail_first) } else { FaultPlan::none() };
    if corrupt_every > 0 {
        fault = fault.corrupt_bit_flip(corrupt_every, 997);
    }
    if let Some(specs) = &device_fail {
        fault = fault.chaos(chaos_seed);
        for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
            fault = apply_device_fail_spec(fault, spec.trim())?;
        }
        for (device, _) in fault.device_faults() {
            if *device >= devices {
                return Err(format!(
                    "--device-fail names gpu{device} but only {devices} device(s) are configured"
                ));
            }
        }
    }
    let config = ServerConfig {
        devices: (0..devices).map(|_| culzss_gpusim::DeviceSpec::gtx480()).collect(),
        cpu_workers,
        queue_depth,
        batch_jobs,
        tenant_rate_bytes: (tenant_rate > 0).then_some(tenant_rate),
        tenant_burst_bytes: tenant_burst,
        fault,
        cache: (cache_mb > 0).then_some(cache_mb << 20),
        ..ServerConfig::default()
    };
    println!(
        "service: {devices} simulated GTX 480 device(s) + {cpu_workers} CPU worker(s), \
         queue depth {queue_depth}, batch window {batch_jobs} jobs{}{}",
        if cache_mb > 0 { format!(", {cache_mb} MiB chunk cache") } else { String::new() },
        if tenant_rate > 0 {
            format!(", tenant rate {tenant_rate} B/s (burst {tenant_burst} B)")
        } else {
            String::new()
        }
    );
    if let Some(specs) = &device_fail {
        println!("chaos: seed {chaos_seed}, schedule {specs}");
    }
    let service = Service::start(config);

    let load = LoadGenConfig {
        tenants,
        jobs_per_tenant: jobs,
        payload_bytes: payload,
        seed,
        ..LoadGenConfig::default()
    };
    println!(
        "load: {tenants} tenant(s) x {jobs} jobs x {payload} B (closed loop, window {})",
        load.window
    );
    let report = culzss_server::loadgen::run(&service, &load);
    println!("\nclient view:\n{report}");

    let recent = service.recent_batches();
    println!("\nlast batch windows (of {}):", recent.len());
    for batch in recent.iter().rev().take(8).rev() {
        println!("  {batch}");
    }

    let stats = match trace_out {
        Some(path) => {
            let (stats, json) = service.shutdown_with_trace();
            culzss_server::validate_chrome_trace(&json)?;
            write(&path, json.as_bytes())?;
            println!("\ntrace: wrote {path} (open in Perfetto or chrome://tracing)");
            stats
        }
        None => service.shutdown(),
    };
    println!("\nservice stats:\n{stats}");
    if !stats.breaker_transitions.is_empty() {
        println!("\nbreaker transitions:");
        for t in &stats.breaker_transitions {
            println!("  {t}");
        }
    }
    println!("counters reconcile: {}", stats.reconciles());
    Ok(())
}

/// Profiles one compression — or, with `decompress`, one decompression —
/// job through the service: runs it on a single simulated GTX 480,
/// exports the combined host + modelled GPU Chrome trace, and prints the
/// per-stage latency breakdown. In decompress mode the input is
/// compressed *before* the service starts, so the trace and stages cover
/// the decode path only.
fn profile(
    input: &str,
    codec: Codec,
    decompress: bool,
    engine: DecodeEngine,
    out: Option<String>,
) -> Result<(), String> {
    use culzss::CulzssParams;
    use culzss_server::{JobSpec, ServerConfig, Service};

    let data = read(input)?;
    let mut params = match codec {
        Codec::V1 => CulzssParams::v1(),
        Codec::V3 => CulzssParams::v3(),
        _ => CulzssParams::v2(),
    };
    params.decode_engine = engine;
    // No CPU workers: the job must take the device path, so the trace
    // always carries modelled kernel stages and GPU block spans.
    let config = ServerConfig {
        devices: vec![culzss_gpusim::DeviceSpec::gtx480()],
        cpu_workers: 0,
        params: params.clone(),
        ..ServerConfig::default()
    };
    println!(
        "profile: {} ({} B, codec {}{}) on 1 simulated GTX 480",
        input,
        data.len(),
        match codec {
            Codec::V1 => "v1",
            Codec::V3 => "v3",
            _ => "v2",
        },
        if decompress { format!(", decompress, engine {}", engine.name()) } else { String::new() }
    );
    let payload = if decompress {
        // Compress outside the service so only the decode job is traced.
        let culzss = Culzss::with_device(culzss_gpusim::DeviceSpec::gtx480(), params);
        culzss.compress(&data).map_err(|e| e.to_string())?.0
    } else {
        data
    };
    let bytes_in = payload.len();
    let service = Service::start(config);
    let spec = if decompress {
        JobSpec::decompress("profile", payload)
    } else {
        JobSpec::compress("profile", payload)
    };
    let ticket = service.submit(spec).map_err(|e| e.to_string())?;
    let outcome = ticket.wait().map_err(|e| format!("profile job failed: {e}"))?;
    let bytes_out = outcome.output.len();

    let (stats, json) = service.shutdown_with_trace();
    // The export self-validates before it is written: balanced B/E pairs
    // per lane, monotonic timestamps, non-negative X durations.
    culzss_server::validate_chrome_trace(&json)?;
    let out_path = out.unwrap_or_else(|| format!("{input}.trace.json"));
    write(&out_path, json.as_bytes())?;

    println!("{bytes_in} -> {bytes_out} bytes ({:.1}%)", {
        100.0 * bytes_out as f64 / bytes_in.max(1) as f64
    });
    println!("\nstage breakdown (host wall unless noted):");
    let stages = [
        ("queue wait", stats.queue_wait_seconds),
        ("service (device path)", stats.service_seconds),
        ("verify (host decode)", stats.verify_seconds),
        ("h2d (modelled)", stats.modeled_h2d_seconds),
        ("kernel (modelled)", stats.modeled_kernel_seconds),
        ("d2h (modelled)", stats.modeled_d2h_seconds),
        ("cpu pack (modelled)", stats.modeled_cpu_seconds),
    ];
    for (label, seconds) in stages {
        println!("  {label:<22} {:>10.3} ms", seconds * 1e3);
    }
    println!("\ntrace: wrote {out_path} (open in Perfetto or chrome://tracing)");
    if stats.trace_dropped > 0 {
        println!("trace: {} span(s) dropped; the export is truncated", stats.trace_dropped);
    }
    Ok(())
}

/// Compresses `input` twice through a chunk-cache-backed compressor and
/// prints the chunking layout plus cold/warm cache behaviour. The second
/// pass must be served entirely from cache and produce the identical
/// container.
fn dedup(input: &str, cache_mb: usize) -> Result<(), String> {
    use std::sync::Arc;

    use culzss::CulzssParams;
    use culzss_dedup::{ChunkCache, Chunker, DedupCompressor};

    let data = read(input)?;
    let params = CulzssParams::v1();
    let chunker = Chunker::for_align(params.chunk_size);
    let segments = chunker.segments(&data);
    println!("dedup: {} ({} B), {} MiB cache", input, data.len(), cache_mb.max(1));
    if !segments.is_empty() {
        let avg = data.len() / segments.len();
        let min = segments.iter().map(|s| s.len()).min().unwrap_or(0);
        let max = segments.iter().map(|s| s.len()).max().unwrap_or(0);
        println!(
            "chunking: {} segment(s) on the {} B grid — {} B min / {} B avg / {} B max",
            segments.len(),
            params.chunk_size,
            min,
            avg,
            max
        );
    }

    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let cache = Arc::new(ChunkCache::new(cache_mb.max(1) << 20));
    let compressor = DedupCompressor::new(Arc::clone(&cache), params);

    let started = Instant::now();
    let (cold_out, cold) = compressor.compress_cpu(&data, threads).map_err(|e| e.to_string())?;
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let (warm_out, warm) = compressor.compress_cpu(&data, threads).map_err(|e| e.to_string())?;
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;

    if cold_out != warm_out {
        return Err("cached pass produced a different container".into());
    }
    println!(
        "cold pass: {:>8.1} ms — {}/{} segment(s) from cache (hit rate {:.0}%)",
        cold_ms,
        cold.hit_segments,
        cold.segments,
        cold.hit_rate() * 100.0
    );
    println!(
        "warm pass: {:>8.1} ms — {}/{} segment(s) from cache (hit rate {:.0}%), \
         {} B served from cache",
        warm_ms,
        warm.hit_segments,
        warm.segments,
        warm.hit_rate() * 100.0,
        warm.bytes_from_cache
    );
    let stats = cache.stats();
    println!(
        "cache: {} hit(s) / {} miss(es), {} entr(ies) holding {} B, {} eviction(s)",
        stats.hits, stats.misses, stats.entries, stats.stored_bytes, stats.evictions
    );
    println!(
        "container: {} -> {} bytes ({:.1}%), byte-identical across passes",
        data.len(),
        cold_out.len(),
        100.0 * cold_out.len() as f64 / data.len().max(1) as f64
    );
    Ok(())
}

fn bench_serve(jobs: usize, payload: usize, seed: u64) -> Result<(), String> {
    use culzss_server::{FaultPlan, LoadGenConfig, ServerConfig, Service};

    let shapes: [(&str, usize, usize, FaultPlan); 4] = [
        ("1 gpu + 0 cpu", 1, 0, FaultPlan::none()),
        ("1 gpu + 1 cpu", 1, 1, FaultPlan::none()),
        ("2 gpu + 1 cpu", 2, 1, FaultPlan::none()),
        ("2 gpu + 1 cpu, flaky", 2, 1, FaultPlan::every_nth(4)),
    ];
    println!("bench-serve: 4 tenants x {jobs} jobs x {payload} B per pool shape (seed {seed})\n");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>12} {:>10} {:>10}",
        "pool", "completed", "rejected", "fallback", "mean lat ms", "wall s", "coalesce"
    );
    for (label, devices, cpu_workers, fault) in shapes {
        let config = ServerConfig {
            devices: (0..devices).map(|_| culzss_gpusim::DeviceSpec::gtx480()).collect(),
            cpu_workers,
            fault,
            ..ServerConfig::default()
        };
        let service = Service::start(config);
        let load = LoadGenConfig {
            tenants: 4,
            jobs_per_tenant: jobs,
            payload_bytes: payload,
            seed,
            ..LoadGenConfig::default()
        };
        let report = culzss_server::loadgen::run(&service, &load);
        let stats = service.shutdown();
        if !stats.reconciles() {
            return Err(format!("{label}: counters do not reconcile: {stats:?}"));
        }
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>12.2} {:>10.2} {:>9.2}x",
            label,
            stats.completed,
            stats.rejected(),
            stats.cpu_fallback_completions,
            report.mean_latency_seconds() * 1e3,
            report.wall_seconds,
            stats.batching_speedup(),
        );
    }
    Ok(())
}

/// Runs all three CULZSS kernels and both decode engines over corpus
/// samples under the shared-memory sanitizer; errors (nonzero exit) on
/// any conflict or divergence.
fn sancheck(dataset: &str, bytes: usize, seed: u64) -> Result<(), String> {
    let corpora: Vec<culzss_datasets::Dataset> = if dataset == "all" {
        culzss_datasets::Dataset::ALL.to_vec()
    } else {
        vec![culzss_datasets::Dataset::from_slug(dataset)
            .ok_or(format!("unknown dataset `{dataset}`"))?]
    };
    let sim = culzss_gpusim::GpuSim::new(culzss_gpusim::DeviceSpec::gtx480());
    println!(
        "sancheck: {} corpus sample(s) x {bytes} B (seed {seed}) on simulated GTX 480",
        corpora.len()
    );
    let mut dirty = 0usize;
    for corpus in corpora {
        let input = corpus.generate(bytes, seed);
        let checks = culzss::sancheck::check_all(&sim, &input).map_err(|e| e.to_string())?;
        for check in checks {
            let verdict = if check.is_clean() { "clean" } else { "FINDINGS" };
            println!("\n[{}] {:?} kernel: {verdict}", corpus.slug(), check.version);
            println!("{}", check.report);
            if !check.is_clean() {
                dirty += 1;
            }
        }
        // Decode half of the sweep: both engines over streams from both
        // compression kernels.
        let checks = culzss::sancheck::check_decode_all(&sim, &input).map_err(|e| e.to_string())?;
        for check in checks {
            let verdict = if check.is_clean() { "clean" } else { "FINDINGS" };
            println!(
                "\n[{}] {:?} stream / {:?} decode: {verdict}",
                corpus.slug(),
                check.version,
                check.engine
            );
            println!("{}", check.report);
            if !check.is_clean() {
                dirty += 1;
            }
        }
    }
    if dirty > 0 {
        return Err(format!("sancheck: {dirty} kernel run(s) with findings"));
    }
    println!("\nsancheck passed: all kernels and decode engines race- and divergence-free");
    Ok(())
}

fn selftest() -> Result<(), String> {
    let dir = std::env::temp_dir().join("culzss_cli_selftest");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let original = dir.join("in.bin");
    let packed = dir.join("out.clz");
    let restored = dir.join("back.bin");
    let as_str = |p: &std::path::Path| p.to_str().expect("utf8 temp path").to_string();

    let data = culzss_datasets::Dataset::KernelTarball.generate(256 * 1024, 4242);
    std::fs::write(&original, &data).map_err(|e| e.to_string())?;

    for codec in [Codec::V1, Codec::V2, Codec::V3, Codec::Lzss, Codec::Pthread, Codec::Bzip2] {
        compress(&as_str(&original), &as_str(&packed), codec, false)?;
        // Exercise checksum verification and magic detection; GPU
        // containers additionally round-trip through both decode engines.
        verify(&as_str(&packed))?;
        let engines: &[DecodeEngine] = if matches!(codec, Codec::V1 | Codec::V2 | Codec::V3) {
            &[DecodeEngine::Serial, DecodeEngine::WarpParallel]
        } else {
            &[DecodeEngine::Serial]
        };
        for &engine in engines {
            decompress(&as_str(&packed), &as_str(&restored), Codec::Auto, engine, false)?;
            let back = std::fs::read(&restored).map_err(|e| e.to_string())?;
            if back != data {
                return Err(format!("{codec:?}/{engine:?} roundtrip mismatch"));
            }
        }
        println!("{codec:?}: OK");
    }
    println!("selftest passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join("culzss_cli_unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_str().expect("utf8").to_string()
    }

    #[test]
    fn detect_identifies_all_magics() {
        let data = culzss_datasets::Dataset::CFiles.generate(32 * 1024, 1);
        let serial = culzss_lzss::serial::compress(&data, &LzssConfig::dipperstein()).unwrap();
        assert_eq!(detect(&serial).unwrap(), Codec::Lzss);

        let bz = culzss_bzip2::compress(&data).unwrap();
        assert_eq!(detect(&bz).unwrap(), Codec::Bzip2);

        let gpu = Culzss::new(Version::V2).with_workers(1).compress(&data).unwrap().0;
        assert_eq!(detect(&gpu).unwrap(), Codec::V2);

        let pthread = culzss_pthread::compress(&data, &LzssConfig::dipperstein(), 2).unwrap();
        assert_eq!(detect(&pthread).unwrap(), Codec::Pthread);

        assert!(detect(b"??").is_err());
        assert!(detect(b"ABCDEF").is_err());
    }

    #[test]
    fn compress_decompress_via_files() {
        let input = temp("unit_in.bin");
        let packed = temp("unit_out.clz");
        let back = temp("unit_back.bin");
        let data = culzss_datasets::Dataset::DeMap.generate(64 * 1024, 2);
        std::fs::write(&input, &data).unwrap();

        compress(&input, &packed, Codec::Lzss, false).unwrap();
        decompress(&packed, &back, Codec::Auto, DecodeEngine::Serial, false).unwrap();
        assert_eq!(std::fs::read(&back).unwrap(), data);

        // Info prints without error on each stream type.
        info(&packed).unwrap();
    }

    #[test]
    fn verify_and_salvage_handle_damage() {
        let input = temp("unit_dmg_in.bin");
        let packed = temp("unit_dmg.clz");
        let back = temp("unit_dmg_back.bin");
        let data = culzss_datasets::Dataset::CFiles.generate(24 * 1024, 11);
        std::fs::write(&input, &data).unwrap();
        compress(&input, &packed, Codec::V2, false).unwrap();

        // Pristine: verify passes, salvage is an identity decode.
        verify(&packed).unwrap();
        decompress(&packed, &back, Codec::Auto, DecodeEngine::Serial, true).unwrap();
        assert_eq!(std::fs::read(&back).unwrap(), data);

        // Flip a payload byte: verify fails, salvage still produces a
        // full-length output with the damaged chunk zero-filled.
        let mut stream = std::fs::read(&packed).unwrap();
        let at = stream.len() - 3;
        stream[at] ^= 0x20;
        std::fs::write(&packed, &stream).unwrap();
        assert!(verify(&packed).is_err());
        assert!(decompress(&packed, &back, Codec::Auto, DecodeEngine::Serial, false).is_err());
        decompress(&packed, &back, Codec::Auto, DecodeEngine::Serial, true).unwrap();
        let salvaged = std::fs::read(&back).unwrap();
        assert_eq!(salvaged.len(), data.len());
        assert_ne!(salvaged, data);
    }

    #[test]
    fn gen_writes_requested_bytes() {
        let out = temp("unit_gen.bin");
        gen("highly-compressible", 10_000, &out, 5).unwrap();
        assert_eq!(std::fs::read(&out).unwrap().len(), 10_000);
        gen("mixed", 5_000, &out, 5).unwrap();
        assert_eq!(std::fs::read(&out).unwrap().len(), 5_000);
        assert!(gen("nonsense", 10, &out, 5).is_err());
    }

    #[test]
    fn sancheck_passes_on_a_small_sample() {
        sancheck("de-map", 16 * 1024, 7).unwrap();
        assert!(sancheck("nonsense", 1024, 7).is_err());
    }

    #[test]
    fn profile_emits_a_validated_trace() {
        let input = temp("unit_profile_in.bin");
        let trace = temp("unit_profile.trace.json");
        let data = culzss_datasets::Dataset::CFiles.generate(64 * 1024, 9);
        std::fs::write(&input, &data).unwrap();

        profile(&input, Codec::V2, false, DecodeEngine::Serial, Some(trace.clone())).unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        culzss_server::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"request\""), "host spans missing");
        assert!(json.contains("compress#b0"), "modelled block spans missing");
    }

    #[test]
    fn profile_decompress_emits_a_validated_trace() {
        let input = temp("unit_profile_dec_in.bin");
        let trace = temp("unit_profile_dec.trace.json");
        let data = culzss_datasets::Dataset::CFiles.generate(64 * 1024, 9);
        std::fs::write(&input, &data).unwrap();

        for engine in [DecodeEngine::Serial, DecodeEngine::WarpParallel] {
            profile(&input, Codec::V1, true, engine, Some(trace.clone())).unwrap();
            let json = std::fs::read_to_string(&trace).unwrap();
            culzss_server::validate_chrome_trace(&json).unwrap();
            assert!(json.contains("\"request\""), "host spans missing ({engine:?})");
        }
    }

    #[test]
    fn dedup_round_trips_and_reports() {
        let input = temp("unit_dedup_in.bin");
        let data = culzss_datasets::Dataset::KernelTarball.generate(96 * 1024, 3);
        std::fs::write(&input, &data).unwrap();
        dedup(&input, 16).unwrap();
        assert!(dedup("/definitely/missing", 16).is_err());
    }

    #[test]
    fn missing_files_error_cleanly() {
        assert!(compress("/definitely/missing", &temp("x"), Codec::Lzss, false).is_err());
        assert!(info("/definitely/missing").is_err());
    }
}
