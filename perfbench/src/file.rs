//! The file workloads (`file-v2`, `file-v3-warp`): the CLI's in-memory
//! path, one 256 KiB file per call through `Culzss::compress` and then
//! `Culzss::decompress_auto`.
//!
//! The untraced run times the library calls and reports the end-to-end
//! metrics. The traced run rebuilds both calls from the pipeline's
//! public pieces, one span per piece, checks that the rebuilt pipeline
//! yields the library's bytes, and reports the per-layer metrics.

use std::time::Instant;

use culzss::params::CulzssParams;
use culzss::pipeline::BufferPool;
use culzss::{decompress, kernel_v2, v3, Culzss, DecodeEngine, PipelineStats, Version};
use culzss_datasets::mixer::Mixer;
use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::{DeviceSpec, GpuSim};
use culzss_lzss::container::{assemble_with, stream_crc_of, Container};
use culzss_lzss::format::{self, TokenFormat};
use culzss_lzss::LzssConfig;

use crate::alloc;
use culzss_server::SpanRecord;

use crate::report::{fingerprint, median, mix, Metrics, Outcome, Tracer};
use crate::speed::{self, Timing};
use crate::svc;

/// Bytes per file (one call).
const FILE_BYTES: usize = 256 << 10;
/// Files generated per run. Every run makes at least one full pass, so
/// the exact metrics (ratio, modelled cycles) cover exactly these files
/// and repeat bit for bit for a seed. `peak_heap_mb` covers exactly that
/// first pass too: `Culzss` keeps each decoded chunk buffer in its pool,
/// which grows with every round trip until the pool's cap, so a peak
/// over the timed window would rise with the speed of the code.
const POOL_FILES: usize = 40;
/// Files of the traced run's repeated pass: its modelled counts cover
/// exactly these, so they repeat bit for bit for a seed.
const TRACED_FILES: usize = 20;
/// Fresh `Culzss::new` constructions timed together as one `setup_s`
/// sample. Construction takes microseconds, mostly in system calls whose
/// cost drifts over seconds on a shared host, so after the first pass
/// one sample is taken before every round trip and `setup_s` is their
/// median over the run.
const SETUP_BATCH: usize = 50;
/// Fewest `setup_s` samples per run; a run too short to take them
/// between round trips takes the rest after its timed phase.
const MIN_SETUP_SAMPLES: usize = 15;

#[derive(Clone, Copy)]
pub struct FileWorkload {
    pub version: Version,
    pub engine: DecodeEngine,
}

impl FileWorkload {
    fn library(&self) -> Culzss {
        Culzss::new(self.version).with_decode_engine(self.engine)
    }
}

/// Mean length of one corpus segment in a file: one CULZSS chunk, so a
/// file holds about 64 segments and its corpus mix stays close to the
/// datacenter weights whatever the seed.
const SEGMENT_BYTES: usize = 4096;

/// File `i` of `seed`; both file workloads run the same files.
fn file(seed: u64, i: usize) -> Vec<u8> {
    Mixer::datacenter().with_segment_bytes(SEGMENT_BYTES).generate(FILE_BYTES, mix(seed, i as u64))
}

fn files(seed: u64) -> Vec<Vec<u8>> {
    (0..POOL_FILES).map(|i| file(seed, i)).collect()
}

/// Modelled launch totals of one pass over the pool.
#[derive(Default, Clone, Copy, PartialEq)]
struct Modelled {
    work_cycles: f64,
    host_cycles: f64,
    shared_accesses: f64,
    global_transactions: f64,
    warp_issue_ops: f64,
    barriers: f64,
}

impl Modelled {
    fn of(launch: &LaunchStats) -> Self {
        let mut counts = Self::default();
        counts.add(launch, 0.0);
        counts
    }

    fn add(&mut self, launch: &LaunchStats, host_cycles: f64) {
        self.work_cycles += launch.cost.work_cycles;
        self.host_cycles += host_cycles;
        self.shared_accesses += launch.metrics.shared_accesses as f64;
        self.global_transactions += launch.metrics.global_transactions;
        self.warp_issue_ops += launch.metrics.warp_issue_ops;
        self.barriers += launch.metrics.barriers as f64;
    }

    fn events(&self) -> f64 {
        self.warp_issue_ops + self.shared_accesses + self.global_transactions
    }
}

/// What the first pass recorded about one file, to compare later passes
/// against: the stream's fingerprint and its modelled cycles.
#[derive(Clone, Copy, PartialEq)]
struct Pass {
    stream: u64,
    enc_cycles: f64,
    dec_cycles: f64,
}

fn launch_of(stats: &PipelineStats) -> &LaunchStats {
    stats.launch.as_ref().expect("every GPU call reports its launch")
}

/// Mean seconds of one fresh `Culzss::new` over a batch, and the heap
/// bytes the batch allocated.
fn setup_sample(work: &FileWorkload) -> (f64, u64) {
    let before = alloc::allocated();
    let started = Instant::now();
    let built: Vec<Culzss> =
        (0..SETUP_BATCH).map(|_| std::hint::black_box(work.library())).collect();
    let seconds = started.elapsed().as_secs_f64();
    drop(built);
    (seconds / SETUP_BATCH as f64, alloc::allocated() - before)
}

/// The untraced run: end-to-end metrics.
pub fn run(work: &FileWorkload, seed: u64, seconds: f64, out: &mut Outcome) -> Metrics {
    let files = files(seed);
    out.check(file(seed.wrapping_add(1), 0) != files[0], || {
        "the seed does not change the files".into()
    });
    let lib = work.library();
    round_trip(&lib, &files[0], out); // warm-up, outside the timed phase

    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut first: Vec<Option<Pass>> = vec![None; POOL_FILES];
    let mut modelled_enc = Modelled::default();
    let mut modelled_dec = Modelled::default();
    let mut compressed_bytes = 0usize;
    let heap_start = alloc::reset_peak();
    let alloc_start = alloc::allocated();
    let started = Instant::now();
    let mut heap_peak = 0;
    let mut setup = Vec::new();
    // Wall time outside the round trips: reference loops, set-up samples.
    let mut untimed = 0.0;
    let mut setup_alloc = 0;
    let mut calls = 0usize;
    while calls < POOL_FILES || started.elapsed().as_secs_f64() - untimed < seconds {
        let (reference, wall) = timed(speed::reference_seconds);
        untimed += wall;
        // Set-up samples start after the first pass, so its heap peak
        // covers round trips alone; their time and heap bytes are taken
        // out of the timed phase's.
        if calls >= POOL_FILES {
            let ((sample, bytes), wall) = timed(|| setup_sample(work));
            setup.push(Timing { seconds: sample, reference });
            untimed += wall;
            setup_alloc += bytes;
        }
        let i = calls % POOL_FILES;
        calls += 1;
        let trip = round_trip(&lib, &files[i], out);
        if calls == POOL_FILES {
            heap_peak = alloc::peak() - heap_start;
        }
        let Some(trip) = trip else { continue };
        enc.push(Timing { seconds: trip.enc_seconds, reference });
        dec.push(Timing { seconds: trip.dec_seconds, reference });
        let enc_launch = launch_of(&trip.enc_stats);
        let dec_launch = launch_of(&trip.dec_stats);
        let pass = Pass {
            stream: trip.stream_fingerprint,
            enc_cycles: enc_launch.cost.work_cycles + trip.enc_stats.host_cycles,
            dec_cycles: dec_launch.cost.work_cycles,
        };
        match first[i] {
            None => {
                first[i] = Some(pass);
                modelled_enc.add(enc_launch, trip.enc_stats.host_cycles);
                modelled_dec.add(dec_launch, 0.0);
                compressed_bytes += trip.enc_stats.output_bytes;
            }
            Some(seen) => out.check(seen == pass, || {
                format!("file {i}: a repeat pass changed its stream or modelled cycles")
            }),
        }
    }
    let allocated = alloc::allocated() - alloc_start - setup_alloc;
    while setup.len() < MIN_SETUP_SAMPLES {
        let reference = speed::reference_seconds();
        setup.push(Timing { seconds: setup_sample(work).0, reference });
    }
    let plain_bytes = (enc.len() * FILE_BYTES) as f64;
    let pool_kib = (POOL_FILES * FILE_BYTES) as f64 / 1024.0;

    let mut m = Metrics::default();
    m.put("setup_s", speed::normalized(&setup), "s");
    m.put("enc_mbps", FILE_BYTES as f64 / 1e6 / speed::normalized(&enc), "MB/s");
    m.put("dec_mbps", FILE_BYTES as f64 / 1e6 / speed::normalized(&dec), "MB/s");
    m.put("ratio", compressed_bytes as f64 / (POOL_FILES * FILE_BYTES) as f64, "ratio");
    m.put("peak_heap_mb", heap_peak as f64 / 1e6, "MB");
    m.put("alloc_b_per_b", allocated as f64 / plain_bytes, "B/B");
    m.put(
        "model_enc_cycles_per_kib",
        (modelled_enc.work_cycles + modelled_enc.host_cycles) / pool_kib,
        "cycles/KiB",
    );
    m.put("model_dec_cycles_per_kib", modelled_dec.work_cycles / pool_kib, "cycles/KiB");
    let raw = |timings: &[Timing]| median(&timings.iter().map(|t| t.seconds).collect::<Vec<_>>());
    eprintln!(
        "round trips {}; raw medians: compress {:.1} ms, decompress {:.2} ms, reference loop {:.3} ms",
        enc.len(),
        raw(&enc) * 1e3,
        raw(&dec) * 1e3,
        median(&enc.iter().map(|t| t.reference).collect::<Vec<_>>()) * 1e3
    );
    m
}

struct Trip {
    enc_seconds: f64,
    dec_seconds: f64,
    enc_stats: PipelineStats,
    dec_stats: PipelineStats,
    stream_fingerprint: u64,
}

/// One checked compress + decompress_auto of `file`; `None` (and a
/// failed operation) when either call errs or the bytes do not survive.
fn round_trip(lib: &Culzss, file: &[u8], out: &mut Outcome) -> Option<Trip> {
    out.attempted += 2;
    let started = Instant::now();
    let compressed = lib.compress(file);
    let enc_seconds = started.elapsed().as_secs_f64();
    let (stream, enc_stats) = match compressed {
        Ok(ok) => ok,
        Err(e) => {
            out.fail(format!("compress: {e}"));
            return None;
        }
    };
    let started = Instant::now();
    let decompressed = lib.decompress_auto(&stream);
    let dec_seconds = started.elapsed().as_secs_f64();
    match decompressed {
        Ok((plain, dec_stats)) if plain == file => Some(Trip {
            enc_seconds,
            dec_seconds,
            enc_stats,
            dec_stats,
            stream_fingerprint: fingerprint(&stream),
        }),
        Ok(_) => {
            out.fail("decompress_auto returned different bytes".into());
            None
        }
        Err(e) => {
            out.fail(format!("decompress_auto: {e}"));
            None
        }
    }
}

/// The traced run: the engine layers of the file pipeline, then the
/// server layers of the same files passed once through a `Service`.
pub fn run_traced(
    work: &FileWorkload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (Metrics, Vec<SpanRecord>) {
    let files = files(seed);
    let traced = &files[..TRACED_FILES];
    let (mut m, mut spans) = engine_layers(work.version, work.engine, traced, seconds, out);
    let (server, server_spans) = svc::server_layers(traced.to_vec(), out);
    m.absorb(server);
    spans.extend(server_spans);
    (m, spans)
}

/// Per-layer metrics of `Culzss::compress` and `decompress_auto` on
/// `inputs`: the calls rebuilt from their public pieces, each piece one
/// span, alternated with the untraced library calls on the same input
/// so `trace_overhead_frac` compares like with like. Runs for `seconds`
/// and at least one pass over `inputs`; the modelled counts cover
/// exactly that first pass.
fn engine_layers(
    version: Version,
    engine: DecodeEngine,
    inputs: &[Vec<u8>],
    seconds: f64,
    out: &mut Outcome,
) -> (Metrics, Vec<SpanRecord>) {
    let lib = Culzss::new(version).with_decode_engine(engine);
    let pipeline = Pipeline::new(version, engine);
    // Warm-up of both paths, outside the traced window.
    let library = round_trip(&lib, &inputs[0], out);
    let rebuilt = pipeline.round_trip(&inputs[0], &mut Tracer::new(), 0);
    out.attempted += 2;
    if let Some(library) = library {
        same_as_library(&library, rebuilt, &inputs[0], out);
    }
    let mut tracer = Tracer::new();

    let mut untraced_seconds = 0.0;
    let mut traced_seconds = 0.0;
    let mut first: Vec<Option<(Modelled, Modelled)>> = vec![None; inputs.len()];
    let mut enc = Modelled::default();
    let mut dec = Modelled::default();
    let (mut enc_events, mut dec_events) = (0.0, 0.0);
    let (mut enc_kernel_seconds, mut dec_kernel_seconds) = (0.0, 0.0);
    let mut kib = 0.0;
    let pool_before = lib.pool_stats();
    let started = Instant::now();
    let mut op = 0usize;
    while op < inputs.len() || started.elapsed().as_secs_f64() < seconds {
        let i = op % inputs.len();
        let file = &inputs[i];
        let lane = op as u64 + 1;
        op += 1;
        // Alternate which path runs first, so neither always inherits
        // the other's warm caches.
        let (library, traced) = if op.is_multiple_of(2) {
            let library = timed(|| round_trip(&lib, file, out));
            (library, timed(|| pipeline.round_trip(file, &mut tracer, lane)))
        } else {
            let traced = timed(|| pipeline.round_trip(file, &mut tracer, lane));
            (timed(|| round_trip(&lib, file, out)), traced)
        };
        out.attempted += 2;
        let ((Some(library), library_s), (traced, traced_s)) = (library, traced) else { continue };
        let Some(rebuilt) = same_as_library(&library, traced, file, out) else { continue };
        untraced_seconds += library_s;
        traced_seconds += traced_s;
        enc_kernel_seconds += rebuilt.enc_kernel_seconds;
        dec_kernel_seconds += rebuilt.dec_kernel_seconds;
        kib += file.len() as f64 / 1024.0;
        let counts = (Modelled::of(&rebuilt.enc_launch), Modelled::of(&rebuilt.dec_launch));
        enc_events += counts.0.events();
        dec_events += counts.1.events();
        match first[i] {
            None => {
                first[i] = Some(counts);
                enc.add(&rebuilt.enc_launch, 0.0);
                dec.add(&rebuilt.dec_launch, 0.0);
            }
            Some(seen) => out.check(seen == counts, || {
                format!("file {i}: a repeat pass changed its modelled counts")
            }),
        }
    }
    let pool_after = lib.pool_stats();
    out.check(kib > 0.0, || "no traced operation succeeded".into());
    let exact_kib = inputs.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;

    let mib = kib / 1024.0;
    let bytes = kib * 1024.0;
    let ms_per_mib = |layer: &str| tracer.layer(layer).seconds * 1e3 / mib;
    let mut m = Metrics::default();
    m.put("culzss.kernel.ms_per_mib", ms_per_mib("culzss.kernel"), "ms/MiB");
    m.put(
        "culzss.kernel.alloc_b_per_b",
        tracer.layer("culzss.kernel").alloc_bytes as f64 / bytes,
        "B/B",
    );
    m.put("gpusim.enc.ns_per_event", enc_kernel_seconds * 1e9 / enc_events, "ns");
    m.put("culzss.host_tail.ms_per_mib", ms_per_mib("culzss.host_tail"), "ms/MiB");
    m.put("culzss.decode.ms_per_mib", ms_per_mib("culzss.decode"), "ms/MiB");
    m.put(
        "culzss.decode.alloc_b_per_b",
        tracer.layer("culzss.decode").alloc_bytes as f64 / bytes,
        "B/B",
    );
    m.put("gpusim.dec.ns_per_event", dec_kernel_seconds * 1e9 / dec_events, "ns");
    m.put("lzss.container.ms_per_mib", ms_per_mib("lzss.container"), "ms/MiB");
    m.put("lzss.crc.ms_per_mib", ms_per_mib("lzss.crc"), "ms/MiB");
    let acquires = pool_after.acquires - pool_before.acquires;
    let reuses = pool_after.reuses - pool_before.reuses;
    m.put("culzss.pool.reuse_frac", reuses as f64 / acquires.max(1) as f64, "fraction");
    for (side, counts) in [("enc", enc), ("dec", dec)] {
        let per_kib = |count: f64| count / exact_kib;
        let unit = "count/KiB";
        m.put(
            &format!("gpusim.{side}.shared_accesses_per_kib"),
            per_kib(counts.shared_accesses),
            unit,
        );
        m.put(
            &format!("gpusim.{side}.global_transactions_per_kib"),
            per_kib(counts.global_transactions),
            unit,
        );
        m.put(
            &format!("gpusim.{side}.warp_issue_ops_per_kib"),
            per_kib(counts.warp_issue_ops),
            unit,
        );
        m.put(&format!("gpusim.{side}.barriers_per_kib"), per_kib(counts.barriers), unit);
    }
    m.put(
        "unattributed_frac",
        (traced_seconds - tracer.attributed_seconds()) / traced_seconds,
        "fraction",
    );
    m.put("trace_overhead_frac", traced_seconds / untraced_seconds - 1.0, "fraction");
    (m, tracer.spans)
}

/// The rebuilt round trip, if it returned the library's stream and the
/// original bytes; a failed operation otherwise.
fn same_as_library(
    library: &Trip,
    rebuilt: Step<Rebuilt>,
    file: &[u8],
    out: &mut Outcome,
) -> Option<Rebuilt> {
    match rebuilt {
        Ok(r) if fingerprint(&r.stream) == library.stream_fingerprint && r.plain == file => Some(r),
        Ok(_) => {
            out.fail("rebuilt pipeline differs from the library calls".into());
            None
        }
        Err(e) => {
            out.fail(format!("rebuilt pipeline: {e}"));
            None
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Output of one rebuilt round trip.
struct Rebuilt {
    stream: Vec<u8>,
    plain: Vec<u8>,
    enc_launch: LaunchStats,
    dec_launch: LaunchStats,
    enc_kernel_seconds: f64,
    dec_kernel_seconds: f64,
}

/// `Culzss::compress` and `Culzss::decompress_auto` rebuilt from the
/// public pieces they call, on a simulator, parameters and buffer pool
/// set up the way `Culzss::new` sets up its own.
struct Pipeline {
    sim: GpuSim,
    params: CulzssParams,
    pool: BufferPool,
}

type Step<T> = Result<T, String>;

impl Pipeline {
    fn new(version: Version, engine: DecodeEngine) -> Self {
        let mut params = CulzssParams::for_version(version);
        params.decode_engine = engine;
        Self { sim: GpuSim::new(DeviceSpec::gtx480()), params, pool: BufferPool::new() }
    }

    fn round_trip(&self, input: &[u8], t: &mut Tracer, lane: u64) -> Step<Rebuilt> {
        let started = Instant::now();
        let (stream, enc_launch, enc_kernel_seconds) = self.compress(input, t, lane)?;
        let enc_end = Instant::now();
        t.op("compress", lane, started, enc_end);
        let (plain, dec_launch, dec_kernel_seconds) = self.decompress(&stream, t, lane)?;
        t.op("decompress_auto", lane, enc_end, Instant::now());
        Ok(Rebuilt {
            stream,
            plain,
            enc_launch,
            dec_launch,
            enc_kernel_seconds,
            dec_kernel_seconds,
        })
    }

    /// `Culzss::compress`, returning the stream, the kernel launch and
    /// the kernel span's seconds.
    fn compress(
        &self,
        input: &[u8],
        t: &mut Tracer,
        lane: u64,
    ) -> Step<(Vec<u8>, LaunchStats, f64)> {
        let params = &self.params;
        params.validate(self.sim.device()).map_err(|e| e.to_string())?;
        let config = params.lzss_config();
        let kernel_before = t.layer("culzss.kernel").seconds;
        let (bodies, launch) = match params.version {
            Version::V2 => {
                let (records, launch) = t
                    .span("culzss.kernel", lane, || kernel_v2::run(&self.sim, input, params))
                    .map_err(|e| e.to_string())?;
                let bodies = t.span("culzss.host_tail", lane, || {
                    let mut bodies = Vec::with_capacity(records.len());
                    let mut tokens = self.pool.acquire_tokens();
                    for (chunk, recs) in input.chunks(params.chunk_size).zip(&records) {
                        tokens.clear();
                        culzss::metered::select_records_into(chunk, recs, &config, &mut tokens);
                        let mut body = self.pool.acquire_bytes();
                        format::encode_into(&tokens, &config, &mut body);
                        bodies.push(body);
                    }
                    self.pool.release_tokens(tokens);
                    bodies
                });
                (bodies, launch)
            }
            // V3 selects on the device: it has no serial host pass, so
            // its host-tail span stays empty.
            Version::V3 => {
                let bodies = t
                    .span("culzss.kernel", lane, || {
                        v3::run_pooled(&self.sim, input, params, &self.pool)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("culzss.host_tail", lane, || ());
                bodies
            }
            Version::V1 => return Err("no file workload runs V1".into()),
        };
        let kernel_seconds = t.layer("culzss.kernel").seconds - kernel_before;
        let crc = t.span("lzss.crc", lane, || stream_crc_of(input, params.chunk_size as u32));
        let stream = t
            .span("lzss.container", lane, || {
                assemble_with(
                    &config,
                    params.chunk_size as u32,
                    input.len() as u64,
                    crc,
                    &bodies,
                    params.container_version,
                )
            })
            .map_err(|e| e.to_string())?;
        self.pool.release_all_bytes(bodies);
        Ok((stream, launch, kernel_seconds))
    }

    /// `Culzss::decompress_auto`, returning the plain bytes, the decode
    /// launch and the decode span's seconds.
    fn decompress(
        &self,
        bytes: &[u8],
        t: &mut Tracer,
        lane: u64,
    ) -> Step<(Vec<u8>, LaunchStats, f64)> {
        let (container, payload_offset) = t
            .span("lzss.container", lane, || Container::parse(bytes))
            .map_err(|e| e.to_string())?;
        if container.format_id != TokenFormat::Fixed16.id() {
            return Err("not a CULZSS (Fixed16) stream".into());
        }
        let config = LzssConfig {
            window_size: container.window_size as usize,
            min_match: usize::from(container.min_match),
            max_match: container.max_match as usize,
            format: TokenFormat::Fixed16,
        };
        config.validate().map_err(|e| e.to_string())?;
        let payload = &bytes[payload_offset..];
        t.span("lzss.crc", lane, || container.verify_chunk_crcs(payload))
            .map_err(|e| e.to_string())?;
        let layout = t.span("lzss.container", lane, || container.chunk_layout());
        let decode_before = t.layer("culzss.decode").seconds;
        let (chunks, launch) = t
            .span("culzss.decode", lane, || {
                decompress::run_with_engine(
                    &self.sim,
                    payload,
                    &layout,
                    &config,
                    self.params.threads_per_block,
                    self.params.decode_engine,
                )
            })
            .map_err(|e| e.to_string())?;
        let decode_seconds = t.layer("culzss.decode").seconds - decode_before;
        let mut out = Vec::with_capacity(container.total_len as usize);
        for chunk in &chunks {
            out.extend_from_slice(chunk);
        }
        self.pool.release_all_bytes(chunks);
        if out.len() as u64 != container.total_len {
            return Err(format!("decoded {} of {} bytes", out.len(), container.total_len));
        }
        t.span("lzss.crc", lane, || container.verify_stream_crc(&out))
            .map_err(|e| e.to_string())?;
        Ok((out, launch, decode_seconds))
    }
}
