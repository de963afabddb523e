//! The engine × corpus measurement suite behind the `bench` binary.
//!
//! Eight engines run over the paper's five corpora
//! ([`culzss_datasets::Dataset::ALL`]):
//!
//! | engine        | what it measures                                         |
//! |---------------|----------------------------------------------------------|
//! | `serial`      | serial LZSS, brute-force finder (the calibration cell)   |
//! | `serial-hash` | serial LZSS, hash-chain finder (byte-identical output)   |
//! | `pthread`     | the Pthread baseline, fixed 8-way chunking               |
//! | `culzss-v1`   | CULZSS V1 on the simulated GPU (+ cost-model counters)   |
//! | `culzss-v2`   | CULZSS V2, CPU selection pass (+ cost-model counters)    |
//! | `culzss-v3`   | CULZSS V3, GPU selection + compaction (same counters)    |
//! | `bzip2`       | the bzip2-style baseline (SA-IS block sorter)            |
//! | `server`      | culzss-server end-to-end: submit → compress → verify     |
//!
//! The GPU cells additionally export `host_cycles` (the modelled serial
//! host pass between kernel exit and container assembly — V1's
//! compaction, V2's selection + encoding, zero for V3) and
//! `pipeline_cycles` (= `cycles` + `host_cycles`), the number the V3
//! acceptance gate in [`crate::report::compare`] reads.
//!
//! Decompression is a first-class workload: every compression engine has
//! a `dec-*` twin that decodes a stream pre-built *outside* the timed
//! region ([`DECODE_ENGINES`]), plus `dec-culzss-warp` for the two-pass
//! warp-parallel GPU decoder. Decode cells flip the byte conventions —
//! `input_bytes` is the compressed stream, `output_bytes` the decoded
//! plaintext, `throughput_mbps` is *decoded* (uncompressed) MB/s (the
//! CODAG reporting convention), and `ratio` stays compressed/uncompressed
//! so the column remains comparable with the encode cells. The GPU decode
//! cells export the deterministic cost-model counters, so `cycles` is
//! gated exactly like compression.
//!
//! Two further cells measure the dedup front end on the incremental-edits
//! corpus only: `dedup-cold` (unseen content every rep) and `dedup-warm`
//! (cache primed one edit generation earlier); see [`DEDUP_ENGINES`].
//! One more cell, `server-slo` ([`SLO_ENGINES`]), drives the service
//! with the production-skewed closed-loop load profile and exports
//! client-observed p50/p99 latency counters that the comparator gates
//! against the baseline.
//! [`GridFilter`] restricts a run to an engine/corpus subset — filtered
//! runs record the restriction in the report so the comparator skips,
//! rather than fails, the cells that were not asked for.
//!
//! Wall times are best-of-reps host wall clock — *not* the scaled-to-128 MB
//! paper methodology of the crate root; the JSON report exists to compare a
//! run against a baseline from the same methodology, so no scaling is
//! wanted. The GPU engines additionally export the deterministic
//! cost-model counters, which are immune to host noise.
//!
//! Heap traffic is counted through an [`AllocProbe`] the *binary* installs
//! (this library is `forbid(unsafe_code)`, so the counting `GlobalAlloc`
//! cannot live here); [`NO_PROBE`] keeps every count at zero.

use std::collections::BTreeMap;

use culzss::{Culzss, DecodeEngine, Version};
use culzss_datasets::{edits, Dataset};
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::LzssConfig;
use culzss_server::{loadgen, JobSpec, LoadGenConfig, LoadProfile, ServerConfig, Service};

use crate::report::{
    compare, merge_best, Cell, Regression, Report, Tolerances, SCHEMA_VERSION, SLO_CORPUS,
    SLO_ENGINE,
};

/// Engine ids in suite order. The first entry is the calibration cell of
/// the regression gate ([`crate::report::REFERENCE_ENGINE`]).
pub const ENGINES: [&str; 8] =
    ["serial", "serial-hash", "pthread", "culzss-v1", "culzss-v2", "culzss-v3", "bzip2", "server"];

/// Decompression engine ids in suite order. Each decodes a stream its
/// compression twin produced before the clock started. `dec-serial` is
/// the calibration cell decode throughputs are normalized against
/// ([`crate::report::DECODE_REFERENCE_ENGINE`]); `dec-serial-hash`
/// decodes the hash-chain finder's stream, pinning that the finder only
/// affects encode; `dec-culzss-v1`/`dec-culzss-v2`/`dec-culzss-v3` run
/// the paper-faithful serial block decoder (the V3 stream is container
/// v2, so it decodes through the same path as V2's) and
/// `dec-culzss-warp` the two-pass warp-parallel decoder on the same V1
/// stream.
pub const DECODE_ENGINES: [&str; 9] = [
    "dec-serial",
    "dec-serial-hash",
    "dec-pthread",
    "dec-culzss-v1",
    "dec-culzss-v2",
    "dec-culzss-v3",
    "dec-culzss-warp",
    "dec-bzip2",
    "dec-server",
];

/// The dedup front-end cells, measured on the incremental-edits corpus
/// only: `dedup-cold` feeds a cache-enabled service content it has never
/// seen; `dedup-warm` re-submits content one edit generation after a
/// priming pass, so most segments are served from the chunk cache.
pub const DEDUP_ENGINES: [&str; 2] = ["dedup-cold", "dedup-warm"];

/// The service-level-objective cell ([`SLO_ENGINE`], on the synthetic
/// [`SLO_CORPUS`] "corpus"): the closed-loop load generator drives the
/// service with the production-skewed profile (Zipf tenant skew,
/// bounded-Pareto payload sizes, burst phases) and the cell exports the
/// client-observed p50/p99 latency as counters, which the comparator
/// gates against the baseline (see `Tolerances::slo_p99_rise_frac`).
pub const SLO_ENGINES: [&str; 1] = [SLO_ENGINE];

/// Subset selection for a suite run (the `--engines` / `--corpora`
/// flags). An empty axis admits everything on that axis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridFilter {
    /// Engine ids to run; empty = every engine.
    pub engines: Vec<String>,
    /// Corpus slugs to run; empty = every corpus.
    pub corpora: Vec<String>,
}

impl GridFilter {
    /// Parses comma-separated engine and corpus lists, rejecting names
    /// the suite does not know (a typo must not silently skip a cell).
    pub fn parse(engines: Option<&str>, corpora: Option<&str>) -> Result<GridFilter, String> {
        let mut filter = GridFilter::default();
        for name in split_list(engines) {
            if !ENGINES.contains(&name)
                && !DECODE_ENGINES.contains(&name)
                && !DEDUP_ENGINES.contains(&name)
                && !SLO_ENGINES.contains(&name)
            {
                return Err(format!(
                    "unknown engine {name:?} (known: {}, {}, {}, {})",
                    ENGINES.join(", "),
                    DECODE_ENGINES.join(", "),
                    DEDUP_ENGINES.join(", "),
                    SLO_ENGINES.join(", ")
                ));
            }
            filter.engines.push(name.to_string());
        }
        for name in split_list(corpora) {
            if Dataset::from_slug(name).is_none() {
                let known: Vec<&str> = Dataset::EVERY.iter().map(|d| d.slug()).collect();
                return Err(format!("unknown corpus {name:?} (known: {})", known.join(", ")));
            }
            filter.corpora.push(name.to_string());
        }
        Ok(filter)
    }

    /// Whether the filter admits this engine × corpus cell.
    pub fn admits(&self, engine: &str, corpus: &str) -> bool {
        (self.engines.is_empty() || self.engines.iter().any(|e| e == engine))
            && (self.corpora.is_empty() || self.corpora.iter().any(|c| c == corpus))
    }
}

fn split_list(list: Option<&str>) -> impl Iterator<Item = &str> {
    list.unwrap_or("").split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Chunk count of the measured Pthread baseline (the paper's i7 920
/// exposes 8 hardware threads). The input is always cut into this many
/// chunks — so the compressed container is host-independent — but the
/// *thread* count is capped at the host's parallelism: oversubscribing
/// a 2-core CI runner 4× just adds scheduler noise to the wall time.
pub const PTHREAD_CHUNKS: usize = 8;

fn pthread_workers() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1).min(PTHREAD_CHUNKS)
}

/// Returns cumulative heap traffic since process start as
/// `(bytes_allocated, allocation_count)`. The `bench` binary wires this
/// to its counting global allocator.
pub type AllocProbe = fn() -> (u64, u64);

/// Probe used when no counting allocator is installed; all allocation
/// columns read zero.
pub const NO_PROBE: AllocProbe = || (0, 0);

/// Suite sizing.
#[derive(Debug, Clone, Copy)]
pub struct SuiteCfg {
    /// Bytes per generated corpus.
    pub bytes: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Repetitions per cell; the minimum wall time is kept.
    pub reps: usize,
    /// Marks the report as smoke-sized.
    pub smoke: bool,
}

impl SuiteCfg {
    /// CI-sized run: 256 KiB per corpus, min-of-2 reps (cheap cells are
    /// adaptively extended to [`MIN_MEASURE_SECONDS`]). Small enough for
    /// a gate job, large enough that every engine does real work.
    pub fn smoke() -> Self {
        Self { bytes: 256 * 1024, seed: 0xC0DE_2011, reps: 2, smoke: true }
    }

    /// Full-sized run, honouring the `CULZSS_BENCH_MB` / `CULZSS_BENCH_REPS`
    /// environment knobs shared with the `repro` binary.
    pub fn full() -> Self {
        let m = crate::MeasureCfg::default();
        Self { bytes: m.bytes, seed: m.seed, reps: m.reps, smoke: false }
    }
}

/// Runs the full engine × corpus grid and assembles the report.
/// `commands` is recorded verbatim in the report header (the command
/// lines that produced this run and any companion artifacts).
pub fn run_suite(cfg: &SuiteCfg, probe: AllocProbe, commands: Vec<String>) -> Report {
    run_suite_filtered(cfg, probe, commands, &GridFilter::default())
}

/// [`run_suite`] restricted to the cells `filter` admits. The filter is
/// recorded in the report header so the comparator can tell a cell that
/// was filtered out from one that went missing.
pub fn run_suite_filtered(
    cfg: &SuiteCfg,
    probe: AllocProbe,
    commands: Vec<String>,
    filter: &GridFilter,
) -> Report {
    let mut cells = Vec::with_capacity(
        (ENGINES.len() + DECODE_ENGINES.len()) * Dataset::ALL.len()
            + DEDUP_ENGINES.len()
            + SLO_ENGINES.len(),
    );
    for dataset in Dataset::ALL {
        let engines: Vec<&str> =
            ENGINES.iter().copied().filter(|e| filter.admits(e, dataset.slug())).collect();
        let decoders: Vec<&str> =
            DECODE_ENGINES.iter().copied().filter(|e| filter.admits(e, dataset.slug())).collect();
        if engines.is_empty() && decoders.is_empty() {
            continue; // don't generate a corpus nothing will read
        }
        let data = dataset.generate(cfg.bytes, cfg.seed);
        for engine in engines {
            cells.push(run_cell(engine, dataset, &data, cfg, probe));
        }
        for engine in decoders {
            cells.push(decode_cell(engine, dataset, &data, cfg, probe));
        }
    }
    cells.extend(dedup_cells(cfg, probe, filter));
    cells.extend(slo_cells(cfg, probe, filter));
    Report {
        schema_version: SCHEMA_VERSION,
        tool: "culzss-bench/bench".into(),
        bytes: cfg.bytes as u64,
        seed: cfg.seed,
        reps: cfg.reps as u64,
        smoke: cfg.smoke,
        commands,
        engines_filter: filter.engines.clone(),
        corpora_filter: filter.corpora.clone(),
        cells,
    }
}

/// Runs the suite and gates it against `baseline`. A run that fails the
/// gate is re-measured once and merged cell-wise with the first pass
/// (fastest measurement wins, see [`merge_best`]) before the final
/// verdict: a transient host load spike slows one run's cells, but a
/// real regression is in the binary and fails both passes.
pub fn run_checked(
    cfg: &SuiteCfg,
    probe: AllocProbe,
    commands: Vec<String>,
    baseline: &Report,
    tol: &Tolerances,
) -> (Report, Vec<Regression>) {
    run_checked_filtered(cfg, probe, commands, baseline, tol, &GridFilter::default())
}

/// [`run_checked`] restricted to the cells `filter` admits; baseline
/// cells outside the filter are skipped by the comparator, not failed.
pub fn run_checked_filtered(
    cfg: &SuiteCfg,
    probe: AllocProbe,
    commands: Vec<String>,
    baseline: &Report,
    tol: &Tolerances,
    filter: &GridFilter,
) -> (Report, Vec<Regression>) {
    let report = run_suite_filtered(cfg, probe, commands.clone(), filter);
    let failures = compare(&report, baseline, tol);
    if failures.is_empty() {
        return (report, failures);
    }
    let merged = merge_best(report, run_suite_filtered(cfg, probe, commands, filter));
    let failures = compare(&merged, baseline, tol);
    (merged, failures)
}

/// Measures one engine on one corpus.
pub fn run_cell(
    engine: &str,
    dataset: Dataset,
    data: &[u8],
    cfg: &SuiteCfg,
    probe: AllocProbe,
) -> Cell {
    let serial_cfg = LzssConfig::dipperstein();
    let chunk = data.len().div_ceil(PTHREAD_CHUNKS).max(1);
    match engine {
        "serial" => measure(engine, dataset, data, cfg, probe, || {
            let out = culzss_lzss::serial::compress_with(data, &serial_cfg, FinderKind::BruteForce)
                .expect("serial compress");
            (out.len(), BTreeMap::new())
        }),
        "serial-hash" => measure(engine, dataset, data, cfg, probe, || {
            let out = culzss_lzss::serial::compress_with(data, &serial_cfg, FinderKind::HashChain)
                .expect("serial compress");
            (out.len(), BTreeMap::new())
        }),
        "pthread" => {
            let workers = pthread_workers();
            measure(engine, dataset, data, cfg, probe, move || {
                let out = culzss_pthread::compress_chunked(data, &serial_cfg, chunk, workers)
                    .expect("pthread compress");
                (out.len(), BTreeMap::new())
            })
        }
        "culzss-v1" => gpu_cell(Version::V1, engine, dataset, data, cfg, probe),
        "culzss-v2" => gpu_cell(Version::V2, engine, dataset, data, cfg, probe),
        "culzss-v3" => gpu_cell(Version::V3, engine, dataset, data, cfg, probe),
        "bzip2" => measure(engine, dataset, data, cfg, probe, || {
            // SA-IS keeps the block sort linear-time on the highly
            // compressible corpus (the doubling sorter's 77.8 s pathology
            // is a repro target, not a gate target).
            let out = culzss_bzip2::compress_with(
                data,
                culzss_bzip2::BZ_BLOCK_SIZE,
                culzss_bzip2::bwt::Backend::SaIs,
            )
            .expect("bzip2 compress");
            (out.len(), BTreeMap::new())
        }),
        "server" => {
            // End-to-end path: admission → batch window → simulated GPU →
            // host verification (on by default) → ticket resolution.
            let service = Service::start(ServerConfig::default());
            let mut cell = measure(engine, dataset, data, cfg, probe, || {
                let ticket = service
                    .submit(JobSpec::compress("bench", data.to_vec()))
                    .expect("bench job admitted");
                let outcome = ticket.wait().expect("bench job completes");
                (outcome.output.len(), BTreeMap::new())
            });
            // Per-stage accumulated seconds across all reps, from the
            // tracing subsystem's counters. Extra counters never fail the
            // gate (the comparator only checks ratio/throughput/cycles),
            // so older baselines stay valid.
            let stats = service.shutdown();
            for (name, value) in [
                ("queue_wait_seconds", stats.queue_wait_seconds),
                ("service_seconds", stats.service_seconds),
                ("verify_seconds", stats.verify_seconds),
                ("modeled_h2d_seconds", stats.modeled_h2d_seconds),
                ("modeled_kernel_seconds", stats.modeled_kernel_seconds),
                ("modeled_d2h_seconds", stats.modeled_d2h_seconds),
                ("modeled_cpu_seconds", stats.modeled_cpu_seconds),
            ] {
                cell.counters.insert(name.into(), value);
            }
            cell
        }
        other => panic!("unknown engine {other:?}"),
    }
}

/// Host threads that run the simulated blocks of every `culzss-*` and
/// `dec-culzss-*` cell, and the worker count behind the allocation
/// figures in `BENCH_BASELINE.json`. Each launch worker keeps one block
/// meter, whose per-thread access logs add up to 4 B per input byte per
/// extra worker (`dec-culzss-warp` on highly-compressible), so an
/// unpinned count would tie the allocation gate to the runner's core
/// count. Pinning it also keeps the GPU cells' throughput comparable
/// across runners.
const GPU_SIM_WORKERS: usize = 2;

/// One reused-instance GPU cell; the cost-model counters come from the
/// final rep's launch stats. Reusing the `Culzss` object across reps is
/// deliberate: it exercises the buffer-pool steady state the arena
/// optimization targets.
fn gpu_cell(
    version: Version,
    engine: &str,
    dataset: Dataset,
    data: &[u8],
    cfg: &SuiteCfg,
    probe: AllocProbe,
) -> Cell {
    let culzss = Culzss::new(version).with_workers(GPU_SIM_WORKERS);
    let mut cell = measure(engine, dataset, data, cfg, probe, || {
        let (out, stats) = culzss.compress(data).expect("gpu compress");
        let mut counters: BTreeMap<String, f64> = stats
            .launch
            .as_ref()
            .map(|launch| launch.counters().into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            .unwrap_or_default();
        counters.insert("cpu_seconds".into(), stats.cpu_seconds);
        counters.insert("h2d_seconds".into(), stats.h2d_seconds);
        counters.insert("d2h_seconds".into(), stats.d2h_seconds);
        // The cross-engine acceptance gate compares kernel + host-pass
        // totals, so the host pass is a first-class counter here.
        counters.insert("host_cycles".into(), stats.host_cycles);
        if let Some(cycles) = counters.get("cycles").copied() {
            counters.insert("pipeline_cycles".into(), cycles + stats.host_cycles);
        }
        (out.len(), counters)
    });
    let pool = culzss.pool_stats();
    cell.counters.insert("pool_acquires".into(), pool.acquires as f64);
    cell.counters.insert("pool_reuses".into(), pool.reuses as f64);
    cell
}

/// Measures one decompression engine on one corpus. The compressed
/// stream is built by the engine's compression twin *before* the clock
/// starts; the timed region is decode only.
pub fn decode_cell(
    engine: &str,
    dataset: Dataset,
    data: &[u8],
    cfg: &SuiteCfg,
    probe: AllocProbe,
) -> Cell {
    let serial_cfg = LzssConfig::dipperstein();
    let chunk = data.len().div_ceil(PTHREAD_CHUNKS).max(1);
    match engine {
        "dec-serial" | "dec-serial-hash" => {
            // The finder only affects encode; both streams are
            // byte-identical and decode through the same path. The twin
            // cells pin exactly that.
            let finder =
                if engine == "dec-serial" { FinderKind::BruteForce } else { FinderKind::HashChain };
            let stream = culzss_lzss::serial::compress_with(data, &serial_cfg, finder)
                .expect("serial compress");
            decode_measure(engine, dataset, stream.len(), cfg, probe, || {
                let out = culzss_lzss::serial::decompress(&stream, &serial_cfg)
                    .expect("serial decompress");
                (out.len(), BTreeMap::new())
            })
        }
        "dec-pthread" => {
            let workers = pthread_workers();
            let stream = culzss_pthread::compress_chunked(data, &serial_cfg, chunk, workers)
                .expect("pthread compress");
            decode_measure(engine, dataset, stream.len(), cfg, probe, move || {
                let out = culzss_pthread::decompress(&stream, &serial_cfg, workers)
                    .expect("pthread decompress");
                (out.len(), BTreeMap::new())
            })
        }
        "dec-culzss-v1" => {
            gpu_decode_cell(Version::V1, DecodeEngine::Serial, engine, dataset, data, cfg, probe)
        }
        "dec-culzss-v2" => {
            gpu_decode_cell(Version::V2, DecodeEngine::Serial, engine, dataset, data, cfg, probe)
        }
        "dec-culzss-v3" => {
            gpu_decode_cell(Version::V3, DecodeEngine::Serial, engine, dataset, data, cfg, probe)
        }
        "dec-culzss-warp" => gpu_decode_cell(
            Version::V1,
            DecodeEngine::WarpParallel,
            engine,
            dataset,
            data,
            cfg,
            probe,
        ),
        "dec-bzip2" => {
            let stream = culzss_bzip2::compress_with(
                data,
                culzss_bzip2::BZ_BLOCK_SIZE,
                culzss_bzip2::bwt::Backend::SaIs,
            )
            .expect("bzip2 compress");
            decode_measure(engine, dataset, stream.len(), cfg, probe, || {
                let out = culzss_bzip2::decompress(&stream).expect("bzip2 decompress");
                (out.len(), BTreeMap::new())
            })
        }
        "dec-server" => {
            // End-to-end decode path: the service compresses the corpus
            // once (untimed), then decompress jobs run through admission →
            // batch window → simulated GPU → ticket resolution.
            let service = Service::start(ServerConfig::default());
            let ticket = service
                .submit(JobSpec::compress("bench", data.to_vec()))
                .expect("bench compress admitted");
            let stream = ticket.wait().expect("bench compress completes").output;
            let mut cell = decode_measure(engine, dataset, stream.len(), cfg, probe, || {
                let ticket = service
                    .submit(JobSpec::decompress("bench", stream.clone()))
                    .expect("bench decompress admitted");
                let outcome = ticket.wait().expect("bench decompress completes");
                (outcome.output.len(), BTreeMap::new())
            });
            let stats = service.shutdown();
            for (name, value) in [
                ("queue_wait_seconds", stats.queue_wait_seconds),
                ("service_seconds", stats.service_seconds),
                ("verify_seconds", stats.verify_seconds),
                ("modeled_h2d_seconds", stats.modeled_h2d_seconds),
                ("modeled_kernel_seconds", stats.modeled_kernel_seconds),
                ("modeled_d2h_seconds", stats.modeled_d2h_seconds),
                ("modeled_cpu_seconds", stats.modeled_cpu_seconds),
            ] {
                cell.counters.insert(name.into(), value);
            }
            cell
        }
        other => panic!("unknown decode engine {other:?}"),
    }
}

/// One reused-instance GPU decode cell: compress once untimed, then time
/// `decompress` with the requested engine. The cost-model counters come
/// from the final rep's decode launch, so `cycles` gates the decode
/// kernel exactly like the compression cells gate theirs.
fn gpu_decode_cell(
    version: Version,
    decode_engine: DecodeEngine,
    engine: &str,
    dataset: Dataset,
    data: &[u8],
    cfg: &SuiteCfg,
    probe: AllocProbe,
) -> Cell {
    let culzss =
        Culzss::new(version).with_workers(GPU_SIM_WORKERS).with_decode_engine(decode_engine);
    let (stream, _) = culzss.compress(data).expect("gpu compress");
    let mut cell = decode_measure(engine, dataset, stream.len(), cfg, probe, || {
        let (out, stats) = culzss.decompress(&stream).expect("gpu decompress");
        let mut counters: BTreeMap<String, f64> = stats
            .launch
            .as_ref()
            .map(|launch| launch.counters().into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            .unwrap_or_default();
        counters.insert("cpu_seconds".into(), stats.cpu_seconds);
        counters.insert("h2d_seconds".into(), stats.h2d_seconds);
        counters.insert("d2h_seconds".into(), stats.d2h_seconds);
        // Decode has no modelled host pass, so this is always zero and
        // pipeline_cycles equals cycles; exported anyway so the decode
        // and encode cells carry the same counter schema.
        counters.insert("host_cycles".into(), stats.host_cycles);
        if let Some(cycles) = counters.get("cycles").copied() {
            counters.insert("pipeline_cycles".into(), cycles + stats.host_cycles);
        }
        (out.len(), counters)
    });
    let pool = culzss.pool_stats();
    cell.counters.insert("pool_acquires".into(), pool.acquires as f64);
    cell.counters.insert("pool_reuses".into(), pool.reuses as f64);
    cell
}

/// [`measure`] twin for decode cells: `input_bytes` is the compressed
/// stream length, `output_bytes` the decoded plaintext, `throughput_mbps`
/// is *decoded* MB/s (output-based — the number CODAG-style decode tables
/// report), and `ratio` stays compressed/uncompressed so the column is
/// directly comparable with the encode cells.
fn decode_measure<F: FnMut() -> (usize, BTreeMap<String, f64>)>(
    engine: &str,
    dataset: Dataset,
    stream_len: usize,
    cfg: &SuiteCfg,
    probe: AllocProbe,
    mut run: F,
) -> Cell {
    let reps = cfg.reps.max(1);
    let mut output_bytes = 0usize;
    let mut counters = BTreeMap::new();
    let mut wall = f64::INFINITY;
    let mut alloc = (0u64, 0u64);
    let mut total = 0.0f64;
    let mut rep = 0usize;
    while rep < reps || (total < MIN_MEASURE_SECONDS && rep < MAX_DECODE_REPS) {
        let before = probe();
        let started = std::time::Instant::now();
        let (len, c) = run();
        let elapsed = started.elapsed().as_secs_f64();
        let after = probe();
        wall = wall.min(elapsed);
        total += elapsed;
        alloc = (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1));
        output_bytes = len;
        counters = c;
        rep += 1;
    }
    Cell {
        engine: engine.into(),
        corpus: dataset.slug().into(),
        input_bytes: stream_len as u64,
        output_bytes: output_bytes as u64,
        wall_seconds: wall,
        throughput_mbps: if wall > 0.0 { output_bytes as f64 / 1e6 / wall } else { 0.0 },
        ratio: if output_bytes > 0 { stream_len as f64 / output_bytes as f64 } else { 0.0 },
        alloc_bytes: alloc.0,
        alloc_count: alloc.1,
        counters,
    }
}

/// Measures the dedup front end through a cache-enabled service on the
/// incremental-edits corpus ([`DEDUP_ENGINES`]):
///
/// * `dedup-cold` — every rep submits a base snapshot from a fresh seed,
///   so no segment is ever in cache: the price of the full compression
///   path plus chunking/hashing overhead.
/// * `dedup-warm` — the service is primed with edit generation 1, then
///   generation 2 is submitted repeatedly: the first rep pays for the
///   edited segments, later reps are served almost entirely from cache.
///   Best-of-reps therefore reports the warmed steady state, and the
///   exported hit/miss counters cover the incremental first rep too.
fn dedup_cells(cfg: &SuiteCfg, probe: AllocProbe, filter: &GridFilter) -> Vec<Cell> {
    let corpus = Dataset::IncrementalEdits.slug();
    let mut cells = Vec::new();
    if filter.admits("dedup-cold", corpus) {
        let service = dedup_service(cfg);
        let cell = measure_dedup("dedup-cold", cfg, probe, &service, |rep| {
            // A fresh base snapshot every rep: nothing is ever cached.
            edits::snapshot(cfg.bytes, cfg.seed ^ ((rep as u64 + 1) << 32), 1)
        });
        cells.push(finish_dedup_cell(cell, service));
    }
    if filter.admits("dedup-warm", corpus) {
        let service = dedup_service(cfg);
        let prime = edits::snapshot(cfg.bytes, cfg.seed, 1);
        let ticket =
            service.submit(JobSpec::compress("bench-dedup", prime)).expect("prime admitted");
        ticket.wait().expect("prime completes");
        let cell = measure_dedup("dedup-warm", cfg, probe, &service, |_rep| {
            edits::snapshot(cfg.bytes, cfg.seed, 2)
        });
        cells.push(finish_dedup_cell(cell, service));
    }
    // The headline number as a first-class counter on the warm cell.
    if let [cold, warm] = &mut cells[..] {
        if cold.throughput_mbps > 0.0 {
            warm.counters
                .insert("warm_over_cold".into(), warm.throughput_mbps / cold.throughput_mbps);
        }
    }
    cells
}

fn dedup_service(cfg: &SuiteCfg) -> Service {
    Service::start(ServerConfig {
        // Generous byte budget: the warm cell must never evict the
        // priming generation's segments mid-measurement.
        cache: Some((4 * cfg.bytes).max(64 << 20)),
        // Byte-identity of the cached path is pinned by the dedup
        // differential tests; verifying here would time decompression,
        // not the cache.
        verify_outputs: false,
        ..ServerConfig::default()
    })
}

/// [`measure`] variant whose payload is rebuilt per rep *outside* the
/// timed region (the cold cell needs unseen content each rep). Input and
/// output sizes are recorded from rep 0, so the reported ratio does not
/// depend on how many adaptive reps the host's speed allowed.
fn measure_dedup<F: FnMut(usize) -> Vec<u8>>(
    engine: &str,
    cfg: &SuiteCfg,
    probe: AllocProbe,
    service: &Service,
    mut payload: F,
) -> Cell {
    // At least two reps: the warm cell's rep 0 still compresses the
    // edited segments, and best-of-reps must see a fully-warm pass.
    let reps = cfg.reps.max(2);
    let mut input_bytes = 0u64;
    let mut output_bytes = 0u64;
    let mut wall = f64::INFINITY;
    let mut alloc = (0u64, 0u64);
    let mut total = 0.0f64;
    let mut rep = 0usize;
    while rep < reps || (total < MIN_MEASURE_SECONDS && rep < MAX_REPS) {
        let data = payload(rep);
        let len = data.len() as u64;
        let before = probe();
        let started = std::time::Instant::now();
        let ticket =
            service.submit(JobSpec::compress("bench-dedup", data)).expect("dedup job admitted");
        let outcome = ticket.wait().expect("dedup job completes");
        let elapsed = started.elapsed().as_secs_f64();
        let after = probe();
        wall = wall.min(elapsed);
        total += elapsed;
        alloc = (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1));
        if rep == 0 {
            input_bytes = len;
            output_bytes = outcome.output.len() as u64;
        }
        rep += 1;
    }
    Cell {
        engine: engine.into(),
        corpus: Dataset::IncrementalEdits.slug().into(),
        input_bytes,
        output_bytes,
        wall_seconds: wall,
        throughput_mbps: if wall > 0.0 { input_bytes as f64 / 1e6 / wall } else { 0.0 },
        ratio: if input_bytes > 0 { output_bytes as f64 / input_bytes as f64 } else { 0.0 },
        alloc_bytes: alloc.0,
        alloc_count: alloc.1,
        counters: BTreeMap::new(),
    }
}

/// Folds the service's cache counters into the finished cell. Extra
/// counters never fail the gate, so baselines without them stay valid.
fn finish_dedup_cell(mut cell: Cell, service: Service) -> Cell {
    let stats = service.shutdown();
    cell.counters.insert("cache_hits".into(), stats.cache_hits as f64);
    cell.counters.insert("cache_misses".into(), stats.cache_misses as f64);
    cell.counters.insert("cache_bytes_saved".into(), stats.cache_bytes_saved as f64);
    cell.counters.insert("cache_evictions".into(), stats.cache_evictions as f64);
    cell.counters.insert("cache_hit_rate".into(), stats.cache_hit_rate());
    cell
}

/// Measures the service-level-objective cell ([`SLO_ENGINES`]): one
/// closed-loop load-generator run against a default multi-device service
/// using the production-skewed profile — Zipf job counts across tenants,
/// bounded-Pareto payload sizes, burst/calm phases. The cell's wall time
/// and throughput cover the whole run (it is a saturation measurement,
/// not a single-pass one), and the latency SLOs ride as counters:
/// `p50_seconds` / `p99_seconds` are exact client-observed quantiles
/// over every completed job. The comparator gates `p99_seconds` against
/// the baseline after machine-speed normalization (see
/// [`crate::report::Tolerances::slo_p99_rise_frac`]); the wall-noisy
/// ratio/throughput columns of this cell are exempt from the standard
/// per-corpus gates.
fn slo_cells(cfg: &SuiteCfg, probe: AllocProbe, filter: &GridFilter) -> Vec<Cell> {
    if !filter.admits(SLO_ENGINE, SLO_CORPUS) {
        return Vec::new();
    }
    let service = Service::start(ServerConfig::default());
    let load_cfg = LoadGenConfig {
        tenants: 6,
        jobs_per_tenant: 24,
        payload_bytes: (cfg.bytes / 16).clamp(4 * 1024, 256 * 1024),
        decompress_every: 3,
        window: 4,
        seed: cfg.seed,
        deadline: None,
        profile: LoadProfile::Skewed,
    };
    let before = probe();
    let load = loadgen::run(&service, &load_cfg);
    let after = probe();
    let stats = service.shutdown();
    let mut counters = BTreeMap::new();
    for (name, value) in [
        ("p50_seconds", load.latency_quantile(0.50)),
        ("p99_seconds", load.latency_quantile(0.99)),
        ("mean_seconds", load.mean_latency_seconds()),
        ("max_seconds", load.latency_max_seconds),
        ("completed", load.completed as f64),
        ("failed", load.failed as f64),
        ("rejected", load.rejected as f64),
        ("abandoned", load.abandoned as f64),
        ("steals", stats.steals as f64),
        ("stolen_jobs", stats.stolen_jobs as f64),
        ("borrows", stats.borrows as f64),
        ("queue_wait_seconds", stats.queue_wait_seconds),
        ("service_seconds", stats.service_seconds),
    ] {
        counters.insert(name.to_string(), value);
    }
    vec![Cell {
        engine: SLO_ENGINE.into(),
        corpus: SLO_CORPUS.into(),
        input_bytes: load.bytes_in,
        output_bytes: load.bytes_out,
        wall_seconds: load.wall_seconds,
        throughput_mbps: if load.wall_seconds > 0.0 {
            load.bytes_in as f64 / 1e6 / load.wall_seconds
        } else {
            0.0
        },
        // The job mix includes decompression, so bytes out can exceed
        // bytes in; the column is informational for this cell (the
        // comparator exempts it).
        ratio: if load.bytes_in > 0 { load.bytes_out as f64 / load.bytes_in as f64 } else { 0.0 },
        alloc_bytes: after.0.saturating_sub(before.0),
        alloc_count: after.1.saturating_sub(before.1),
        counters,
    }]
}

/// Cheap cells keep re-running until this much total time is measured
/// (or [`MAX_REPS`] is hit): the minimum of many short runs is far less
/// noise-prone than the minimum of `cfg.reps` 2 ms runs.
pub const MIN_MEASURE_SECONDS: f64 = 0.5;

/// Upper bound on adaptive repetitions per cell.
pub const MAX_REPS: usize = 25;

/// Upper bound on adaptive repetitions per *decode* cell. Decoding is
/// 1–3 orders of magnitude faster than encoding, so at the encode cap
/// of [`MAX_REPS`] a sub-millisecond decode cell can never reach the
/// [`MIN_MEASURE_SECONDS`] floor and its minimum gates on scheduler
/// jitter — which is fatal for `dec-serial`, the cell every other
/// decode cell's throughput is normalized against. The higher cap
/// still bounds a decode cell at roughly the floor itself.
pub const MAX_DECODE_REPS: usize = 1000;

/// Times `run` (best of `cfg.reps`, adaptively extended for sub-noise
/// cells), counting heap traffic across the *final* rep — for pooled
/// engines that is the steady state, which is the number the arena
/// optimization moves.
fn measure<F: FnMut() -> (usize, BTreeMap<String, f64>)>(
    engine: &str,
    dataset: Dataset,
    data: &[u8],
    cfg: &SuiteCfg,
    probe: AllocProbe,
    mut run: F,
) -> Cell {
    let reps = cfg.reps.max(1);
    let mut output_bytes = 0usize;
    let mut counters = BTreeMap::new();
    let mut wall = f64::INFINITY;
    let mut alloc = (0u64, 0u64);
    let mut total = 0.0f64;
    let mut rep = 0usize;
    while rep < reps || (total < MIN_MEASURE_SECONDS && rep < MAX_REPS) {
        let before = probe();
        let started = std::time::Instant::now();
        let (len, c) = run();
        let elapsed = started.elapsed().as_secs_f64();
        let after = probe();
        wall = wall.min(elapsed);
        total += elapsed;
        alloc = (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1));
        output_bytes = len;
        counters = c;
        rep += 1;
    }

    let input_bytes = data.len() as u64;
    Cell {
        engine: engine.into(),
        corpus: dataset.slug().into(),
        input_bytes,
        output_bytes: output_bytes as u64,
        wall_seconds: wall,
        throughput_mbps: if wall > 0.0 { input_bytes as f64 / 1e6 / wall } else { 0.0 },
        ratio: if input_bytes > 0 { output_bytes as f64 / input_bytes as f64 } else { 0.0 },
        alloc_bytes: alloc.0,
        alloc_count: alloc.1,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuiteCfg {
        SuiteCfg { bytes: 8 * 1024, seed: 11, reps: 1, smoke: true }
    }

    #[test]
    fn suite_covers_every_engine_and_corpus() {
        let report = run_suite(&tiny(), NO_PROBE, vec!["test".into()]);
        assert_eq!(
            report.cells.len(),
            (ENGINES.len() + DECODE_ENGINES.len()) * Dataset::ALL.len()
                + DEDUP_ENGINES.len()
                + SLO_ENGINES.len()
        );
        for engine in DEDUP_ENGINES {
            assert!(report.cell(engine, "incremental-edits").is_some(), "{engine}");
        }
        assert!(report.cell(SLO_ENGINE, SLO_CORPUS).is_some());
        for dataset in Dataset::ALL {
            for engine in ENGINES {
                let cell = report
                    .cell(engine, dataset.slug())
                    .unwrap_or_else(|| panic!("missing {engine}/{}", dataset.slug()));
                assert!(cell.wall_seconds > 0.0, "{engine}/{}", dataset.slug());
                assert!(cell.throughput_mbps > 0.0, "{engine}/{}", dataset.slug());
                assert!(
                    cell.ratio > 0.0 && cell.ratio < 2.0,
                    "{engine}/{}: ratio {}",
                    dataset.slug(),
                    cell.ratio
                );
                assert_eq!(cell.input_bytes, 8 * 1024);
            }
            for engine in DECODE_ENGINES {
                let cell = report
                    .cell(engine, dataset.slug())
                    .unwrap_or_else(|| panic!("missing {engine}/{}", dataset.slug()));
                assert!(cell.wall_seconds > 0.0, "{engine}/{}", dataset.slug());
                assert!(cell.throughput_mbps > 0.0, "{engine}/{}", dataset.slug());
                // Decode cells decode the whole corpus back and keep the
                // stream's compression ratio in the ratio column.
                assert_eq!(cell.output_bytes, 8 * 1024, "{engine}/{}", dataset.slug());
                assert!(
                    cell.ratio > 0.0 && cell.ratio < 2.0,
                    "{engine}/{}: ratio {}",
                    dataset.slug(),
                    cell.ratio
                );
            }
        }
        // And the whole thing serializes and parses back.
        let parsed = Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn gpu_cells_export_cost_model_counters() {
        let cfg = tiny();
        let data = Dataset::CFiles.generate(cfg.bytes, cfg.seed);
        for engine in ["culzss-v1", "culzss-v2", "culzss-v3"] {
            let cell = run_cell(engine, Dataset::CFiles, &data, &cfg, NO_PROBE);
            for name in [
                "cycles",
                "work_cycles",
                "global_transactions",
                "pool_acquires",
                "host_cycles",
                "pipeline_cycles",
            ] {
                let v = cell.counters.get(name).unwrap_or_else(|| panic!("{engine}: {name}"));
                assert!(v.is_finite() && *v >= 0.0, "{engine}: {name} = {v}");
            }
            // pipeline_cycles is exactly kernel + host pass.
            let expect = cell.counters["cycles"] + cell.counters["host_cycles"];
            assert_eq!(cell.counters["pipeline_cycles"], expect, "{engine}");
            // V3 moves the selection pass onto the device; V1/V2 pay a
            // modelled host pass.
            if engine == "culzss-v3" {
                assert_eq!(cell.counters["host_cycles"], 0.0);
            } else {
                assert!(cell.counters["host_cycles"] > 0.0, "{engine}");
            }
        }
        let serial = run_cell("serial", Dataset::CFiles, &data, &cfg, NO_PROBE);
        assert!(serial.counters.is_empty());
    }

    #[test]
    fn v3_byte_identity_and_pipeline_cycle_win() {
        // The V3 acceptance claim at suite level: byte-identical streams
        // to V2 on every corpus, and fewer total modelled pipeline
        // cycles (kernel + host pass) on at least 3 of the 5. The cycle
        // counters are deterministic, so this is noise-free.
        let cfg = tiny();
        let mut wins = Vec::new();
        for dataset in Dataset::ALL {
            let data = dataset.generate(cfg.bytes, cfg.seed);
            let v2 = run_cell("culzss-v2", dataset, &data, &cfg, NO_PROBE);
            let v3 = run_cell("culzss-v3", dataset, &data, &cfg, NO_PROBE);
            assert_eq!(v2.output_bytes, v3.output_bytes, "{}", dataset.slug());
            assert_eq!(v2.ratio, v3.ratio, "{}", dataset.slug());
            if v3.counters["pipeline_cycles"] < v2.counters["pipeline_cycles"] {
                wins.push(dataset.slug());
            }
        }
        assert!(wins.len() >= 3, "v3 won only on {wins:?}");
    }

    #[test]
    fn server_cell_exports_stage_counters() {
        let cfg = tiny();
        let data = Dataset::CFiles.generate(cfg.bytes, cfg.seed);
        let cell = run_cell("server", Dataset::CFiles, &data, &cfg, NO_PROBE);
        for name in [
            "queue_wait_seconds",
            "service_seconds",
            "verify_seconds",
            "modeled_h2d_seconds",
            "modeled_kernel_seconds",
            "modeled_d2h_seconds",
            "modeled_cpu_seconds",
        ] {
            let v = cell.counters.get(name).unwrap_or_else(|| panic!("server: {name}"));
            assert!(v.is_finite() && *v >= 0.0, "server: {name} = {v}");
        }
        assert!(cell.counters["service_seconds"] > 0.0);
        // The stage counters ride along as extras: a baseline without
        // them still compares clean against this cell.
        let mut bare = cell.clone();
        bare.counters.clear();
        let wrap = |cells: Vec<Cell>| Report {
            schema_version: SCHEMA_VERSION,
            tool: "test".into(),
            bytes: cfg.bytes as u64,
            seed: cfg.seed,
            reps: cfg.reps as u64,
            smoke: cfg.smoke,
            commands: Vec::new(),
            engines_filter: Vec::new(),
            corpora_filter: Vec::new(),
            cells,
        };
        let (current, baseline) = (wrap(vec![cell]), wrap(vec![bare]));
        let regressions = compare(&current, &baseline, &Tolerances::default());
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn grid_filter_parses_and_rejects() {
        let f = GridFilter::parse(Some("serial, culzss-v1"), Some("c-files")).unwrap();
        assert!(f.admits("serial", "c-files"));
        assert!(!f.admits("serial", "de-map"));
        assert!(!f.admits("bzip2", "c-files"));
        assert!(GridFilter::parse(Some("dedup-warm"), None)
            .unwrap()
            .admits("dedup-warm", "de-map"));
        assert!(GridFilter::parse(Some("dec-culzss-warp,dec-serial"), None)
            .unwrap()
            .admits("dec-culzss-warp", "c-files"));
        assert!(GridFilter::parse(Some("server-slo"), None)
            .unwrap()
            .admits(SLO_ENGINE, SLO_CORPUS));
        assert!(GridFilter::default().admits("anything", "anywhere"));
        assert!(GridFilter::parse(Some("warp-drive"), None)
            .unwrap_err()
            .contains("unknown engine"));
        assert!(GridFilter::parse(None, Some("nope")).unwrap_err().contains("unknown corpus"));
    }

    #[test]
    fn filtered_suite_runs_only_the_requested_cells() {
        let filter = GridFilter::parse(Some("serial,serial-hash"), Some("de-map")).unwrap();
        let report = run_suite_filtered(&tiny(), NO_PROBE, vec!["test".into()], &filter);
        assert_eq!(report.cells.len(), 2);
        assert!(report.cell("serial", "de-map").is_some());
        assert!(report.cell("serial-hash", "de-map").is_some());
        assert_eq!(report.engines_filter, vec!["serial", "serial-hash"]);
        assert_eq!(report.corpora_filter, vec!["de-map"]);
        // A full-grid baseline gates clean against the filtered run: the
        // missing cells are skipped, the present ones still compared.
        let baseline = run_suite(&tiny(), NO_PROBE, vec!["test".into()]);
        let failures = compare(
            &report,
            &baseline,
            &Tolerances { throughput_drop_frac: 1e9, ..Tolerances::default() },
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn dedup_cells_measure_the_cache_path() {
        let cfg = SuiteCfg { bytes: 192 * 1024, seed: 7, reps: 1, smoke: true };
        let filter = GridFilter::parse(Some("dedup-cold,dedup-warm"), None).unwrap();
        let report = run_suite_filtered(&cfg, NO_PROBE, vec!["test".into()], &filter);
        assert_eq!(report.cells.len(), 2);
        let cold = report.cell("dedup-cold", "incremental-edits").expect("cold cell");
        let warm = report.cell("dedup-warm", "incremental-edits").expect("warm cell");
        // Cold never reuses anything across reps; warm is primed, so its
        // steady state is served from cache.
        assert!(cold.counters["cache_misses"] > 0.0);
        assert!(warm.counters["cache_hits"] > 0.0, "{:?}", warm.counters);
        assert!(warm.counters["cache_hit_rate"] > 0.2, "{:?}", warm.counters);
        assert!(warm.counters["cache_bytes_saved"] > 0.0);
        let speedup = warm.counters["warm_over_cold"];
        assert!(speedup.is_finite() && speedup > 0.0, "{speedup}");
        // Both cells compressed the same corpus shape: sane ratios.
        for cell in [cold, warm] {
            assert!(cell.ratio > 0.0 && cell.ratio < 1.5, "{}: {}", cell.engine, cell.ratio);
            assert_eq!(cell.input_bytes, 192 * 1024);
        }
    }

    #[test]
    fn slo_cell_measures_the_skewed_load_run() {
        let filter = GridFilter::parse(Some("server-slo"), None).unwrap();
        let report = run_suite_filtered(&tiny(), NO_PROBE, vec!["test".into()], &filter);
        assert_eq!(report.cells.len(), 1);
        let cell = report.cell(SLO_ENGINE, SLO_CORPUS).expect("slo cell");
        assert!(cell.wall_seconds > 0.0);
        assert!(cell.input_bytes > 0);
        for name in [
            "p50_seconds",
            "p99_seconds",
            "mean_seconds",
            "max_seconds",
            "completed",
            "failed",
            "rejected",
            "abandoned",
            "steals",
            "borrows",
            "queue_wait_seconds",
            "service_seconds",
        ] {
            let v = cell.counters.get(name).unwrap_or_else(|| panic!("slo: {name}"));
            assert!(v.is_finite() && *v >= 0.0, "slo: {name} = {v}");
        }
        // Every job finishes: no deadlines, no faults, unlimited tenant
        // rate by default.
        assert!(cell.counters["completed"] > 0.0);
        assert_eq!(cell.counters["failed"], 0.0);
        assert_eq!(cell.counters["abandoned"], 0.0);
        // Quantiles are ordered and real observations.
        assert!(cell.counters["p50_seconds"] <= cell.counters["p99_seconds"]);
        assert!(cell.counters["p99_seconds"] <= cell.counters["max_seconds"]);
        assert!(cell.counters["p50_seconds"] > 0.0);
    }

    #[test]
    fn gpu_decode_cells_export_cost_model_counters() {
        let cfg = tiny();
        let data = Dataset::CFiles.generate(cfg.bytes, cfg.seed);
        for engine in ["dec-culzss-v1", "dec-culzss-v2", "dec-culzss-v3", "dec-culzss-warp"] {
            let cell = decode_cell(engine, Dataset::CFiles, &data, &cfg, NO_PROBE);
            for name in ["cycles", "work_cycles", "global_transactions", "pool_acquires"] {
                let v = cell.counters.get(name).unwrap_or_else(|| panic!("{engine}: {name}"));
                assert!(v.is_finite() && *v >= 0.0, "{engine}: {name} = {v}");
            }
            assert_eq!(cell.output_bytes, cfg.bytes as u64, "{engine}");
        }
        let serial = decode_cell("dec-serial", Dataset::CFiles, &data, &cfg, NO_PROBE);
        assert!(serial.counters.is_empty());
    }

    #[test]
    fn warp_decode_beats_serial_block_decode_on_cycles() {
        // The tentpole claim, pinned at suite level: on at least 3 of the
        // 5 corpora the warp-parallel decoder costs ≤ half the modelled
        // cycles of the paper-faithful serial block decoder. (Cycle
        // counters are deterministic, so this is noise-free.)
        let cfg = tiny();
        let mut wins = Vec::new();
        for dataset in Dataset::ALL {
            let data = dataset.generate(cfg.bytes, cfg.seed);
            let serial = decode_cell("dec-culzss-v1", dataset, &data, &cfg, NO_PROBE);
            let warp = decode_cell("dec-culzss-warp", dataset, &data, &cfg, NO_PROBE);
            if warp.counters["cycles"] * 2.0 <= serial.counters["cycles"] {
                wins.push(dataset.slug());
            }
        }
        assert!(wins.len() >= 3, "warp decode won only on {wins:?}");
    }

    #[test]
    fn decode_cells_flip_the_byte_conventions() {
        let cfg = tiny();
        let data = Dataset::CFiles.generate(cfg.bytes, cfg.seed);
        let enc = run_cell("serial", Dataset::CFiles, &data, &cfg, NO_PROBE);
        let dec = decode_cell("dec-serial", Dataset::CFiles, &data, &cfg, NO_PROBE);
        // Same stream seen from both sides: the encode cell's output is
        // the decode cell's input, and the ratio column agrees.
        assert_eq!(dec.input_bytes, enc.output_bytes);
        assert_eq!(dec.output_bytes, enc.input_bytes);
        assert!((dec.ratio - enc.ratio).abs() < 1e-12);
    }

    #[test]
    fn hash_chain_cell_is_byte_identical_to_brute() {
        let cfg = tiny();
        for dataset in Dataset::ALL {
            let data = dataset.generate(cfg.bytes, cfg.seed);
            let brute = run_cell("serial", dataset, &data, &cfg, NO_PROBE);
            let hash = run_cell("serial-hash", dataset, &data, &cfg, NO_PROBE);
            assert_eq!(brute.output_bytes, hash.output_bytes, "{}", dataset.slug());
            assert_eq!(brute.ratio, hash.ratio, "{}", dataset.slug());
        }
    }
}
