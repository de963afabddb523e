//! Machine-readable benchmark reports and the regression comparator.
//!
//! The `bench` binary emits one [`Report`] per run as JSON
//! (`BENCH_<timestamp>.json`): a versioned header describing how the run
//! was produced, plus one [`Cell`] per engine × corpus with wall time,
//! throughput, compression ratio, allocation counters, and — for the GPU
//! engines — the cost-model counters exported by
//! `culzss_gpusim::exec::LaunchStats::counters`.
//!
//! The workspace builds offline with no serde. The report lays out its
//! own pretty-printed JSON and reads it back through the workspace's one
//! JSON codec, [`culzss_server::json`]: its escaper quotes every string
//! and its reader parses the whole report before any field is read.
//!
//! [`compare`] implements the CI gate. Throughput is compared *per
//! corpus relative to the serial brute-force cell* of the same report:
//! that cell acts as a machine-speed calibration, so a uniformly slower
//! CI host does not trip the gate, while a change that slows one engine
//! relative to the others does. The calibration cell itself is gated on
//! ratio and presence only. Decompression cells (`dec-*` engines) form
//! their own family, normalized against the serial CPU decoder
//! ([`DECODE_REFERENCE_ENGINE`]) — decode and encode throughputs scale
//! differently with host speed, so each family calibrates against its
//! own serial cell. The deterministic `cycles` gate applies to any cell
//! that exports the counter, decode kernels included.
//!
//! GPU cells (`culzss-*`, `dec-culzss-*`) are also gated on allocated
//! heap bytes per input byte ([`ALLOC_RISE_FRAC`]): the
//! simulator's host-side churn is deterministic for a given input, so a
//! rise beyond the tolerance means new per-access allocation, not noise.
//!
//! One cross-engine check rides along: whenever a run measures both
//! `culzss-v2` and `culzss-v3` with `pipeline_cycles` counters on at
//! least [`V3_PIPELINE_WIN_MIN`] common corpora, V3 must cost fewer
//! total modelled pipeline cycles (kernel + host pass) than V2 on at
//! least that many of them — the V3 engine's paper-style acceptance
//! criterion, gated on every CI run rather than pinned once.
//!
//! The [`SLO_ENGINE`] cell is gated separately: its `p99_seconds`
//! counter (client-observed tail latency of a skewed closed-loop load
//! run) may not rise more than [`Tolerances::slo_p99_rise_frac`] over
//! the baseline after machine-speed normalization, while its
//! ratio/throughput columns — artifacts of the mixed job mix — are
//! exempt from the standard per-corpus gates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use culzss_server::json::{Object, Str, Value};

/// Current schema version; bump when a field is renamed or removed
/// (adding fields is backwards-compatible and does not bump it).
pub const SCHEMA_VERSION: u64 = 1;

/// The engine whose throughput calibrates all others in the same corpus.
pub const REFERENCE_ENGINE: &str = "serial";

/// The calibration cell of the decompression family: every `dec-*`
/// cell's throughput is normalized against the serial CPU decoder of
/// the same corpus before gating.
pub const DECODE_REFERENCE_ENGINE: &str = "dec-serial";

/// Which calibration cell gates this engine's throughput.
fn reference_engine(engine: &str) -> &'static str {
    if engine.starts_with("dec-") {
        DECODE_REFERENCE_ENGINE
    } else {
        REFERENCE_ENGINE
    }
}

/// The service-level-objective cell's engine id: a closed-loop skewed
/// multi-tenant load run whose client-observed latency quantiles ride
/// as counters (`p50_seconds`, `p99_seconds`). The cell is exempt from
/// the per-corpus ratio/throughput gates (its job mix makes both
/// columns informational) and is gated on tail latency instead — see
/// [`Tolerances::slo_p99_rise_frac`].
pub const SLO_ENGINE: &str = "server-slo";

/// The synthetic corpus label of the SLO cell (the load generator mixes
/// every real corpus, so the cell does not belong to any one of them).
pub const SLO_CORPUS: &str = "skewed-load";

/// One engine × corpus measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Engine id (`serial`, `serial-hash`, `pthread`, `culzss-v1`,
    /// `culzss-v2`, `bzip2`, `server`).
    pub engine: String,
    /// Corpus slug (`culzss_datasets::Dataset::slug`).
    pub corpus: String,
    /// Input bytes fed to the engine.
    pub input_bytes: u64,
    /// Compressed output bytes.
    pub output_bytes: u64,
    /// Best-of-reps wall-clock seconds for one compression pass.
    pub wall_seconds: f64,
    /// `input_bytes / wall_seconds`, in MB/s (10^6 bytes).
    pub throughput_mbps: f64,
    /// `output_bytes / input_bytes` (smaller is better).
    pub ratio: f64,
    /// Heap bytes allocated during the measured pass (0 when the run
    /// had no allocation probe installed).
    pub alloc_bytes: u64,
    /// Heap allocations during the measured pass.
    pub alloc_count: u64,
    /// Cost-model counters (GPU engines only; empty otherwise). Sorted
    /// by name so reports diff cleanly.
    pub counters: BTreeMap<String, f64>,
}

impl Cell {
    /// Stable lookup key.
    pub fn key(&self) -> (String, String) {
        (self.engine.clone(), self.corpus.clone())
    }
}

/// A full benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Producing tool id (`culzss-bench/bench`).
    pub tool: String,
    /// Bytes per generated corpus.
    pub bytes: u64,
    /// Corpus generator seed.
    pub seed: u64,
    /// Repetitions (minimum kept).
    pub reps: u64,
    /// Whether this was a smoke-sized run.
    pub smoke: bool,
    /// Command lines that produced this report (and any companion
    /// artifacts regenerated in the same run).
    pub commands: Vec<String>,
    /// Engine ids this run was restricted to; empty means the full
    /// grid. [`compare`] treats baseline cells outside the restriction
    /// as skipped, not missing.
    pub engines_filter: Vec<String>,
    /// Corpus slugs this run was restricted to; empty means all.
    pub corpora_filter: Vec<String>,
    /// Measurements, in suite order.
    pub cells: Vec<Cell>,
}

impl Report {
    /// Looks a cell up by engine and corpus.
    pub fn cell(&self, engine: &str, corpus: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.engine == engine && c.corpus == corpus)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.cells.len() * 512);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"tool\": {},", Str(&self.tool));
        let _ = writeln!(out, "  \"bytes\": {},", self.bytes);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        write_str_arr(&mut out, "commands", &self.commands);
        write_str_arr(&mut out, "engines_filter", &self.engines_filter);
        write_str_arr(&mut out, "corpora_filter", &self.corpora_filter);
        out.push_str("  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"engine\": {},", Str(&cell.engine));
            let _ = writeln!(out, "      \"corpus\": {},", Str(&cell.corpus));
            let _ = writeln!(out, "      \"input_bytes\": {},", cell.input_bytes);
            let _ = writeln!(out, "      \"output_bytes\": {},", cell.output_bytes);
            let _ = writeln!(out, "      \"wall_seconds\": {},", json_num(cell.wall_seconds));
            let _ = writeln!(out, "      \"throughput_mbps\": {},", json_num(cell.throughput_mbps));
            let _ = writeln!(out, "      \"ratio\": {},", json_num(cell.ratio));
            let _ = writeln!(out, "      \"alloc_bytes\": {},", cell.alloc_bytes);
            let _ = writeln!(out, "      \"alloc_count\": {},", cell.alloc_count);
            out.push_str("      \"counters\": {");
            for (j, (name, value)) in cell.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        {}: {}", Str(name), json_num(*value));
            }
            out.push_str(if cell.counters.is_empty() { "}\n" } else { "\n      }\n" });
            out.push_str("    }");
        }
        out.push_str(if self.cells.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// Parses a report previously written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = Value::parse(text)?;
        let obj = value.as_obj("report")?;
        let schema_version = obj.get_num("schema_version")? as u64;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "report schema v{schema_version} is newer than this binary (v{SCHEMA_VERSION})"
            ));
        }
        let mut cells = Vec::new();
        for (i, cell) in obj.get("cells")?.as_arr("cells")?.iter().enumerate() {
            let c = cell.as_obj(&format!("cells[{i}]"))?;
            let mut counters = BTreeMap::new();
            for (name, v) in &c.get("counters")?.as_obj("counters")?.fields {
                counters.insert(name.clone(), v.as_num(name)?);
            }
            cells.push(Cell {
                engine: c.get_str("engine")?.to_string(),
                corpus: c.get_str("corpus")?.to_string(),
                input_bytes: c.get_num("input_bytes")? as u64,
                output_bytes: c.get_num("output_bytes")? as u64,
                wall_seconds: c.get_num("wall_seconds")?,
                throughput_mbps: c.get_num("throughput_mbps")?,
                ratio: c.get_num("ratio")?,
                alloc_bytes: c.get_num("alloc_bytes")? as u64,
                alloc_count: c.get_num("alloc_count")? as u64,
                counters,
            });
        }
        let mut commands = Vec::new();
        for (i, cmd) in obj.get("commands")?.as_arr("commands")?.iter().enumerate() {
            commands.push(cmd.as_str(&format!("commands[{i}]"))?.to_string());
        }
        Ok(Report {
            schema_version,
            tool: obj.get_str("tool")?.to_string(),
            bytes: obj.get_num("bytes")? as u64,
            seed: obj.get_num("seed")? as u64,
            reps: obj.get_num("reps")? as u64,
            smoke: obj.get("smoke")?.as_bool("smoke")?,
            commands,
            // Filters were added after v1 baselines were first written;
            // absence means "full grid" so old reports keep parsing.
            engines_filter: opt_str_arr(obj, "engines_filter")?,
            corpora_filter: opt_str_arr(obj, "corpora_filter")?,
            cells,
        })
    }

    /// Whether this run's subset filters admit the given engine × corpus
    /// cell. An empty filter admits everything on that axis.
    pub fn covers(&self, engine: &str, corpus: &str) -> bool {
        (self.engines_filter.is_empty() || self.engines_filter.iter().any(|e| e == engine))
            && (self.corpora_filter.is_empty() || self.corpora_filter.iter().any(|c| c == corpus))
    }
}

fn write_str_arr(out: &mut String, key: &str, items: &[String]) {
    let _ = write!(out, "  {}: [", Str(key));
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}", Str(item));
    }
    out.push_str(if items.is_empty() { "],\n" } else { "\n  ],\n" });
}

/// Parses an optional array-of-strings field; a missing key is an empty
/// list (fields added after v1 must not break older reports).
fn opt_str_arr(obj: &Object, key: &str) -> Result<Vec<String>, String> {
    let Some(value) = obj.field(key) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for (i, item) in value.as_arr(key)?.iter().enumerate() {
        out.push(item.as_str(&format!("{key}[{i}]"))?.to_string());
    }
    Ok(out)
}

/// Formats a finite number so it round-trips through the parser; JSON has
/// no NaN/Inf, so non-finite values degrade to 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Comparator (the CI gate).
// ---------------------------------------------------------------------------

/// Per-metric tolerances of the regression gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum allowed drop of a cell's *normalized* throughput
    /// (relative to the same report's serial calibration cell) versus
    /// the baseline, as a fraction. 0.10 ⇒ fail below 90 % of baseline.
    pub throughput_drop_frac: f64,
    /// Maximum allowed absolute drift of the compression ratio in
    /// either direction. Ratios are deterministic, so this catches any
    /// change to the compressed byte stream.
    pub ratio_abs: f64,
    /// Maximum allowed relative *increase* of the `cycles` cost-model
    /// counter on cells that export it (the GPU engines). The counter
    /// is deterministic — same input, same cycles — so this tolerance
    /// only absorbs intentional small cost-model recalibrations, not
    /// host noise. Getting cheaper never fails.
    pub cycles_rise_frac: f64,
    /// Maximum allowed relative rise of the [`SLO_ENGINE`] cell's
    /// `p99_seconds` counter versus the baseline, after machine-speed
    /// normalization against the serial calibration cells. Tail latency
    /// under a contended closed-loop run is far noisier than a
    /// best-of-reps wall time, so the default is generous — the gate
    /// exists to catch scheduling regressions that multiply the tail,
    /// not single-digit-percent drift. Getting faster never fails.
    pub slo_p99_rise_frac: f64,
}

/// Maximum allowed relative rise of a GPU cell's (`culzss-*`,
/// `dec-culzss-*`) allocated bytes per input byte versus the baseline, on
/// top of [`ALLOC_SLACK_B_PER_B`]. Allocation does not depend on host
/// speed, so the tolerance is tight next to the 20–100× churn the gate
/// exists to keep out. Allocating less never fails; cells measured
/// without an allocation probe (0 bytes on either side) are skipped.
pub const ALLOC_RISE_FRAC: f64 = 0.25;

/// Absolute headroom of the allocation gate, in bytes per input byte:
/// keeps cells that allocate almost nothing (V1 at well under 1 B/B) from
/// failing on a few per-launch buffers.
pub const ALLOC_SLACK_B_PER_B: f64 = 1.0;

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            throughput_drop_frac: 0.10,
            ratio_abs: 0.005,
            cycles_rise_frac: 0.02,
            slo_p99_rise_frac: 0.50,
        }
    }
}

/// One gate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Offending engine.
    pub engine: String,
    /// Offending corpus.
    pub corpus: String,
    /// Metric that breached (`missing-cell`, `throughput`, `ratio`,
    /// `cycles`, `alloc`, `pipeline-cycles`, `slo-p99`).
    pub metric: String,
    /// Human-readable explanation with the numbers.
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} / {}: {}", self.metric, self.engine, self.corpus, self.detail)
    }
}

/// Cell-wise merge of two runs of the same suite: for each cell the
/// faster measurement (higher throughput, i.e. lower minimum wall) wins
/// whole — allocation counts and counters travel with the winning
/// measurement. Used by the gate's retry pass to absorb transient host
/// load spikes that span one run's cells.
pub fn merge_best(mut a: Report, b: Report) -> Report {
    for cell_b in b.cells {
        match a.cells.iter_mut().find(|c| c.engine == cell_b.engine && c.corpus == cell_b.corpus) {
            Some(cell_a) => {
                if cell_b.throughput_mbps > cell_a.throughput_mbps {
                    *cell_a = cell_b;
                }
            }
            None => a.cells.push(cell_b),
        }
    }
    a
}

/// Gates `current` against `baseline`. Every baseline cell that the
/// current run's `--engines`/`--corpora` filters admit must exist in the
/// current report; baseline cells outside the filters are skipped, not
/// failed. Throughput is compared per corpus normalized to
/// [`REFERENCE_ENGINE`] ([`DECODE_REFERENCE_ENGINE`] for `dec-*` cells);
/// ratios are compared absolutely. Extra cells in `current` (new
/// engines/corpora) never fail the gate.
pub fn compare(current: &Report, baseline: &Report, tol: &Tolerances) -> Vec<Regression> {
    let mut failures = Vec::new();
    for base in &baseline.cells {
        if !current.covers(&base.engine, &base.corpus) {
            continue; // excluded by this run's subset filters: skipped
        }
        let Some(cur) = current.cell(&base.engine, &base.corpus) else {
            failures.push(Regression {
                engine: base.engine.clone(),
                corpus: base.corpus.clone(),
                metric: "missing-cell".into(),
                detail: format!(
                    "cell present in baseline but absent from this run; if that is \
                     intentional, regenerate the baseline, or restrict the run with \
                     `{}` so the comparator skips it",
                    engines_filter_hint(current)
                ),
            });
            continue;
        };

        if base.engine == SLO_ENGINE {
            // The SLO cell's ratio mixes decompression outputs and its
            // throughput covers a whole contended run; both are
            // informational. Presence is checked above, tail latency by
            // the dedicated gate below.
            continue;
        }

        if (cur.ratio - base.ratio).abs() > tol.ratio_abs {
            failures.push(Regression {
                engine: base.engine.clone(),
                corpus: base.corpus.clone(),
                metric: "ratio".into(),
                detail: format!(
                    "ratio {:.4} vs baseline {:.4} (tolerance ±{:.4})",
                    cur.ratio, base.ratio, tol.ratio_abs
                ),
            });
        }

        if let (Some(cur_cycles), Some(base_cycles)) =
            (cur.counters.get("cycles"), base.counters.get("cycles"))
        {
            if *base_cycles > 0.0 && cur_cycles > &(base_cycles * (1.0 + tol.cycles_rise_frac)) {
                failures.push(Regression {
                    engine: base.engine.clone(),
                    corpus: base.corpus.clone(),
                    metric: "cycles".into(),
                    detail: format!(
                        "modeled cycles {cur_cycles:.3e} vs baseline {base_cycles:.3e} \
                         (tolerance +{:.0} %)",
                        tol.cycles_rise_frac * 100.0
                    ),
                });
            }
        }

        if let Some(failure) = alloc_gate(cur, base) {
            failures.push(failure);
        }

        let reference = reference_engine(&base.engine);
        if base.engine == reference {
            continue; // the calibration cells are not gated on throughput
        }
        let (Some(cur_ref), Some(base_ref)) =
            (current.cell(reference, &base.corpus), baseline.cell(reference, &base.corpus))
        else {
            continue; // no calibration cell: missing-cell already reported
        };
        if cur_ref.throughput_mbps <= 0.0 || base_ref.throughput_mbps <= 0.0 {
            continue;
        }
        let cur_rel = cur.throughput_mbps / cur_ref.throughput_mbps;
        let base_rel = base.throughput_mbps / base_ref.throughput_mbps;
        if cur_rel < base_rel * (1.0 - tol.throughput_drop_frac) {
            failures.push(Regression {
                engine: base.engine.clone(),
                corpus: base.corpus.clone(),
                metric: "throughput".into(),
                detail: format!(
                    "normalized throughput {:.3}× {reference} vs baseline {:.3}× \
                     (tolerance −{:.0} %; raw {:.2} vs {:.2} MB/s)",
                    cur_rel,
                    base_rel,
                    tol.throughput_drop_frac * 100.0,
                    cur.throughput_mbps,
                    base.throughput_mbps,
                ),
            });
        }
    }
    if let Some(failure) = v3_pipeline_gate(current) {
        failures.push(failure);
    }
    if let Some(failure) = slo_gate(current, baseline, tol) {
        failures.push(failure);
    }
    failures
}

/// The allocation gate on one simulated-GPU cell (`culzss-*`,
/// `dec-culzss-*`, whose host cost is the simulator's): allocated bytes
/// per input byte may not exceed the baseline's by more than
/// [`ALLOC_RISE_FRAC`] plus [`ALLOC_SLACK_B_PER_B`].
fn alloc_gate(cur: &Cell, base: &Cell) -> Option<Regression> {
    let gpu = base.engine.starts_with("culzss-") || base.engine.starts_with("dec-culzss-");
    if !gpu || [cur, base].iter().any(|c| c.alloc_bytes == 0 || c.input_bytes == 0) {
        return None;
    }
    let per_byte = |c: &Cell| c.alloc_bytes as f64 / c.input_bytes as f64;
    let (cur_bpb, base_bpb) = (per_byte(cur), per_byte(base));
    let limit = base_bpb * (1.0 + ALLOC_RISE_FRAC) + ALLOC_SLACK_B_PER_B;
    if cur_bpb <= limit {
        return None;
    }
    Some(Regression {
        engine: base.engine.clone(),
        corpus: base.corpus.clone(),
        metric: "alloc".into(),
        detail: format!(
            "allocated {cur_bpb:.1} B per input byte vs baseline {base_bpb:.1} \
             (tolerance +{:.0} % + {ALLOC_SLACK_B_PER_B} B/B; {} vs {} bytes)",
            ALLOC_RISE_FRAC * 100.0,
            cur.alloc_bytes,
            base.alloc_bytes,
        ),
    })
}

/// The tail-latency gate on the [`SLO_ENGINE`] cell: the current run's
/// `p99_seconds` may not rise more than [`Tolerances::slo_p99_rise_frac`]
/// over the baseline's, after each side is normalized by its own mean
/// serial-calibration throughput (over the corpora both reports
/// measured) — so a uniformly slower CI host does not trip the gate,
/// while a scheduling change that multiplies the tail does. Runs or
/// baselines without the cell (or without any common calibration cell,
/// where the raw values are compared instead) skip gracefully.
fn slo_gate(current: &Report, baseline: &Report, tol: &Tolerances) -> Option<Regression> {
    if !current.covers(SLO_ENGINE, SLO_CORPUS) {
        return None; // filtered out of this run: skipped, not failed
    }
    let base = baseline.cell(SLO_ENGINE, SLO_CORPUS)?;
    let cur = current.cell(SLO_ENGINE, SLO_CORPUS)?; // absence already reported
    let base_p99 = *base.counters.get("p99_seconds")?;
    let cur_p99 = *cur.counters.get("p99_seconds")?;

    // Machine-speed calibration: mean serial throughput over corpora
    // present in both reports. p99 × machine speed is roughly
    // host-invariant (a 2× slower host doubles latency and halves the
    // calibration throughput).
    let mut cur_speed = 0.0;
    let mut base_speed = 0.0;
    let mut common = 0usize;
    for c in &current.cells {
        if c.engine != REFERENCE_ENGINE || c.throughput_mbps <= 0.0 {
            continue;
        }
        let Some(b) = baseline.cell(REFERENCE_ENGINE, &c.corpus) else { continue };
        if b.throughput_mbps <= 0.0 {
            continue;
        }
        cur_speed += c.throughput_mbps;
        base_speed += b.throughput_mbps;
        common += 1;
    }
    let (cur_norm, base_norm) = if common > 0 {
        (cur_p99 * cur_speed / common as f64, base_p99 * base_speed / common as f64)
    } else {
        (cur_p99, base_p99)
    };
    if base_norm <= 0.0 || cur_norm <= base_norm * (1.0 + tol.slo_p99_rise_frac) {
        return None;
    }
    Some(Regression {
        engine: SLO_ENGINE.into(),
        corpus: SLO_CORPUS.into(),
        metric: "slo-p99".into(),
        detail: format!(
            "normalized p99 latency {cur_norm:.4} vs baseline {base_norm:.4} \
             (tolerance +{:.0} %; raw {:.1} vs {:.1} ms)",
            tol.slo_p99_rise_frac * 100.0,
            cur_p99 * 1e3,
            base_p99 * 1e3,
        ),
    })
}

/// Minimum number of corpora on which `culzss-v3` must beat `culzss-v2`
/// on total modelled pipeline cycles — the acceptance criterion the V3
/// engine shipped with (fewer kernel + host-pass cycles on at least 3
/// of the paper's 5 corpora).
pub const V3_PIPELINE_WIN_MIN: usize = 3;

/// The nearest `--engines` filter that matches what this run actually
/// measured; suggested when a baseline cell goes missing from an
/// unfiltered run (the usual cause: the run was narrowed by editing the
/// suite instead of passing a filter, so the comparator cannot tell a
/// skip from a loss).
fn engines_filter_hint(current: &Report) -> String {
    let mut engines: Vec<&str> = current.cells.iter().map(|c| c.engine.as_str()).collect();
    engines.sort_unstable();
    engines.dedup();
    if engines.is_empty() {
        "--engines <engine-list>".into()
    } else {
        format!("--engines {}", engines.join(","))
    }
}

/// The cross-engine V3 acceptance gate (see [`compare`]): on runs that
/// measure both `culzss-v2` and `culzss-v3` with `pipeline_cycles` on at
/// least [`V3_PIPELINE_WIN_MIN`] common corpora, V3 must win that many.
/// Runs with less common coverage (filtered runs, old baselines without
/// the counter) skip the check rather than fail it.
fn v3_pipeline_gate(current: &Report) -> Option<Regression> {
    let pairs: Vec<(&str, f64, f64)> = current
        .cells
        .iter()
        .filter(|c| c.engine == "culzss-v2")
        .filter_map(|v2| {
            let v3 = current.cell("culzss-v3", &v2.corpus)?;
            Some((
                v2.corpus.as_str(),
                *v2.counters.get("pipeline_cycles")?,
                *v3.counters.get("pipeline_cycles")?,
            ))
        })
        .collect();
    if pairs.len() < V3_PIPELINE_WIN_MIN {
        return None;
    }
    let wins = pairs.iter().filter(|(_, v2, v3)| v3 < v2).count();
    if wins >= V3_PIPELINE_WIN_MIN {
        return None;
    }
    let mut detail = format!(
        "culzss-v3 must beat culzss-v2 on total pipeline cycles on ≥{V3_PIPELINE_WIN_MIN} \
         corpora, won {wins}/{}:",
        pairs.len()
    );
    for (corpus, v2, v3) in &pairs {
        let _ = write!(
            detail,
            " {corpus} v3={v3:.3e} vs v2={v2:.3e} ({})",
            if v3 < v2 { "win" } else { "LOSS" }
        );
    }
    Some(Regression {
        engine: "culzss-v3".into(),
        corpus: "*".into(),
        metric: "pipeline-cycles".into(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(engine: &str, corpus: &str, mbps: f64, ratio: f64) -> Cell {
        Cell {
            engine: engine.into(),
            corpus: corpus.into(),
            input_bytes: 1 << 20,
            output_bytes: (ratio * (1 << 20) as f64) as u64,
            wall_seconds: (1 << 20) as f64 / 1e6 / mbps,
            throughput_mbps: mbps,
            ratio,
            alloc_bytes: 0,
            alloc_count: 0,
            counters: BTreeMap::new(),
        }
    }

    fn report(cells: Vec<Cell>) -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            tool: "culzss-bench/bench".into(),
            bytes: 1 << 20,
            seed: 7,
            reps: 1,
            smoke: true,
            commands: vec!["bench --smoke".into()],
            engines_filter: Vec::new(),
            corpora_filter: Vec::new(),
            cells,
        }
    }

    fn two_engine_report(serial_mbps: f64, v1_mbps: f64) -> Report {
        report(vec![
            cell("serial", "c-files", serial_mbps, 0.55),
            cell("culzss-v1", "c-files", v1_mbps, 0.60),
        ])
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut c = cell("culzss-v1", "de-map", 123.456, 0.339);
        c.counters.insert("cycles".into(), 1.25e9);
        c.counters.insert("occupancy".into(), 0.875);
        c.alloc_bytes = 12_345;
        c.alloc_count = 67;
        let mut r = report(vec![c, cell("serial", "de-map", 2.5, 0.339)]);
        r.commands.push("quotes \" and\nnewlines \\ survive".into());
        r.engines_filter = vec!["culzss-v1".into(), "serial".into()];
        r.corpora_filter = vec!["de-map".into()];
        let parsed = Report::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_BASELINE.json");
        let parsed = Report::from_json(text).expect("parse");
        assert!(!parsed.cells.is_empty());
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn reports_without_filter_fields_still_parse() {
        // Baselines written before the subset filters existed have no
        // filter fields; they must parse as unfiltered full-grid runs.
        let r = two_engine_report(2.0, 40.0);
        let json: String = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("engines_filter") && !l.contains("corpora_filter"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = Report::from_json(&json).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn empty_collections_round_trip() {
        let r = report(Vec::new());
        let parsed = Report::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed.cells.len(), 0);
        assert_eq!(parsed, r);
    }

    #[test]
    fn parser_rejects_newer_schema_and_garbage() {
        let mut r = report(Vec::new());
        r.schema_version = SCHEMA_VERSION + 1;
        assert!(Report::from_json(&r.to_json()).unwrap_err().contains("newer"));
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").unwrap_err().contains("schema_version"));
        assert!(Report::from_json("{\"schema_version\": 1} trailing").is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = two_engine_report(2.0, 40.0);
        assert!(compare(&r, &r, &Tolerances::default()).is_empty());
    }

    #[test]
    fn uniform_machine_slowdown_passes() {
        // Both engines 3× slower (a slower CI host): normalization keeps
        // the gate green.
        let baseline = two_engine_report(3.0, 60.0);
        let current = two_engine_report(1.0, 20.0);
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());
    }

    #[test]
    fn fifteen_percent_engine_regression_fails() {
        let baseline = two_engine_report(2.0, 40.0);
        let current = two_engine_report(2.0, 40.0 * 0.85);
        let failures = compare(&current, &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "throughput");
        assert_eq!(failures[0].engine, "culzss-v1");
        // Within tolerance: 5 % down passes.
        let ok = two_engine_report(2.0, 40.0 * 0.95);
        assert!(compare(&ok, &baseline, &Tolerances::default()).is_empty());
    }

    #[test]
    fn ratio_drift_fails_in_both_directions() {
        let baseline = two_engine_report(2.0, 40.0);
        for delta in [0.006, -0.006] {
            let mut current = two_engine_report(2.0, 40.0);
            current.cells[1].ratio += delta;
            let failures = compare(&current, &baseline, &Tolerances::default());
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert_eq!(failures[0].metric, "ratio");
        }
    }

    #[test]
    fn cycle_count_increase_fails_deterministically() {
        let mut baseline = two_engine_report(2.0, 40.0);
        baseline.cells[1].counters.insert("cycles".into(), 1.0e9);
        // Same cycles (and same noisy wall): pass.
        let mut current = baseline.clone();
        current.cells[1].throughput_mbps = 39.0;
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());
        // 5 % more modeled cycles: fail, regardless of wall time.
        current.cells[1].counters.insert("cycles".into(), 1.05e9);
        let failures = compare(&current, &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "cycles");
        // Getting cheaper never fails.
        current.cells[1].counters.insert("cycles".into(), 0.5e9);
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());
    }

    #[test]
    fn gpu_allocation_rise_fails_and_cpu_cells_are_exempt() {
        let mut baseline = report(vec![
            cell("serial", "c-files", 2.0, 0.55),
            cell("culzss-v3", "c-files", 0.6, 0.55),
            cell("dec-culzss-warp", "c-files", 3.0, 0.55),
        ]);
        for c in &mut baseline.cells {
            c.alloc_bytes = 20 * c.input_bytes;
        }
        // Within tolerance (20 → 25 B/B ≤ 20 × 1.25 + 1): pass.
        let mut current = baseline.clone();
        for c in &mut current.cells {
            c.alloc_bytes = 25 * c.input_bytes;
        }
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());
        // Churn comes back on the GPU cells: both fail, serial does not.
        for c in &mut current.cells {
            c.alloc_bytes = 200 * c.input_bytes;
        }
        let failures = compare(&current, &baseline, &Tolerances::default());
        let gated: Vec<(&str, &str)> =
            failures.iter().map(|f| (f.engine.as_str(), f.metric.as_str())).collect();
        assert_eq!(gated, [("culzss-v3", "alloc"), ("dec-culzss-warp", "alloc")]);
        assert!(failures[0].detail.contains("200.0 B per input byte"), "{}", failures[0]);
        // No probe on either side: skipped, not failed.
        current.cells[1].alloc_bytes = 0;
        baseline.cells[2].alloc_bytes = 0;
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());
        // The slack keeps near-zero cells from failing on a few buffers.
        let mut tiny = baseline.clone();
        tiny.cells[1].alloc_bytes = tiny.cells[1].input_bytes / 4;
        let mut grown = tiny.clone();
        grown.cells[1].alloc_bytes = tiny.cells[1].input_bytes;
        assert!(compare(&grown, &tiny, &Tolerances::default()).is_empty());
    }

    #[test]
    fn missing_cell_fails_and_extra_cell_passes() {
        let baseline = two_engine_report(2.0, 40.0);
        let mut current = two_engine_report(2.0, 40.0);
        current.cells.retain(|c| c.engine != "culzss-v1");
        let failures = compare(&current, &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].metric, "missing-cell");
        assert!(failures[0].to_string().contains("culzss-v1"));
        // The failure names the filter that would make the comparator
        // skip the missing cell instead of failing it.
        assert!(
            failures[0].detail.contains("--engines serial"),
            "no filter hint in {:?}",
            failures[0].detail
        );

        let mut extra = two_engine_report(2.0, 40.0);
        extra.cells.push(cell("new-engine", "c-files", 1.0, 0.9));
        assert!(compare(&extra, &baseline, &Tolerances::default()).is_empty());
    }

    #[test]
    fn v3_pipeline_gate_requires_three_wins() {
        let corpora = ["c-files", "de-map", "dictionary", "kernel-tarball", "highly-compressible"];
        let with_cycles = |engine: &str, corpus: &str, pipeline: f64| {
            let mut c = cell(engine, corpus, 10.0, 0.5);
            c.counters.insert("pipeline_cycles".into(), pipeline);
            c
        };
        let paired = |v3_cycles: [f64; 5]| {
            let mut cells = Vec::new();
            for (i, corpus) in corpora.iter().enumerate() {
                cells.push(with_cycles("culzss-v2", corpus, 1.0e6));
                cells.push(with_cycles("culzss-v3", corpus, v3_cycles[i]));
            }
            report(cells)
        };
        let empty = report(Vec::new());

        // 5/5 and exactly 3/5 wins pass.
        let all_wins = paired([0.5e6; 5]);
        assert!(compare(&all_wins, &empty, &Tolerances::default()).is_empty());
        let three = paired([0.5e6, 0.5e6, 0.5e6, 2.0e6, 2.0e6]);
        assert!(compare(&three, &empty, &Tolerances::default()).is_empty());

        // 2/5 wins fail with the per-corpus breakdown in the detail.
        let two = paired([0.5e6, 0.5e6, 2.0e6, 2.0e6, 2.0e6]);
        let failures = compare(&two, &empty, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "pipeline-cycles");
        assert_eq!(failures[0].engine, "culzss-v3");
        assert!(failures[0].detail.contains("won 2/5"), "{}", failures[0].detail);
        assert!(failures[0].detail.contains("dictionary"), "{}", failures[0].detail);
        assert!(failures[0].detail.contains("LOSS"), "{}", failures[0].detail);

        // Fewer than three common corpora (a filtered run): skipped.
        let mut narrow = paired([2.0e6; 5]);
        narrow.cells.truncate(4); // two v2/v3 pairs
        assert!(compare(&narrow, &empty, &Tolerances::default()).is_empty());

        // Cells without the counter (an old run) are not paired.
        let mut no_counters = paired([2.0e6; 5]);
        for c in &mut no_counters.cells {
            c.counters.clear();
        }
        assert!(compare(&no_counters, &empty, &Tolerances::default()).is_empty());
    }

    #[test]
    fn filtered_runs_skip_excluded_baseline_cells_instead_of_failing() {
        let baseline = two_engine_report(2.0, 40.0);

        // An engine filter: the serial cell is absent but excluded, so
        // skipped; the v1 cell is present and still gated (on ratio —
        // throughput gating needs the filtered-out calibration cell).
        let mut current = two_engine_report(2.0, 40.0);
        current.cells.retain(|c| c.engine == "culzss-v1");
        current.engines_filter = vec!["culzss-v1".into()];
        assert!(compare(&current, &baseline, &Tolerances::default()).is_empty());

        // A cell the filter admits but the run lacks still fails.
        current.cells.clear();
        let failures = compare(&current, &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "missing-cell");
        assert_eq!(failures[0].engine, "culzss-v1");

        // A corpus filter skips whole corpora the same way.
        let mut by_corpus = two_engine_report(2.0, 40.0);
        by_corpus.cells.clear();
        by_corpus.corpora_filter = vec!["de-map".into()];
        assert!(compare(&by_corpus, &baseline, &Tolerances::default()).is_empty());

        // And ratio regressions inside the filter are still caught.
        let mut bad = two_engine_report(2.0, 40.0);
        bad.cells.retain(|c| c.engine == "culzss-v1");
        bad.engines_filter = vec!["culzss-v1".into()];
        bad.cells[0].ratio += 0.02;
        let failures = compare(&bad, &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "ratio");
    }

    #[test]
    fn decode_cells_gate_against_their_own_calibration_cell() {
        let decode_report = |ref_mbps: f64, warp_mbps: f64| {
            report(vec![
                cell("serial", "c-files", 2.0, 0.55),
                cell("dec-serial", "c-files", ref_mbps, 0.55),
                cell("dec-culzss-warp", "c-files", warp_mbps, 0.60),
            ])
        };
        let baseline = decode_report(10.0, 80.0);

        // A uniformly slower host slows both decode cells: pass.
        assert!(compare(&decode_report(5.0, 40.0), &baseline, &Tolerances::default()).is_empty());

        // The warp decoder regressing 15 % relative to dec-serial fails,
        // even though the encode-side serial cell is unchanged.
        let failures =
            compare(&decode_report(10.0, 80.0 * 0.85), &baseline, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "throughput");
        assert_eq!(failures[0].engine, "dec-culzss-warp");
        assert!(failures[0].detail.contains("dec-serial"), "{}", failures[0].detail);

        // The decode calibration cell itself is not throughput-gated.
        assert!(compare(&decode_report(100.0, 800.0), &baseline, &Tolerances::default()).is_empty());

        // And a decode kernel's modeled cycles are gated deterministically.
        let mut base_cycles = decode_report(10.0, 80.0);
        base_cycles.cells[2].counters.insert("cycles".into(), 1.0e9);
        let mut cur_cycles = base_cycles.clone();
        cur_cycles.cells[2].counters.insert("cycles".into(), 1.05e9);
        let failures = compare(&cur_cycles, &base_cycles, &Tolerances::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "cycles");
        assert_eq!(failures[0].engine, "dec-culzss-warp");
    }

    #[test]
    fn slo_cell_gates_on_normalized_p99_only() {
        let slo = |p99: f64| {
            let mut c = cell(SLO_ENGINE, SLO_CORPUS, 10.0, 1.2);
            c.counters.insert("p50_seconds".into(), p99 / 4.0);
            c.counters.insert("p99_seconds".into(), p99);
            c
        };
        let with_serial = |serial_mbps: f64, p99: f64| {
            report(vec![cell("serial", "c-files", serial_mbps, 0.55), slo(p99)])
        };
        let tol = Tolerances::default();
        let baseline = with_serial(2.0, 0.100);

        // Identical and mildly worse (within the 50 % tolerance) pass.
        assert!(compare(&with_serial(2.0, 0.100), &baseline, &tol).is_empty());
        assert!(compare(&with_serial(2.0, 0.140), &baseline, &tol).is_empty());

        // A uniformly slower host doubles p99 but halves the serial
        // calibration cell too: normalization keeps the gate green.
        assert!(compare(&with_serial(1.0, 0.200), &baseline, &tol).is_empty());

        // A real tail blow-up on the same-speed host fails.
        let failures = compare(&with_serial(2.0, 0.200), &baseline, &tol);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "slo-p99");
        assert_eq!(failures[0].engine, SLO_ENGINE);

        // The SLO cell's ratio and throughput columns are exempt from
        // the standard per-corpus gates.
        let mut drift = with_serial(2.0, 0.100);
        drift.cells[1].ratio = 0.3;
        drift.cells[1].throughput_mbps = 0.5;
        assert!(compare(&drift, &baseline, &tol).is_empty());

        // But a missing SLO cell is still a missing cell.
        let mut gone = with_serial(2.0, 0.100);
        gone.cells.truncate(1);
        let failures = compare(&gone, &baseline, &tol);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].metric, "missing-cell");
        assert_eq!(failures[0].engine, SLO_ENGINE);

        // A baseline without the cell (pre-SLO) skips the gate.
        let old = report(vec![cell("serial", "c-files", 2.0, 0.55)]);
        assert!(compare(&with_serial(2.0, 5.0), &old, &tol).is_empty());

        // A run filtered away from the cell skips it too.
        let mut narrow = with_serial(2.0, 0.100);
        narrow.cells.truncate(1);
        narrow.engines_filter = vec!["serial".into()];
        assert!(compare(&narrow, &baseline, &tol).is_empty());
    }

    #[test]
    fn merge_best_keeps_the_faster_cell_and_unions() {
        let a = two_engine_report(2.0, 40.0);
        let mut b = two_engine_report(2.5, 30.0);
        b.cells.push(cell("bzip2", "c-files", 9.0, 0.3));
        let merged = merge_best(a, b);
        assert_eq!(merged.cell("serial", "c-files").unwrap().throughput_mbps, 2.5);
        assert_eq!(merged.cell("culzss-v1", "c-files").unwrap().throughput_mbps, 40.0);
        assert_eq!(merged.cell("bzip2", "c-files").unwrap().throughput_mbps, 9.0);
        assert_eq!(merged.cells.len(), 3);
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        let mut r = two_engine_report(2.0, 40.0);
        r.cells[0].throughput_mbps = f64::INFINITY;
        let parsed = Report::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed.cells[0].throughput_mbps, 0.0);
    }
}
