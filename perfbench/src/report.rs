//! Result assembly: order statistics, seeded input derivation, the
//! in-memory span recorder of the traced runs, and the one-line JSON
//! result the benchmark prints last.

use std::collections::BTreeMap;
use std::time::Instant;

use culzss_server::SpanRecord;

use crate::alloc;

/// SplitMix64 step: derives independent per-item seeds from the run
/// seed, so item `i` of a workload is the same whatever else runs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile `q` of `samples`, linearly interpolated between the two
/// nearest ranks of the sorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over a byte string: cheap fingerprint for the repeat checks.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Metric name → (value, unit), in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.iter().all(|(n, ..)| n != name), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    /// Adds every metric of `other`.
    pub fn absorb(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.put(&name, value, unit);
        }
    }

    /// The metrics in the order of `listed`, the (name, unit) pairs of
    /// `BENCHMARK.json`, which must be exactly the metrics reported.
    pub fn ordered(mut self, listed: &[(String, String)]) -> Metrics {
        let mut ordered = Vec::with_capacity(listed.len());
        for (name, unit) in listed {
            let i = self.0.iter().position(|(n, ..)| n == name);
            let metric = self.0.swap_remove(i.unwrap_or_else(|| panic!("{name} not reported")));
            assert_eq!(metric.2, unit, "unit of {name}");
            ordered.push(metric);
        }
        assert!(self.0.is_empty(), "unlisted metrics reported: {:?}", self.0);
        Metrics(ordered)
    }
}

/// Operation accounting of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// A run-level check (not an operation) that did not hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Rust's `{}` for `f64` prints the shortest string that parses back to
/// the same bits, so exact metrics compare exactly across runs.
pub fn result_json(outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Time and heap bytes attributed to one layer.
#[derive(Default, Clone, Copy)]
pub struct LayerTotal {
    pub seconds: f64,
    pub alloc_bytes: u64,
}

/// Process lane of the benchmark's own spans in the Chrome trace, apart
/// from the service's lanes (1 to 4, and devices from 10).
const TRACE_PID: u64 = 5;

/// In-memory span recorder of a traced run. Spans are kept as
/// [`SpanRecord`]s on one lane per operation (`tid`), so the service's
/// Chrome-trace writer can serialize them when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRecord>,
    layers: BTreeMap<&'static str, LayerTotal>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), layers: BTreeMap::new() }
    }

    fn record(&mut self, name: &str, tid: u64, start: Instant, end: Instant) {
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        let end_us = end.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(SpanRecord {
            name: name.to_string(),
            cat: "host".into(),
            pid: TRACE_PID,
            tid,
            start_us,
            dur_us: end_us - start_us,
            args: Vec::new(),
        });
    }

    /// Runs `f` as one span of `layer` on lane `tid`, adding its wall
    /// time and the heap bytes allocated meanwhile to the layer.
    pub fn span<T>(&mut self, layer: &'static str, tid: u64, f: impl FnOnce() -> T) -> T {
        let before = alloc::allocated();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let allocated = alloc::allocated() - before;
        self.record(layer, tid, start, end);
        let total = self.layers.entry(layer).or_default();
        total.seconds += (end - start).as_secs_f64();
        total.alloc_bytes += allocated;
        out
    }

    /// Records the parent span of one whole traced operation.
    pub fn op(&mut self, name: &str, tid: u64, start: Instant, end: Instant) {
        self.record(name, tid, start, end);
    }

    pub fn layer(&self, layer: &str) -> LayerTotal {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Sum of every layer's span time.
    pub fn attributed_seconds(&self) -> f64 {
        self.layers.values().map(|l| l.seconds).sum()
    }
}
