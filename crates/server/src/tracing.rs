//! Structured request tracing: spans from admission to delivery, merged
//! with the modelled GPU timelines into one Chrome-trace export.
//!
//! Every job leaves a trail of spans on its own lane (`pid` 1, `tid` =
//! job id): a `request` span covering admission → resolution, nesting
//! `queue_wait` (admission → batch dequeue), `execute` (worker time,
//! itself nesting the modelled `h2d`/`kernel`/`d2h`/`cpu` stages on the
//! GPU path), and `verify` (the roundtrip gate). Batch windows get one
//! span per batch on `pid` 2 (`tid` = batch id), and each kernel launch
//! contributes its per-SM block spans on `pid` 10 + device (`tid` = SM),
//! anchored at the wall-clock instant its `kernel` stage span starts —
//! so one trace shows a request descending from the queue, through a
//! worker, onto the simulated SMs.
//!
//! Recording is cheap (one mutex push per span, bounded buffer) and
//! always on; export happens on demand via
//! [`crate::Service::trace_chrome_json`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use culzss_gpusim::trace::{write_chrome_trace, ChromeEvent, Timeline};
use parking_lot::Mutex;

/// Process lane of per-job host spans (`tid` = job id).
pub const SERVICE_PID: u64 = 1;
/// Process lane of batch-window spans (`tid` = batch id).
pub const BATCH_PID: u64 = 2;
/// Process lane of device-health events (`tid` = device index):
/// zero-duration spans marking circuit-breaker transitions.
pub const HEALTH_PID: u64 = 3;
/// Process lane of QoS events (`tid` = shard/device index):
/// zero-duration spans marking work-steal windows and token-bucket
/// permit borrows.
pub const QOS_PID: u64 = 4;
/// Device `d`'s modelled block spans live on `DEVICE_PID_BASE + d`.
pub const DEVICE_PID_BASE: u64 = 10;

/// Span-buffer bound: recording stops (and counts drops) beyond this,
/// so tracing can stay always-on without unbounded memory.
const SPAN_CAP: usize = 65_536;

/// One recorded span, timestamped in microseconds since the recorder's
/// epoch (the service start).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`request`, `queue_wait`, `execute`, …).
    pub name: String,
    /// Category: `host` (wall clock), `modelled` (cost-model time), or
    /// the block span categories from [`Timeline::block_events`].
    pub cat: String,
    /// Process lane.
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Start, µs since the service epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Labels (tenant, kind, engine, …).
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// End timestamp (µs since epoch).
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// The always-on span sink owned by a running service.
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl TraceRecorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()), dropped: AtomicU64::new(0) }
    }

    /// `t` as µs since the service epoch (0 for pre-epoch instants),
    /// rounded down to a multiple of 2⁻¹⁰ µs (just under a nanosecond).
    /// Such timestamps and their differences are exact in an `f64` for
    /// about 100 days, so `end_us()` (start + dur) reproduces a host
    /// span's end exactly: batch-mates, whose queue waits end at one
    /// dequeue instant, agree on it to the bit.
    pub fn instant_us(&self, t: Instant) -> f64 {
        let ns = t.saturating_duration_since(self.epoch).as_nanos();
        (ns * 1024 / 1000) as f64 / 1024.0
    }

    pub fn record(&self, span: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        spans.push(span);
    }

    /// Records a wall-clock span on a host lane.
    pub fn host_span(
        &self,
        name: &str,
        pid: u64,
        tid: u64,
        start: Instant,
        end: Instant,
        args: Vec<(String, String)>,
    ) {
        let start_us = self.instant_us(start);
        let end_us = self.instant_us(end).max(start_us);
        let dur_us = end_us - start_us;
        self.record(SpanRecord {
            name: name.into(),
            cat: "host".into(),
            pid,
            tid,
            start_us,
            dur_us,
            args,
        });
    }

    /// Records a cost-model stage span (`h2d`/`kernel`/`d2h`/`cpu`) on a
    /// job lane, anchored at wall-clock offset `start_us`.
    pub fn modelled_span(&self, name: &str, tid: u64, start_us: f64, dur_seconds: f64) {
        self.record(SpanRecord {
            name: name.into(),
            cat: "modelled".into(),
            pid: SERVICE_PID,
            tid,
            start_us,
            dur_us: (dur_seconds * 1e6).max(0.0),
            args: Vec::new(),
        });
    }

    /// Records a launch's modelled per-SM block spans on `device`'s
    /// lane, anchored at wall-clock offset `offset_us` (the start of the
    /// corresponding `kernel` stage span).
    pub fn block_spans(&self, device: usize, timeline: &Timeline, kernel: &str, offset_us: f64) {
        for event in timeline.block_events(kernel, DEVICE_PID_BASE + device as u64, offset_us) {
            self.record(SpanRecord {
                name: event.name,
                cat: event.cat,
                pid: event.pid,
                tid: event.tid,
                start_us: event.ts_us,
                dur_us: event.dur_us.unwrap_or(0.0),
                args: Vec::new(),
            });
        }
    }

    /// Records a circuit-breaker transition as a zero-duration span on
    /// the health lane (`tid` = device), labelled with the states.
    pub fn breaker_transition(&self, t: &crate::health::BreakerTransition) {
        let now_us = self.instant_us(Instant::now());
        self.record(SpanRecord {
            name: format!("breaker:{}->{}", t.from, t.to),
            cat: "host".into(),
            pid: HEALTH_PID,
            tid: t.device as u64,
            start_us: now_us,
            dur_us: 0.0,
            args: vec![
                ("seq".into(), t.seq.to_string()),
                ("device".into(), t.device.to_string()),
                ("from".into(), t.from.to_string()),
                ("to".into(), t.to.to_string()),
            ],
        });
    }

    /// Records a QoS event (work-steal window, permit borrow) as a
    /// zero-duration span on the QoS lane (`tid` = shard index).
    pub fn qos_event(&self, name: &str, shard: usize, args: &[(&str, String)]) {
        let now_us = self.instant_us(Instant::now());
        self.record(SpanRecord {
            name: name.to_string(),
            cat: "host".into(),
            pid: QOS_PID,
            tid: shard as u64,
            start_us: now_us,
            dur_us: 0.0,
            args: args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// The full trace as Chrome tracing JSON.
    pub fn chrome_json(&self) -> String {
        chrome_trace(&self.spans())
    }
}

/// Serializes `spans` as Chrome tracing JSON: host lanes become nested
/// `B`/`E` duration events (children clamped into their parents, lane
/// timestamps monotonic), device lanes become `X` complete events, plus
/// `M` metadata naming the process lanes.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut lanes: BTreeMap<(u64, u64), Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        lanes.entry((span.pid, span.tid)).or_default().push(span);
    }

    let mut events = Vec::new();
    let mut named_pids = std::collections::BTreeSet::new();
    for &(pid, _) in lanes.keys() {
        if !named_pids.insert(pid) {
            continue;
        }
        let name = match pid {
            SERVICE_PID => "culzss-service (jobs)".to_string(),
            BATCH_PID => "culzss-service (batches)".to_string(),
            HEALTH_PID => "culzss-service (device health)".to_string(),
            QOS_PID => "culzss-service (qos)".to_string(),
            p if p >= DEVICE_PID_BASE => format!("gpu{} (modelled SMs)", p - DEVICE_PID_BASE),
            p => format!("pid {p}"),
        };
        events.push(ChromeEvent::process_name(pid, &name));
    }

    for ((pid, tid), mut lane) in lanes {
        if pid >= DEVICE_PID_BASE {
            // Modelled block spans: complete events, no nesting needed.
            lane.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            for span in lane {
                events.push(ChromeEvent {
                    name: span.name.clone(),
                    cat: span.cat.clone(),
                    ph: 'X',
                    ts_us: span.start_us,
                    dur_us: Some(span.dur_us),
                    pid,
                    tid,
                    args: span.args.clone(),
                });
            }
            continue;
        }
        // Host lanes: sort so parents (earlier start, later end) precede
        // children, then emit a balanced B/E stream, clamping children
        // into their parents and keeping timestamps monotonic.
        lane.sort_by(|a, b| {
            a.start_us.total_cmp(&b.start_us).then(b.end_us().total_cmp(&a.end_us()))
        });
        let mut stack: Vec<(String, f64)> = Vec::new();
        let mut cursor = 0.0f64;
        let mut emit = |ph: char, name: &str, ts: f64, args: Vec<(String, String)>| {
            events.push(ChromeEvent {
                name: name.into(),
                cat: "host".into(),
                ph,
                ts_us: ts,
                dur_us: None,
                pid,
                tid,
                args,
            });
        };
        for span in lane {
            while let Some((name, end)) = stack.last().cloned() {
                if end <= span.start_us {
                    let ts = end.max(cursor);
                    emit('E', &name, ts, Vec::new());
                    cursor = ts;
                    stack.pop();
                } else {
                    break;
                }
            }
            let start = span.start_us.max(cursor);
            // A child cannot outlive its parent in the nesting model.
            let end = match stack.last() {
                Some((_, parent_end)) => span.end_us().min(*parent_end),
                None => span.end_us(),
            }
            .max(start);
            emit('B', &span.name, start, span.args.clone());
            cursor = start;
            stack.push((span.name.clone(), end));
        }
        while let Some((name, end)) = stack.pop() {
            let ts = end.max(cursor);
            emit('E', &name, ts, Vec::new());
            cursor = ts;
        }
    }

    write_chrome_trace(&events)
}

/// Schema check for an emitted trace: every lane's `B`/`E` events must
/// balance (LIFO, matching names) with monotonically non-decreasing
/// timestamps, and `X` events must carry non-negative durations.
/// Tailored to [`write_chrome_trace`]'s output (name field first,
/// strings fully escaped).
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let objects = split_events(json)?;
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for (i, obj) in objects.iter().enumerate() {
        let ph = field_string(obj, "ph").ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let ts = field_number(obj, "ts").ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = field_number(obj, "pid").ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = field_number(obj, "tid").ok_or_else(|| format!("event {i}: missing tid"))?;
        let name = field_string(obj, "name").ok_or_else(|| format!("event {i}: missing name"))?;
        let lane = (pid as u64, tid as u64);
        match ph.as_str() {
            "B" | "E" => {
                let last = last_ts.entry(lane).or_insert(f64::NEG_INFINITY);
                if ts < *last {
                    return Err(format!(
                        "event {i} ({name}): timestamp {ts} regressed below {last} on lane {lane:?}"
                    ));
                }
                *last = ts;
                let stack = stacks.entry(lane).or_default();
                if ph == "B" {
                    stack.push(name);
                } else {
                    match stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return Err(format!(
                                "event {i}: E \"{name}\" closes B \"{open}\" on lane {lane:?}"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "event {i}: E \"{name}\" without an open B on lane {lane:?}"
                            ));
                        }
                    }
                }
            }
            "X" => {
                let dur =
                    field_number(obj, "dur").ok_or_else(|| format!("event {i}: X missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative duration {dur}"));
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (lane, stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("lane {lane:?}: unclosed B \"{open}\""));
        }
    }
    Ok(())
}

/// Splits a JSON array of objects into the objects' raw text, tracking
/// quote/escape state so braces inside strings don't confuse the scan.
fn split_events(json: &str) -> Result<Vec<&str>, String> {
    let body = json.trim();
    if !body.starts_with('[') || !body.ends_with(']') {
        return Err("trace is not a JSON array".into());
    }
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    let s = start.take().ok_or("object end without start")?;
                    events.push(&body[s..=i]);
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("truncated trace JSON".into());
    }
    Ok(events)
}

/// First occurrence of string field `key` in `obj` (raw, still escaped —
/// adequate for comparing identically-escaped names).
fn field_string(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = &obj[at..];
    let mut out = String::new();
    let mut escaped = false;
    for c in rest.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            out.push(c);
            escaped = true;
        } else if c == '"' {
            return Some(out);
        } else {
            out.push(c);
        }
    }
    None
}

/// First occurrence of numeric field `key` in `obj`.
fn field_number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let digits: String = obj[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_us: f64, dur_us: f64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "host".into(),
            pid: SERVICE_PID,
            tid,
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_emit_balanced_events() {
        let spans = vec![
            span("request", 0, 0.0, 100.0),
            span("queue_wait", 0, 0.0, 10.0),
            span("execute", 0, 10.0, 80.0),
            span("verify", 0, 90.0, 8.0),
            span("request", 1, 50.0, 60.0),
        ];
        let json = chrome_trace(&spans);
        validate_chrome_trace(&json).unwrap();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 5);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 5);
    }

    #[test]
    fn children_are_clamped_into_parents() {
        // The modelled child nominally outlives its wall-clock parent;
        // export must still balance and validate.
        let spans = vec![span("execute", 3, 0.0, 50.0), span("kernel", 3, 10.0, 500.0)];
        let json = chrome_trace(&spans);
        validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn device_lanes_emit_complete_events() {
        let mut spans = vec![span("request", 0, 0.0, 10.0)];
        spans.push(SpanRecord {
            name: "lzss#b0".into(),
            cat: "compute".into(),
            pid: DEVICE_PID_BASE,
            tid: 2,
            start_us: 1.0,
            dur_us: 3.0,
            args: Vec::new(),
        });
        let json = chrome_trace(&spans);
        validate_chrome_trace(&json).unwrap();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("gpu0 (modelled SMs)"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let unclosed = write_chrome_trace(&[ChromeEvent {
            name: "open".into(),
            cat: "host".into(),
            ph: 'B',
            ts_us: 0.0,
            dur_us: None,
            pid: 1,
            tid: 0,
            args: Vec::new(),
        }]);
        assert!(validate_chrome_trace(&unclosed).is_err());

        let regressed = write_chrome_trace(&[
            ChromeEvent {
                name: "a".into(),
                cat: "host".into(),
                ph: 'B',
                ts_us: 10.0,
                dur_us: None,
                pid: 1,
                tid: 0,
                args: Vec::new(),
            },
            ChromeEvent {
                name: "a".into(),
                cat: "host".into(),
                ph: 'E',
                ts_us: 5.0,
                dur_us: None,
                pid: 1,
                tid: 0,
                args: Vec::new(),
            },
        ]);
        assert!(validate_chrome_trace(&regressed).is_err());

        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn host_spans_sharing_an_end_instant_agree_exactly() {
        let recorder = TraceRecorder::new();
        let end = Instant::now() + std::time::Duration::from_millis(1517);
        // Many distinct starts, one end: every recorded span must
        // reproduce the identical end timestamp through start + dur
        // (batch-mates share one dequeue).
        for i in 0..256 {
            let start = Instant::now() + std::time::Duration::from_nanos(i * 7919);
            recorder.host_span("queue_wait", SERVICE_PID, i, start, end, Vec::new());
        }
        let spans = recorder.spans();
        let first = spans[0].end_us();
        for s in &spans {
            assert_eq!(s.end_us(), first, "span on lane {} drifted an ulp", s.tid);
        }

        // Starts and end in different binades (here 2^17 and 2^18 µs),
        // where the start's low bit has no counterpart in the duration.
        let recorder = TraceRecorder::new();
        let at = |ns: u64| recorder.epoch + std::time::Duration::from_nanos(ns);
        let end = at(450_428_739);
        for i in 0..256 {
            recorder.host_span("queue_wait", SERVICE_PID, i, at(147_415_452 + i * 7), end, vec![]);
        }
        for s in &recorder.spans() {
            assert_eq!(s.end_us(), recorder.instant_us(end), "lane {} drifted", s.tid);
        }
    }

    #[test]
    fn recorder_caps_span_buffer() {
        let recorder = TraceRecorder::new();
        for i in 0..(SPAN_CAP + 10) {
            recorder.record(span("s", 0, i as f64, 1.0));
        }
        assert_eq!(recorder.spans().len(), SPAN_CAP);
        assert_eq!(recorder.dropped(), 10);
    }
}
