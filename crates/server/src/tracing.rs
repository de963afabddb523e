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
//! [`SpanRecord`] is the only span type: the modelled block spans are
//! built straight from `gpusim`'s [`Timeline`] ([`SpanRecord::block`]).
//!
//! Recording is cheap (one mutex push per span, bounded buffer) and
//! always on; spans past `SPAN_CAP` are counted, not kept, and the
//! count rides in [`crate::ServiceStats::trace_dropped`]. Export happens
//! on demand via [`crate::Service::trace_chrome_json`]: [`chrome_trace`]
//! writes the events directly, quoting strings with [`crate::json`]'s
//! escaper, and [`validate_chrome_trace`] reads an export back one event
//! object at a time with that module's reader.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use culzss_gpusim::trace::{BlockSpan, Timeline};
use parking_lot::Mutex;

use crate::json::{self, Str};

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
/// so tracing can stay always-on without unbounded memory. The count of
/// dropped spans rides in [`crate::ServiceStats::trace_dropped`].
pub(crate) const SPAN_CAP: usize = 65_536;

/// One recorded span, timestamped in microseconds since the recorder's
/// epoch (the service start).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`request`, `queue_wait`, `execute`, …).
    pub name: String,
    /// Category: `host` (wall clock), `modelled` (cost-model time), or
    /// `memory`/`compute` for a modelled block span ([`Self::block`]).
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

    /// A modelled block span of a launch of `kernel` on device lane
    /// `pid` (one thread lane per SM), shifted by `offset_us` — the
    /// instant the launch starts on the trace's clock.
    pub fn block(kernel: &str, pid: u64, offset_us: f64, span: &BlockSpan) -> SpanRecord {
        SpanRecord {
            name: format!("{kernel}#b{}", span.block_idx),
            cat: if span.memory_bound { "memory" } else { "compute" }.into(),
            pid,
            tid: span.sm as u64,
            start_us: offset_us + span.start * 1e6,
            dur_us: span.duration * 1e6,
            args: Vec::new(),
        }
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
        let pid = DEVICE_PID_BASE + device as u64;
        for span in &timeline.spans {
            self.record(SpanRecord::block(kernel, pid, offset_us, span));
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
/// `M` metadata naming the process lanes. Timestamps are microseconds.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut lanes: BTreeMap<(u64, u64), Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        lanes.entry((span.pid, span.tid)).or_default().push(span);
    }

    let mut out = String::from("[");
    let pids: BTreeSet<u64> = lanes.keys().map(|&(pid, _)| pid).collect();
    for pid in pids {
        let name = match pid {
            SERVICE_PID => "culzss-service (jobs)".to_string(),
            BATCH_PID => "culzss-service (batches)".to_string(),
            HEALTH_PID => "culzss-service (device health)".to_string(),
            QOS_PID => "culzss-service (qos)".to_string(),
            p if p >= DEVICE_PID_BASE => format!("gpu{} (modelled SMs)", p - DEVICE_PID_BASE),
            p => format!("pid {p}"),
        };
        next_event(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0.000,\
             \"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            Str(&name)
        );
    }

    for ((pid, tid), mut lane) in lanes {
        if pid >= DEVICE_PID_BASE {
            // Modelled block spans: complete events, no nesting needed.
            lane.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            for span in lane {
                next_event(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{pid},\"tid\":{tid}",
                    Str(&span.name),
                    Str(&span.cat),
                    span.start_us,
                    span.dur_us,
                );
                end_event(&mut out, &span.args);
            }
            continue;
        }
        // Host lanes: sort so parents (earlier start, later end) precede
        // children, then emit a balanced B/E stream, clamping children
        // into their parents and keeping timestamps monotonic.
        lane.sort_by(|a, b| {
            a.start_us.total_cmp(&b.start_us).then(b.end_us().total_cmp(&a.end_us()))
        });
        let mut stack: Vec<(&str, f64)> = Vec::new();
        let mut cursor = 0.0f64;
        let emit = |out: &mut String, ph: char, name: &str, ts: f64, args: &[(String, String)]| {
            next_event(out);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"host\",\"ph\":\"{ph}\",\"ts\":{ts:.3},\
                 \"pid\":{pid},\"tid\":{tid}",
                Str(name)
            );
            end_event(out, args);
        };
        for span in lane {
            while let Some(&(name, end)) = stack.last() {
                if end > span.start_us {
                    break;
                }
                let ts = end.max(cursor);
                emit(&mut out, 'E', name, ts, &[]);
                cursor = ts;
                stack.pop();
            }
            let start = span.start_us.max(cursor);
            // A child cannot outlive its parent in the nesting model.
            let end = match stack.last() {
                Some(&(_, parent_end)) => span.end_us().min(parent_end),
                None => span.end_us(),
            }
            .max(start);
            emit(&mut out, 'B', &span.name, start, &span.args);
            cursor = start;
            stack.push((&span.name, end));
        }
        while let Some((name, end)) = stack.pop() {
            let ts = end.max(cursor);
            emit(&mut out, 'E', name, ts, &[]);
            cursor = ts;
        }
    }
    out.push(']');
    out
}

/// Separates the next event from the previous one (none after the `[`).
fn next_event(out: &mut String) {
    if out.len() > 1 {
        out.push(',');
    }
}

/// Writes an event's `args` object, when it has any, and closes it.
fn end_event(out: &mut String, args: &[(String, String)]) {
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", Str(k), Str(v));
        }
        out.push('}');
    }
    out.push('}');
}

/// Schema check for an emitted trace. The text must be one JSON array
/// of event objects, read one event at a time with [`json::for_each_item`]:
/// each event has a string `ph`; every event but `M` metadata also has
/// numeric `ts`, `pid` and `tid` and a string `name`. Every lane's
/// `B`/`E` events must balance (LIFO, matching names) with
/// non-decreasing timestamps, and `X` events must carry a non-negative
/// `dur`.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    // Per B/E lane: the last timestamp and the stack of open names.
    let mut lanes: BTreeMap<(u64, u64), (f64, Vec<String>)> = BTreeMap::new();
    json::for_each_item(json, |i, event| {
        check_event(&event, &mut lanes).map_err(|e| format!("event {i}: {e}"))
    })?;
    for (lane, (_, stack)) in lanes {
        if let Some(open) = stack.last() {
            return Err(format!("lane {lane:?}: unclosed B \"{open}\""));
        }
    }
    Ok(())
}

/// One event's share of [`validate_chrome_trace`].
fn check_event(
    event: &json::Value,
    lanes: &mut BTreeMap<(u64, u64), (f64, Vec<String>)>,
) -> Result<(), String> {
    let obj = event.as_obj("event")?;
    let ph = obj.get_str("ph")?;
    if ph == "M" {
        return Ok(());
    }
    let ts = obj.get_num("ts")?;
    let lane = (obj.get_num("pid")? as u64, obj.get_num("tid")? as u64);
    let name = obj.get_str("name")?;
    match ph {
        "B" | "E" => {
            let (last, stack) = lanes.entry(lane).or_insert((f64::NEG_INFINITY, Vec::new()));
            if ts < *last {
                return Err(format!(
                    "{name}: timestamp {ts} regressed below {last} on lane {lane:?}"
                ));
            }
            *last = ts;
            if ph == "B" {
                stack.push(name.to_string());
                return Ok(());
            }
            match stack.pop() {
                Some(open) if open == name => Ok(()),
                Some(open) => Err(format!("E \"{name}\" closes B \"{open}\" on lane {lane:?}")),
                None => Err(format!("E \"{name}\" without an open B on lane {lane:?}")),
            }
        }
        "X" => {
            let dur = obj.get_num("dur")?;
            if dur < 0.0 {
                return Err(format!("{name}: negative duration {dur}"));
            }
            Ok(())
        }
        other => Err(format!("unknown phase {other:?}")),
    }
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
        let unclosed = r#"[{"name":"open","cat":"host","ph":"B","ts":0.000,"pid":1,"tid":0}]"#;
        assert!(validate_chrome_trace(unclosed).is_err());

        let regressed = r#"[{"name":"a","cat":"host","ph":"B","ts":10.000,"pid":1,"tid":0},
            {"name":"a","cat":"host","ph":"E","ts":5.000,"pid":1,"tid":0}]"#;
        assert!(validate_chrome_trace(regressed).is_err());

        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn validator_rejects_text_that_is_not_json() {
        let b = r#"{"name":"a","cat":"host","ph":"B","ts":0.000,"pid":1,"tid":0}"#;
        let e = r#"{"name":"a","cat":"host","ph":"E","ts":1.000,"pid":1,"tid":0}"#;
        validate_chrome_trace(&format!("[{b},{e}]")).unwrap();
        for bad in [
            format!("[{b} junk ,, {e}]"),
            format!("[{b},,{e}]"),
            format!("[{b},{e},]"),
            format!("[{b},{e}] trailing"),
            format!("[{b},{e}"),
            b.to_string(),
        ] {
            assert!(validate_chrome_trace(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn validator_reads_the_top_level_name_not_an_args_name() {
        let trace = r#"[
            {"ph":"B","args":{"name":"b","ph":"E"},"name":"a","ts":0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":0}
        ]"#;
        validate_chrome_trace(trace).unwrap();
    }

    #[test]
    fn validator_checks_every_event_field() {
        for (bad, why) in [
            (r#"[{"name":"a","ts":0,"pid":1,"tid":0}]"#, "missing field \"ph\""),
            (r#"[{"name":"a","ph":"B","pid":1,"tid":0}]"#, "missing field \"ts\""),
            (r#"[{"name":"a","ph":"B","ts":"0","pid":1,"tid":0}]"#, "expected number"),
            (r#"[{"ph":"X","ts":0,"pid":10,"tid":0}]"#, "missing field \"name\""),
            (r#"[{"name":"k","ph":"X","ts":0,"pid":10,"tid":0}]"#, "missing field \"dur\""),
            (r#"[{"name":"k","ph":"X","ts":0,"dur":-1,"pid":10,"tid":0}]"#, "negative duration"),
            (r#"[{"name":"k","ph":"Q","ts":0,"pid":10,"tid":0}]"#, "unknown phase"),
            (r#"[{"name":"a","ph":"E","ts":0,"pid":1,"tid":0}]"#, "without an open B"),
            (r#"[1]"#, "expected object"),
        ] {
            let err = validate_chrome_trace(bad).unwrap_err();
            assert!(err.starts_with("event 0: ") && err.contains(why), "{bad}: {err}");
        }
        // Metadata events need no timestamp or lane.
        validate_chrome_trace(r#"[{"name":"process_name","ph":"M"}]"#).unwrap();
    }

    #[test]
    fn chrome_trace_output_is_pinned() {
        let host =
            |name: &str, pid: u64, tid: u64, start_us: f64, dur_us: f64, args: &[(&str, &str)]| {
                SpanRecord {
                    name: name.into(),
                    cat: "host".into(),
                    pid,
                    tid,
                    start_us,
                    dur_us,
                    args: args.iter().map(|(k, v)| ((*k).into(), (*v).into())).collect(),
                }
            };
        let device = |cat: &str, span: SpanRecord| SpanRecord { cat: cat.into(), ..span };
        let spans = vec![
            host(
                "request",
                SERVICE_PID,
                7,
                0.5,
                100.25,
                &[("tenant", "a\"b\\c"), ("kind", "compress")],
            ),
            host("queue_wait", SERVICE_PID, 7, 0.5, 10.0, &[]),
            host("execute", SERVICE_PID, 7, 10.5, 50.0, &[]),
            // Outlives its parent: clamped to `execute`'s end.
            device("modelled", host("kernel", SERVICE_PID, 7, 20.0, 900.0, &[])),
            host("verify", SERVICE_PID, 7, 95.0, 1.125, &[]),
            host("line\nbreak\ttab\r\u{1}\u{1f}", SERVICE_PID, 8, 3.0, 4.0, &[("k\"ey", "v\u{7}")]),
            host("batch", BATCH_PID, 1, 0.75, 2.0, &[("jobs", "2")]),
            host("breaker:closed->open", HEALTH_PID, 0, 5.0, 0.0, &[("seq", "0")]),
            host("steal", QOS_PID, 2, 6.0, 0.0, &[]),
            host("odd", 5, 0, 1.0, 1.0, &[]),
            device("memory", host("k#b1", DEVICE_PID_BASE + 1, 3, 40.0, 2.5, &[])),
            device(
                "compute",
                host("k\"q#b0", DEVICE_PID_BASE + 1, 3, 20.0, 1.0 / 3.0, &[("x", "\\")]),
            ),
            device("compute", host("k#b2", DEVICE_PID_BASE, 0, 0.0, 7.0, &[])),
        ];
        let json = chrome_trace(&spans);
        assert_eq!(json, PINNED_EXPORT);
        validate_chrome_trace(&json).unwrap();
    }

    /// The export of [`chrome_trace_output_is_pinned`]'s spans, byte for
    /// byte: viewers and stored traces rely on this exact layout.
    const PINNED_EXPORT: &str = r#"[{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":1,"tid":0,"args":{"name":"culzss-service (jobs)"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":2,"tid":0,"args":{"name":"culzss-service (batches)"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":3,"tid":0,"args":{"name":"culzss-service (device health)"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":4,"tid":0,"args":{"name":"culzss-service (qos)"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":5,"tid":0,"args":{"name":"pid 5"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":10,"tid":0,"args":{"name":"gpu0 (modelled SMs)"}},{"name":"process_name","cat":"__metadata","ph":"M","ts":0.000,"pid":11,"tid":0,"args":{"name":"gpu1 (modelled SMs)"}},{"name":"request","cat":"host","ph":"B","ts":0.500,"pid":1,"tid":7,"args":{"tenant":"a\"b\\c","kind":"compress"}},{"name":"queue_wait","cat":"host","ph":"B","ts":0.500,"pid":1,"tid":7},{"name":"queue_wait","cat":"host","ph":"E","ts":10.500,"pid":1,"tid":7},{"name":"execute","cat":"host","ph":"B","ts":10.500,"pid":1,"tid":7},{"name":"kernel","cat":"host","ph":"B","ts":20.000,"pid":1,"tid":7},{"name":"kernel","cat":"host","ph":"E","ts":60.500,"pid":1,"tid":7},{"name":"execute","cat":"host","ph":"E","ts":60.500,"pid":1,"tid":7},{"name":"verify","cat":"host","ph":"B","ts":95.000,"pid":1,"tid":7},{"name":"verify","cat":"host","ph":"E","ts":96.125,"pid":1,"tid":7},{"name":"request","cat":"host","ph":"E","ts":100.750,"pid":1,"tid":7},{"name":"line\nbreak\ttab\r\u0001\u001f","cat":"host","ph":"B","ts":3.000,"pid":1,"tid":8,"args":{"k\"ey":"v\u0007"}},{"name":"line\nbreak\ttab\r\u0001\u001f","cat":"host","ph":"E","ts":7.000,"pid":1,"tid":8},{"name":"batch","cat":"host","ph":"B","ts":0.750,"pid":2,"tid":1,"args":{"jobs":"2"}},{"name":"batch","cat":"host","ph":"E","ts":2.750,"pid":2,"tid":1},{"name":"breaker:closed->open","cat":"host","ph":"B","ts":5.000,"pid":3,"tid":0,"args":{"seq":"0"}},{"name":"breaker:closed->open","cat":"host","ph":"E","ts":5.000,"pid":3,"tid":0},{"name":"steal","cat":"host","ph":"B","ts":6.000,"pid":4,"tid":2},{"name":"steal","cat":"host","ph":"E","ts":6.000,"pid":4,"tid":2},{"name":"odd","cat":"host","ph":"B","ts":1.000,"pid":5,"tid":0},{"name":"odd","cat":"host","ph":"E","ts":2.000,"pid":5,"tid":0},{"name":"k#b2","cat":"compute","ph":"X","ts":0.000,"dur":7.000,"pid":10,"tid":0},{"name":"k\"q#b0","cat":"compute","ph":"X","ts":20.000,"dur":0.333,"pid":11,"tid":3,"args":{"x":"\\"}},{"name":"k#b1","cat":"memory","ph":"X","ts":40.000,"dur":2.500,"pid":11,"tid":3}]"#;

    #[test]
    fn block_spans_carry_the_offset_and_one_lane_per_sm() {
        let device = culzss_gpusim::DeviceSpec::gtx480();
        let blocks: Vec<culzss_gpusim::BlockMetrics> = (0..3)
            .map(|i| culzss_gpusim::BlockMetrics {
                warp_issue_ops: 1000.0,
                global_transactions: if i == 1 { 1e6 } else { 0.0 },
                blocks: 1,
                block_dim: 64,
                ..Default::default()
            })
            .collect();
        let timeline = Timeline::from_launch(&device, 64, 0, &blocks);
        let recorder = TraceRecorder::new();
        recorder.block_spans(2, &timeline, "k", 500.0);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        for (record, span) in spans.iter().zip(&timeline.spans) {
            assert_eq!(record.name, format!("k#b{}", span.block_idx));
            assert_eq!(record.cat, if span.memory_bound { "memory" } else { "compute" });
            assert_eq!((record.pid, record.tid), (DEVICE_PID_BASE + 2, span.sm as u64));
            assert!((record.start_us - (500.0 + span.start * 1e6)).abs() < 1e-9);
            assert_eq!(record.dur_us, span.duration * 1e6);
        }
        assert_eq!(spans[1].cat, "memory");
        let json = recorder.chrome_json();
        validate_chrome_trace(&json).unwrap();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("gpu2 (modelled SMs)"));
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
        // The capped buffer still exports a trace that validates.
        validate_chrome_trace(&recorder.chrome_json()).unwrap();
    }
}
