//! Modelled execution timelines and Chrome-trace export.
//!
//! [`Timeline::from_launch`] reconstructs the cost model's view of a
//! launch — which block ran on which SM, when — and serializes it in the
//! Chrome tracing JSON format (`chrome://tracing`, Perfetto), giving the
//! simulated GPU the observability a real one gets from profilers. The
//! event writer ([`ChromeEvent`], [`write_chrome_trace`]) is generic so
//! higher layers (the server's request tracer) can merge their host
//! spans with the modelled block spans into one trace file.

use crate::cost::{block_cycles, transaction_cycles};
use crate::device::DeviceSpec;
use crate::meter::BlockMetrics;
use crate::occupancy::occupancy;

/// One block's modelled execution interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpan {
    /// Block index in the grid.
    pub block_idx: usize,
    /// SM the scheduler placed it on.
    pub sm: usize,
    /// Start offset in seconds from launch.
    pub start: f64,
    /// Duration in seconds.
    pub duration: f64,
    /// Whether this block was memory-bound.
    pub memory_bound: bool,
}

/// A modelled launch timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-block spans, in block order.
    pub spans: Vec<BlockSpan>,
    /// Total modelled duration (seconds).
    pub total_seconds: f64,
    /// SM count of the device (rows in the visualization).
    pub sm_count: usize,
}

/// One event in the Chrome tracing JSON array format.
///
/// Supported phases: `'B'`/`'E'` (duration begin/end, `dur_us` ignored),
/// `'X'` (complete, `dur_us` required), `'M'` (metadata, e.g.
/// `process_name`). Timestamps are microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event (span) name.
    pub name: String,
    /// Category string (comma-separated tags in the UI).
    pub cat: String,
    /// Phase: `'B'`, `'E'`, `'X'`, or `'M'`.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (`'X'` events only).
    pub dur_us: Option<f64>,
    /// Process lane.
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Free-form arguments rendered in the event detail pane.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    /// A metadata event naming process lane `pid` in the trace viewer.
    pub fn process_name(pid: u64, name: &str) -> ChromeEvent {
        ChromeEvent {
            name: "process_name".into(),
            cat: "__metadata".into(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid: 0,
            args: vec![("name".into(), name.into())],
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes `events` as a Chrome tracing JSON array.
pub fn write_chrome_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(&e.cat, &mut out);
        out.push_str(&format!("\",\"ph\":\"{}\",\"ts\":{:.3}", e.ph, e.ts_us));
        if let Some(dur) = e.dur_us {
            out.push_str(&format!(",\"dur\":{dur:.3}"));
        }
        out.push_str(&format!(",\"pid\":{},\"tid\":{}", e.pid, e.tid));
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(k, &mut out);
                out.push_str("\":\"");
                escape_json(v, &mut out);
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push(']');
    out
}

impl Timeline {
    /// Reconstructs the cost model's schedule: blocks round-robin over
    /// SMs, executing back-to-back per SM. Shares the per-block and
    /// per-transaction arithmetic with [`crate::cost::cost_launch`]
    /// (see the differential test below), so
    /// `total_seconds == cost.seconds - device.launch_overhead`.
    pub fn from_launch(
        device: &DeviceSpec,
        block_dim: usize,
        shared_bytes: usize,
        per_block: &[BlockMetrics],
    ) -> Timeline {
        let occ = occupancy(device, per_block.len(), block_dim, shared_bytes);
        let per_transaction = transaction_cycles(device, occ.fraction);

        let mut sm_clock = vec![0.0f64; device.sm_count];
        let mut spans = Vec::with_capacity(per_block.len());
        for (i, m) in per_block.iter().enumerate() {
            let (compute, memory) = block_cycles(device, m, per_transaction);
            let cycles = compute.max(memory);
            let sm = i % device.sm_count;
            let start = sm_clock[sm] / device.clock_hz;
            let duration = cycles / device.clock_hz;
            sm_clock[sm] += cycles;
            spans.push(BlockSpan {
                block_idx: i,
                sm,
                start,
                duration,
                memory_bound: memory > compute,
            });
        }
        let total_seconds = sm_clock.iter().cloned().fold(0.0, f64::max) / device.clock_hz;
        Timeline { spans, total_seconds, sm_count: device.sm_count }
    }

    /// The per-SM block spans as `'X'` (complete) [`ChromeEvent`]s,
    /// shifted by `offset_us` and placed on process lane `pid` with one
    /// thread lane per SM. Higher layers use the offset to anchor the
    /// kernel's blocks inside a host-side span.
    pub fn block_events(&self, kernel_name: &str, pid: u64, offset_us: f64) -> Vec<ChromeEvent> {
        self.spans
            .iter()
            .map(|span| ChromeEvent {
                name: format!("{kernel_name}#b{}", span.block_idx),
                cat: if span.memory_bound { "memory" } else { "compute" }.into(),
                ph: 'X',
                ts_us: offset_us + span.start * 1e6,
                dur_us: Some(span.duration * 1e6),
                pid,
                tid: span.sm as u64,
                args: Vec::new(),
            })
            .collect()
    }

    /// Serializes the timeline as Chrome tracing JSON (array form).
    /// Timestamps are microseconds, one "thread" per SM.
    pub fn to_chrome_trace(&self, kernel_name: &str) -> String {
        write_chrome_trace(&self.block_events(kernel_name, 0, 0.0))
    }

    /// SM utilization: busy time over `sm_count × makespan`.
    pub fn utilization(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.spans.iter().map(|s| s.duration).sum();
        busy / (self.total_seconds * self.sm_count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ops: f64) -> BlockMetrics {
        BlockMetrics { warp_issue_ops: ops, blocks: 1, block_dim: 128, ..Default::default() }
    }

    #[test]
    fn spans_are_contiguous_per_sm() {
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> = (0..45).map(|i| metrics(1000.0 + i as f64)).collect();
        let timeline = Timeline::from_launch(&device, 128, 0, &blocks);
        assert_eq!(timeline.spans.len(), 45);
        // Per SM, spans must tile without overlap.
        for sm in 0..device.sm_count {
            let mut cursor = 0.0f64;
            for span in timeline.spans.iter().filter(|s| s.sm == sm) {
                assert!((span.start - cursor).abs() < 1e-12, "gap on SM {sm}");
                cursor = span.start + span.duration;
            }
        }
    }

    #[test]
    fn total_matches_cost_model() {
        use crate::cost::cost_launch;
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> =
            (0..64).map(|i| metrics(500.0 * (1 + i % 5) as f64)).collect();
        let timeline = Timeline::from_launch(&device, 128, 0, &blocks);
        let cost = cost_launch(&device, blocks.len(), 128, 0, &blocks);
        // cost adds launch overhead on top of the cycle makespan.
        assert!((timeline.total_seconds - (cost.seconds - device.launch_overhead)).abs() < 1e-12);
    }

    #[test]
    fn total_matches_cost_model_across_configs() {
        // Differential guard: the timeline reconstruction and the cost
        // model price launches through the same shared helpers; this
        // sweep (grids, block dims, shared allocations, memory-heavy
        // and compute-heavy blocks) pins that they cannot drift apart.
        use crate::cost::cost_launch;
        for device in [DeviceSpec::gtx480(), DeviceSpec::gtx280()] {
            for grid in [1usize, 7, 64, 200] {
                for block_dim in [32usize, 128, 256] {
                    for shared in [0usize, 4096, 16384] {
                        if shared > device.shared_mem_per_block {
                            continue;
                        }
                        let blocks: Vec<BlockMetrics> = (0..grid)
                            .map(|i| BlockMetrics {
                                warp_issue_ops: 100.0 * (1 + i % 7) as f64,
                                global_transactions: (250 * (i % 3)) as f64,
                                shared_cycles: (i % 2) as f64 * 64.0,
                                cached_accesses: (i * 11 % 97) as u64,
                                barriers: (i % 5) as u64,
                                blocks: 1,
                                block_dim,
                                ..Default::default()
                            })
                            .collect();
                        let timeline = Timeline::from_launch(&device, block_dim, shared, &blocks);
                        let cost = cost_launch(&device, grid, block_dim, shared, &blocks);
                        let expect = cost.seconds - device.launch_overhead;
                        assert!(
                            (timeline.total_seconds - expect).abs() <= 1e-12 * expect.max(1.0),
                            "grid {grid} block {block_dim} shared {shared}: \
                             timeline {} vs cost {expect}",
                            timeline.total_seconds,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> = (0..4).map(|_| metrics(100.0)).collect();
        let timeline = Timeline::from_launch(&device, 64, 0, &blocks);
        let json = timeline.to_chrome_trace("lzss_v2");
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("lzss_v2#b0"));
        // Balanced braces (crude JSON sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_writer_escapes_and_serializes_all_phases() {
        let events = vec![
            ChromeEvent::process_name(7, "service \"quoted\""),
            ChromeEvent {
                name: "span\nwith\tcontrol".into(),
                cat: "host".into(),
                ph: 'B',
                ts_us: 1.5,
                dur_us: None,
                pid: 7,
                tid: 3,
                args: vec![("tenant".into(), "a\\b".into())],
            },
            ChromeEvent {
                name: "span\nwith\tcontrol".into(),
                cat: "host".into(),
                ph: 'E',
                ts_us: 2.5,
                dur_us: None,
                pid: 7,
                tid: 3,
                args: Vec::new(),
            },
        ];
        let json = write_chrome_trace(&events);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("span\\nwith\\tcontrol"));
        assert!(json.contains("a\\\\b"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn block_events_offset_and_lane() {
        let device = DeviceSpec::gtx480();
        let blocks: Vec<BlockMetrics> = (0..3).map(|_| metrics(1000.0)).collect();
        let timeline = Timeline::from_launch(&device, 64, 0, &blocks);
        let events = timeline.block_events("k", 42, 500.0);
        assert_eq!(events.len(), 3);
        for (event, span) in events.iter().zip(&timeline.spans) {
            assert_eq!(event.pid, 42);
            assert_eq!(event.tid, span.sm as u64);
            assert!((event.ts_us - (500.0 + span.start * 1e6)).abs() < 1e-9);
            assert_eq!(event.ph, 'X');
        }
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let device = DeviceSpec::gtx480();
        // One giant block: 1/sm_count utilization.
        let blocks = vec![metrics(1e6)];
        let t = Timeline::from_launch(&device, 128, 0, &blocks);
        assert!((t.utilization() - 1.0 / device.sm_count as f64).abs() < 1e-9);

        // Perfectly balanced full wave: ~1.0.
        let blocks: Vec<BlockMetrics> = (0..device.sm_count).map(|_| metrics(1e6)).collect();
        let t = Timeline::from_launch(&device, 128, 0, &blocks);
        assert!((t.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_launch_yields_empty_timeline() {
        let device = DeviceSpec::gtx480();
        let t = Timeline::from_launch(&device, 128, 0, &[]);
        assert!(t.spans.is_empty());
        assert_eq!(t.total_seconds, 0.0);
        assert_eq!(t.utilization(), 0.0);
    }
}
