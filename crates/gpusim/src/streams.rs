//! CUDA-stream overlap modelling ("the concurrent execution and
//! streaming feature of new Fermi GPUs", paper §VII).
//!
//! A [`StreamSim`] holds several command streams; each enqueued operation
//! carries a duration and a resource class. Scheduling reproduces the
//! Fermi execution rules the paper-era programming guide describes:
//!
//! * operations within one stream execute in order;
//! * the device has one *copy engine* (H2D and D2H serialize with each
//!   other; the dual-copy-engine Teslas add [`Engine::SecondCopy`]) and
//!   one *compute engine* (kernels from different streams serialize, but
//!   overlap with copies);
//! * host callbacks run on the host, overlapping everything else.
//!
//! [`StreamSim::run`] resolves the schedule with a simple discrete-event
//! sweep in submission order and returns per-op intervals plus the
//! makespan. It is the only makespan loop in the workspace: the ideal
//! CPU/GPU pipeline of paper §V ([`StageTimes::pipelined_seconds`]) and
//! the service's per-batch overlap accounting ([`BatchTimeline`]) are
//! schedules built on it.

/// Resource class of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// PCIe copy engine (shared by H2D and D2H on Fermi).
    Copy,
    /// A second copy engine, as on the dual-copy-engine Fermi Teslas:
    /// its ops overlap those on [`Engine::Copy`]. The ideal pipeline puts
    /// D2H here so that every stage has a lane of its own.
    SecondCopy,
    /// Kernel execution engine.
    Compute,
    /// Host CPU (post-processing steps).
    Host,
}

/// One enqueued operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Which resource it occupies.
    pub engine: Engine,
    /// Duration in seconds.
    pub seconds: f64,
    /// Stream it belongs to.
    pub stream: usize,
}

/// A resolved operation interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// The operation.
    pub op: Op,
    /// Start time in seconds from submission of the first op.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

/// The stream simulator.
#[derive(Debug, Clone, Default)]
pub struct StreamSim {
    ops: Vec<Op>,
}

/// A resolved schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-op intervals in submission order.
    pub ops: Vec<Scheduled>,
    /// Completion time of the last op.
    pub makespan: f64,
}

impl StreamSim {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `op`; submission order across streams is preserved, as
    /// with the CUDA runtime.
    pub fn enqueue(&mut self, stream: usize, engine: Engine, seconds: f64) {
        assert!(seconds >= 0.0, "durations must be non-negative");
        self.ops.push(Op { engine, seconds, stream });
    }

    /// Convenience: enqueue the classic 4-stage batch (H2D → kernel →
    /// D2H → host post-processing) on `stream`.
    pub fn enqueue_batch(&mut self, stream: usize, h2d: f64, kernel: f64, d2h: f64, host: f64) {
        self.enqueue(stream, Engine::Copy, h2d);
        self.enqueue(stream, Engine::Compute, kernel);
        self.enqueue(stream, Engine::Copy, d2h);
        self.enqueue(stream, Engine::Host, host);
    }

    /// Resolves the schedule.
    pub fn run(&self) -> Schedule {
        let mut copy_free = 0.0f64;
        let mut second_copy_free = 0.0f64;
        let mut compute_free = 0.0f64;
        // Host ops overlap each other (multicore host assumption is NOT
        // made: serialize host ops too, matching a single post-processing
        // thread).
        let mut host_free = 0.0f64;
        let mut stream_free: std::collections::HashMap<usize, f64> = Default::default();

        let mut out = Vec::with_capacity(self.ops.len());
        let mut makespan = 0.0f64;
        for &op in &self.ops {
            let engine_free = match op.engine {
                Engine::Copy => &mut copy_free,
                Engine::SecondCopy => &mut second_copy_free,
                Engine::Compute => &mut compute_free,
                Engine::Host => &mut host_free,
            };
            let pred = stream_free.entry(op.stream).or_insert(0.0);
            let start = engine_free.max(*pred);
            let end = start + op.seconds;
            *engine_free = end;
            *pred = end;
            makespan = makespan.max(end);
            out.push(Scheduled { op, start, end });
        }
        Schedule { ops: out, makespan }
    }
}

impl Schedule {
    /// Busy time of one engine.
    pub fn engine_busy(&self, engine: Engine) -> f64 {
        self.ops.iter().filter(|s| s.op.engine == engine).map(|s| s.op.seconds).sum()
    }

    /// Utilization of one engine over the makespan.
    pub fn engine_utilization(&self, engine: Engine) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.engine_busy(engine) / self.makespan
        }
    }
}

/// `sequential / pipelined`: the overlap speedup of a schedule, and 1.0
/// when the pipelined makespan is zero (nothing ran, so nothing overlapped).
pub fn overlap_speedup(sequential: f64, pipelined: f64) -> f64 {
    if pipelined <= 0.0 {
        1.0
    } else {
        sequential / pipelined
    }
}

/// Stage durations, in seconds, of one pass through the 4-stage pipeline
/// H2D → kernel → D2H → host post-processing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Host→device copy.
    pub h2d: f64,
    /// Kernel execution.
    pub kernel: f64,
    /// Device→host copy.
    pub d2h: f64,
    /// CPU post-processing.
    pub cpu: f64,
}

impl StageTimes {
    /// The stages run back to back.
    pub fn sequential_seconds(&self) -> f64 {
        self.h2d + self.kernel + self.d2h + self.cpu
    }

    /// Makespan of the ideal pipeline over `slices` equal slices of these
    /// totals: each stage gets its own engine (D2H on
    /// [`Engine::SecondCopy`]) and each slice its own stream, issued
    /// depth-first. A slice enters a stage as soon as the previous slice
    /// left that stage and the slice itself left the previous stage.
    pub fn pipelined_seconds(&self, slices: usize) -> f64 {
        assert!(slices >= 1);
        let n = slices as f64;
        let mut sim = StreamSim::new();
        for stream in 0..slices {
            sim.enqueue(stream, Engine::Copy, self.h2d / n);
            sim.enqueue(stream, Engine::Compute, self.kernel / n);
            sim.enqueue(stream, Engine::SecondCopy, self.d2h / n);
            sim.enqueue(stream, Engine::Host, self.cpu / n);
        }
        sim.run().makespan
    }
}

/// Accumulator for the stage times of a multi-launch run, and the
/// pipeline model over them. The service's batch scheduler reports
/// sequential vs. pipelined makespans for the launches it issues
/// through it.
#[derive(Debug, Clone, Default)]
pub struct BatchTimeline {
    batches: usize,
    totals: StageTimes,
}

impl BatchTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one batch: raw stage durations, or anything that converts
    /// into them (e.g. a compression call's pipeline stats).
    pub fn push(&mut self, stages: impl Into<StageTimes>) {
        let stages = stages.into();
        self.totals.h2d += stages.h2d;
        self.totals.kernel += stages.kernel;
        self.totals.d2h += stages.d2h;
        self.totals.cpu += stages.cpu;
        self.batches += 1;
    }

    /// Number of batches recorded.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Σ of the per-batch sequential (back-to-back) totals.
    pub fn sequential_seconds(&self) -> f64 {
        self.totals.sequential_seconds()
    }

    /// Makespan of the ideal 4-stage pipeline over as many equal slices
    /// of the recorded totals as there are batches.
    pub fn pipelined_seconds(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.totals.pipelined_seconds(self.batches)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_stream_is_sequential() {
        let mut sim = StreamSim::new();
        sim.enqueue_batch(0, 1.0, 4.0, 1.0, 2.0);
        let s = sim.run();
        assert!((s.makespan - 8.0).abs() < 1e-12);
        // Ops tile back to back.
        for w in s.ops.windows(2) {
            assert!((w[1].start - w[0].end).abs() < 1e-12);
        }
    }

    #[test]
    fn depth_first_submission_false_serializes() {
        // The famous Fermi pitfall: submitting whole batches stream by
        // stream puts stream 1's H2D *behind* stream 0's D2H in the copy
        // engine queue, which itself waits for stream 0's kernel — so
        // almost nothing overlaps.
        let mut sim = StreamSim::new();
        sim.enqueue_batch(0, 1.0, 4.0, 1.0, 0.0);
        sim.enqueue_batch(1, 1.0, 4.0, 1.0, 0.0);
        let s = sim.run();
        assert!(s.makespan > 11.0 - 1e-9, "{}", s.makespan);
    }

    #[test]
    fn breadth_first_submission_overlaps() {
        // The era-correct fix: issue stage by stage across streams.
        let mut sim = StreamSim::new();
        for stream in 0..2 {
            sim.enqueue(stream, Engine::Copy, 1.0);
        }
        for stream in 0..2 {
            sim.enqueue(stream, Engine::Compute, 4.0);
        }
        for stream in 0..2 {
            sim.enqueue(stream, Engine::Copy, 1.0);
        }
        let s = sim.run();
        // Stream 1's H2D hides under stream 0's kernel; kernels still
        // serialize on the one compute engine: 1 + 4 + 4 + 1 = 10.
        assert!((s.makespan - 10.0).abs() < 1e-9, "{}", s.makespan);
        let kernels: Vec<&Scheduled> =
            s.ops.iter().filter(|o| o.op.engine == Engine::Compute).collect();
        assert!(kernels[1].start >= kernels[0].end - 1e-12);
    }

    #[test]
    fn copies_serialize_on_one_engine() {
        let mut sim = StreamSim::new();
        sim.enqueue(0, Engine::Copy, 2.0);
        sim.enqueue(1, Engine::Copy, 2.0);
        let s = sim.run();
        assert!((s.makespan - 4.0).abs() < 1e-12);
    }

    #[test]
    fn in_stream_order_is_respected() {
        let mut sim = StreamSim::new();
        sim.enqueue(0, Engine::Compute, 5.0);
        sim.enqueue(0, Engine::Copy, 1.0); // must wait for the kernel
        let s = sim.run();
        assert!((s.ops[1].start - 5.0).abs() < 1e-12);
        assert!((s.makespan - 6.0).abs() < 1e-12);
    }

    #[test]
    fn many_streams_approach_bottleneck_engine() {
        // Breadth-first issue across many streams: compute becomes the
        // bottleneck and its utilization approaches 1.
        let mut sim = StreamSim::new();
        let n = 64;
        for stream in 0..n {
            sim.enqueue(stream, Engine::Copy, 0.1);
        }
        for stream in 0..n {
            sim.enqueue(stream, Engine::Compute, 1.0);
        }
        for stream in 0..n {
            sim.enqueue(stream, Engine::Copy, 0.1);
            sim.enqueue(stream, Engine::Host, 0.5);
        }
        let s = sim.run();
        let sequential = n as f64 * 1.7;
        assert!(s.makespan < sequential * 0.75, "{}", s.makespan);
        assert!(s.makespan >= n as f64 * 1.0);
        assert!(s.engine_utilization(Engine::Compute) > 0.9);
    }

    #[test]
    fn utilization_accounts_idle_engines() {
        let mut sim = StreamSim::new();
        sim.enqueue(0, Engine::Compute, 10.0);
        let s = sim.run();
        assert_eq!(s.engine_utilization(Engine::Compute), 1.0);
        assert_eq!(s.engine_utilization(Engine::Copy), 0.0);
    }

    #[test]
    fn empty_schedule() {
        let s = StreamSim::new().run();
        assert_eq!(s.makespan, 0.0);
        assert!(s.ops.is_empty());
    }

    /// A fixed-array sweep of the ideal pipeline: the oracle that
    /// [`StageTimes::pipelined_seconds`] must reproduce bit for bit.
    fn reference_pipelined_makespan(total: StageTimes, slices: usize) -> f64 {
        assert!(slices >= 1);
        let per = StageTimes {
            h2d: total.h2d / slices as f64,
            kernel: total.kernel / slices as f64,
            d2h: total.d2h / slices as f64,
            cpu: total.cpu / slices as f64,
        };
        let stages = [per.h2d, per.kernel, per.d2h, per.cpu];
        // finish[s] = completion time of the current slice in stage s.
        let mut finish = [0.0f64; 4];
        for _ in 0..slices {
            let mut ready = 0.0f64; // when this slice leaves the previous stage
            for (s, &dur) in stages.iter().enumerate() {
                let start = ready.max(finish[s]);
                finish[s] = start + dur;
                ready = finish[s];
            }
        }
        finish[3]
    }

    /// Seeded stage times: each stage is exactly zero one time in
    /// seven, otherwise spread over five decades.
    fn stages(rng: &mut SmallRng) -> StageTimes {
        let mut stage = || {
            if rng.gen_range(0..7) == 0 {
                0.0
            } else {
                rng.gen::<f64>() * 10f64.powi(rng.gen_range(-3..2))
            }
        };
        StageTimes { h2d: stage(), kernel: stage(), d2h: stage(), cpu: stage() }
    }

    #[test]
    fn ideal_pipeline_keeps_the_overlap_shape() {
        let t = StageTimes { h2d: 1.0, kernel: 4.0, d2h: 1.0, cpu: 4.0 };
        // One slice is the sequential total.
        assert_eq!(t.pipelined_seconds(1), 10.0);
        assert_eq!(t.sequential_seconds(), 10.0);
        // More slices never hurt.
        let mut last = f64::INFINITY;
        for slices in [1, 2, 4, 8, 64] {
            let m = t.pipelined_seconds(slices);
            assert!(m <= last + 1e-12, "slices {slices}: {m} > {last}");
            last = m;
        }
        // The paper's V2 argument: when kernel and CPU-selection times
        // are comparable, overlap nearly halves the total.
        assert!(overlap_speedup(10.0, t.pipelined_seconds(64)) > 2.0);
        // With many slices, time → max-stage total + ramp-up ≈ 4.0.
        let m = t.pipelined_seconds(1000);
        assert!((4.0 - 1e-9..4.2).contains(&m), "{m}");
    }

    #[test]
    fn ideal_pipeline_is_bit_identical_to_the_reference_loop() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
        for _ in 0..300 {
            let total = stages(&mut rng);
            for slices in 1..=64 {
                assert_eq!(
                    total.pipelined_seconds(slices).to_bits(),
                    reference_pipelined_makespan(total, slices).to_bits(),
                    "{total:?} over {slices} slices"
                );
            }
        }
        let zero = StageTimes::default();
        for slices in 1..=64 {
            assert_eq!(zero.pipelined_seconds(slices).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn timeline_pipelined_seconds_is_bit_identical_to_the_reference_loop() {
        // Ragged per-batch timelines: the pipeline runs over equal slices
        // of the accumulated totals, one slice per batch.
        let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
        for case in 0..640 {
            let batches = 1 + case % 64;
            let mut timeline = BatchTimeline::new();
            let mut totals = StageTimes::default();
            for _ in 0..batches {
                let b = stages(&mut rng);
                totals.h2d += b.h2d;
                totals.kernel += b.kernel;
                totals.d2h += b.d2h;
                totals.cpu += b.cpu;
                timeline.push(b);
            }
            assert_eq!(timeline.batches(), batches);
            assert_eq!(
                timeline.pipelined_seconds().to_bits(),
                reference_pipelined_makespan(totals, batches).to_bits(),
                "case {case}"
            );
            assert_eq!(
                timeline.sequential_seconds().to_bits(),
                (totals.h2d + totals.kernel + totals.d2h + totals.cpu).to_bits()
            );
        }
        assert_eq!(BatchTimeline::new().pipelined_seconds(), 0.0);
    }

    #[test]
    fn second_copy_engine_overlaps_the_first() {
        let mut sim = StreamSim::new();
        sim.enqueue(0, Engine::Copy, 2.0);
        sim.enqueue(1, Engine::SecondCopy, 2.0);
        assert_eq!(sim.run().makespan, 2.0);
    }

    #[test]
    fn overlap_speedup_is_one_without_a_makespan() {
        assert_eq!(overlap_speedup(4.0, 2.0), 2.0);
        assert_eq!(overlap_speedup(0.0, 0.0), 1.0);
        assert_eq!(overlap_speedup(3.0, 0.0), 1.0);
    }
}
